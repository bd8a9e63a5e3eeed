"""Certificate serialization.

Canonical JSON everywhere: sorted keys, no insignificant whitespace, and
a trailing newline, so byte-identical round trips are the norm and
certificates can be diffed and hashed.  Vertices are objects with a
lowercase fixed-width hex word and the dimension.  A vertex list is
written by one template, a list at a time (`Words`), and `dumps` splices
its text in: the bytes are those json writes for the list of vertex
objects, without building one object per vertex.  Counts that can leave
the 53-bit integer range (sizes, edge counts, bounds) are decimal
strings; small structural numbers (dimensions, palette sizes, ranks,
multiplicities) stay JSON numbers.  Rationals are "p/q" strings as
printed by Fraction.  `verify` accepts a file only if it is, byte for
byte, `dumps` of the envelope it re-derives, so the writer is the one
definition of the format.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING, Optional

from . import colouring as colouring_mod
from .graphs import Family, GraphKind, PsiRow, VertexWord

if TYPE_CHECKING:
    from . import families as families_mod
    from . import search as search_mod
    from . import spectral as spectral_mod

SCHEMA_VERSION = 2
TOOL_VERSION = "ortho-lab 0.1.0"
MEMBER_LIMIT = 2048

KINDS = (
    "bound",
    "colouring",
    "search",
    "family",
    "psi_table",
    "status",
)


def big(x: int) -> str:
    return str(int(x))


def frac(x: Fraction) -> str:
    return str(Fraction(x))


def bits_format(n: int) -> str:
    """The one format of a vertex's bits: lowercase hex, zero-padded to
    one digit per four bits of dimension n."""
    return f"%0{(n + 3) // 4}x"


def word(bits: int, n: int) -> dict:
    return {"bits": bits_format(n) % bits, "n": n}


def vertex(v: VertexWord) -> dict:
    return word(v.bits, v.n)


class Words:
    """A list of n-bit vertices, held as the text json writes for
    [word(w, n) for w in words]."""

    __slots__ = ("text",)

    def __init__(self, words, n: int):
        item = '{"bits":"%s","n":%d}' % (bits_format(n), n)
        self.text = "[" + ",".join([item] * len(words)) % tuple(words) + "]"


def strict_int(x, what: str) -> int:
    """A decoded JSON integer; rejects floats, booleans and strings, which
    int() would coerce or overflow on."""
    if type(x) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {x!r}")
    return x


def graph_kind(kind: GraphKind) -> dict:
    return {"family": kind.family.value, "n": kind.n}


def decode_kind(obj) -> GraphKind:
    """The graph kind that `graph_kind` writes as obj."""
    return GraphKind(Family(obj["family"]), strict_int(obj["n"], "kind n"))


def envelope(kind: str, n: int, payload: dict) -> dict:
    if kind not in KINDS:
        raise ValueError(f"unknown certificate kind {kind!r}")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "n": n,
        "produced_by": TOOL_VERSION,
        "payload": payload,
    }


def dumps(obj) -> str:
    """The canonical text of obj.  Each `Words` is written as the
    placeholder "\\u0000" and its text spliced in there, so a string
    that json writes the same way is refused."""
    lists = []

    def hook(o):
        if type(o) is not Words:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        lists.append(o.text)
        return "\0"

    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=hook)
    pieces = text.split('"\\u0000"')
    if len(pieces) != len(lists) + 1:
        raise ValueError("U+0000 marks where a vertex list goes; it cannot be a string")
    return "".join(chain.from_iterable(zip(pieces, lists + ["\n"])))


def validate_envelope(obj) -> tuple[str, int, dict]:
    if not isinstance(obj, dict):
        raise ValueError("envelope must be a JSON object")
    keys = {"schema_version", "kind", "n", "produced_by", "payload"}
    if set(obj) != keys:
        raise ValueError(f"envelope keys must be {sorted(keys)}, got {sorted(obj)}")
    if obj["produced_by"] != TOOL_VERSION:
        raise ValueError(f"certificate produced by {obj['produced_by']!r}, not {TOOL_VERSION!r}")
    if strict_int(obj["schema_version"], "schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {obj['schema_version']!r}")
    kind = obj["kind"]
    if kind not in KINDS:
        raise ValueError(f"unknown certificate kind {kind!r}")
    if not isinstance(obj["payload"], dict):
        raise ValueError("payload must be a JSON object")
    return kind, strict_int(obj["n"], "n"), obj["payload"]


# -- payload builders ----------------------------------------------------------

def bound_payload(report: spectral_mod.BoundReport) -> dict:
    return {
        "report_type": "ratio_bound",
        "kind": graph_kind(report.kind),
        "vertex_count": big(report.vertex_count),
        "degree": big(report.degree),
        "least_eigenvalue": frac(report.least_eigenvalue),
        "bound": frac(report.bound),
        "is_integer": report.is_integer,
        "matches_power_form": report.matches_power_form,
    }


def gram_identities_payload(rep: spectral_mod.GramIdentityReport) -> dict:
    return {
        "product_all_minus_one": rep.product_all_minus_one,
        "incidence_gram_ok": rep.incidence_gram_ok,
        "incidence_gram_diagonal": rep.incidence_gram_diagonal,
        "incidence_gram_off_diagonal": rep.incidence_gram_off_diagonal,
        "row_sums_ok": rep.row_sums_ok,
        "neighbourhood_row_sum": rep.neighbourhood_row_sum,
        "ok": rep.ok,
    }


def gram_spectrum_payload(rep: spectral_mod.GramSpectrumReport) -> dict:
    return {
        "coefficients": [big(c) for c in rep.coefficients],
        "identity_ok": rep.identity_ok,
        "eigenvalues": [frac(x) for x in rep.eigenvalues],
        "multiplicities": list(rep.multiplicities),
        "multiplicities_ok": rep.multiplicities_ok,
        "trace": big(rep.trace),
        "trace_ok": rep.trace_ok,
        "ok": rep.ok,
    }


def tau_eigenspace_payload(rep: spectral_mod.TauEigenspaceReport) -> dict:
    return {
        "tau": frac(rep.tau),
        "columns_checked": rep.columns_checked,
        "max_defect": frac(rep.max_defect),
        "ok": rep.ok,
    }


def spectrum_payload(
    bound: spectral_mod.BoundReport,
    identities: Optional[spectral_mod.GramIdentityReport],
    gram_spectrum: Optional[spectral_mod.GramSpectrumReport],
    eigenspace: Optional[spectral_mod.TauEigenspaceReport],
) -> dict:
    return {
        "report_type": "spectral_identities",
        "bound": bound_payload(bound),
        "gram_identities": None
        if identities is None
        else gram_identities_payload(identities),
        "gram_spectrum": None
        if gram_spectrum is None
        else gram_spectrum_payload(gram_spectrum),
        "tau_eigenspace": None
        if eigenspace is None
        else tau_eigenspace_payload(eigenspace),
    }


def indset_payload(cert: search_mod.IndSetCertificate, base: VertexWord) -> dict:
    return {
        "kind": graph_kind(cert.kind),
        "base": vertex(base),
        "vertices": Words([v.bits for v in cert.vertices], cert.kind.n),
        "size": big(cert.size),
        "contains_base": cert.contains_base,
        "meets_ratio_bound": cert.meets_ratio_bound,
        "eigenspace_member": cert.eigenspace_member,
    }


def colouring_payload(cert: colouring_mod.ColouringCertificate) -> dict:
    return {
        "kind": graph_kind(cert.kind),
        "palette_size": cert.palette_size,
        "classes": [Words(cls, cert.kind.n) for cls in cert.word_classes()],
    }


def search_payload(outcome: search_mod.SearchOutcome) -> dict:
    return {
        "base": vertex(outcome.base),
        "candidates_total": big(outcome.candidates_total),
        "count_01_valued": big(outcome.count_01_valued),
        "count_correct_weight": big(outcome.count_correct_weight),
        "count_independent": big(outcome.count_independent),
        "count_containing_base": big(outcome.count_containing_base),
        "certificates": [
            indset_payload(c, outcome.base) for c in outcome.certificates
        ],
    }


def family_payload(
    report: families_mod.FamilyReport,
    symdiff: Optional[families_mod.SymdiffReport] = None,
    lift: Optional[search_mod.IndSetCertificate] = None,
) -> dict:
    omit = report.size > MEMBER_LIMIT
    out = {
        "report_type": "family",
        "family": report.family.value,
        "kind": graph_kind(report.kind),
        "parameter": report.parameter,
        "raw_count": big(report.raw_count),
        "size": big(report.size),
        "independent": report.independent,
        "independence_method": report.independence_method,
        "maximal": report.maximal,
        "maximality_witness": None
        if report.maximality_witness is None
        else vertex(report.maximality_witness),
        "meets_ratio_bound": report.meets_ratio_bound,
        "quadrupled_size": None
        if report.quadrupled_size is None
        else big(report.quadrupled_size),
        "quadrupled_meets_bound": report.quadrupled_meets_bound,
        "members_omitted": omit,
        "members": None if omit else Words([v.bits for v in report.members], report.n),
        "symdiff": None
        if symdiff is None
        else {
            "parameter": symdiff.parameter,
            "image_size": big(symdiff.image_size),
            "target_size": big(symdiff.target_size),
            "ok": symdiff.ok,
            "witness": None if symdiff.witness is None else vertex(symdiff.witness),
        },
        "lift": None
        if lift is None
        else indset_payload(lift, VertexWord(0, report.n)),
    }
    return out


def doubling_bound_payload(rep: families_mod.DoublingBoundReport) -> dict:
    return {
        "report_type": "doubling_bound",
        "m": rep.m,
        "k": rep.k,
        "doubling_bound": big(rep.doubling_bound),
        "ratio_bound": None if rep.ratio_bound is None else frac(rep.ratio_bound),
        "factor": rep.factor,
        "tight_bipartite": rep.tight_bipartite,
    }


def psi_table_payload(k: int, rows: list[PsiRow]) -> dict:
    return {
        "k": k,
        "rows": [
            {
                "n": r.n,
                "vertex_count": big(r.vertex_count),
                "recursive_edges": big(r.psi_edges),
                "full_edges": big(r.omega_edges),
                "ratio": frac(r.ratio),
            }
            for r in rows
        ]
    }


def status_payload(report: colouring_mod.ChiStatusReport) -> dict:
    return {
        "verdict": report.verdict.value,
        "chain": list(report.chain),
        "colouring": None
        if report.colouring is None
        else colouring_payload(report.colouring),
    }


# -- the decoder used by the verifier ------------------------------------------

def decode_colouring(payload: dict) -> colouring_mod.ColouringCertificate:
    """The colouring whose class i gives colour i to the words it lists.
    Only what the re-encoding would write back unchanged is typed here:
    the kind's family must name a `Family`, the kind's n and
    `palette_size` must be JSON integers (at n = 1, true == 1 passes every
    other check and is written back as true), and each bits field is read
    as a hex number.  `verify` checks the rest of the form by requiring
    the file to be the re-encoding byte for byte.  A word out of range or
    missing leaves some word at -1, which `verify_colouring` refuses."""
    kind = decode_kind(payload["kind"])
    palette_size = strict_int(payload["palette_size"], "palette_size")
    classes = payload["classes"]
    size = 1 << kind.n
    colour = []
    # the closed-form count first, so a forged large n allocates nothing
    if sum(map(len, classes)) == size:
        colour = [-1] * size
        for ci, cls in enumerate(classes):
            for v in cls:
                w = int(v["bits"], 16)
                if 0 <= w < size:
                    colour[w] = ci
    return colouring_mod.ColouringCertificate(
        kind=kind, colour=tuple(colour), palette_size=palette_size
    )
