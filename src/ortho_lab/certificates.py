"""Certificate serialization.

Canonical JSON everywhere: sorted keys, no insignificant whitespace, and
a trailing newline, so byte-identical round trips are the norm and
certificates can be diffed and hashed.  Vertices are objects with a
lowercase fixed-width hex word and the dimension.  Counts that can leave
the 53-bit integer range (sizes, edge counts, bounds) are decimal
strings; small structural numbers (dimensions, palette sizes, ranks,
multiplicities) stay JSON numbers.  Rationals are "p/q" strings as
printed by Fraction.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from . import colouring as colouring_mod
from . import families as families_mod
from . import search as search_mod
from . import spectral as spectral_mod
from .graphs import Family, GraphKind, PsiRow, VertexWord

SCHEMA_VERSION = 2
TOOL_VERSION = "ortho-lab 0.1.0"
MEMBER_LIMIT = 2048

KINDS = (
    "bound",
    "indset",
    "clique",
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


def vertex(v: VertexWord) -> dict:
    return {"bits": v.hex(), "n": v.n}


def strict_int(x, what: str) -> int:
    """A decoded JSON integer; rejects floats, booleans and strings, which
    int() would coerce or overflow on."""
    if type(x) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {x!r}")
    return x


def decode_vertex(obj: dict) -> VertexWord:
    return VertexWord.from_hex(obj["bits"], strict_int(obj["n"], "vertex n"))


def graph_kind(kind: GraphKind) -> dict:
    return {"family": kind.family.value, "n": kind.n}


def decode_kind(obj: dict) -> GraphKind:
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
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def validate_envelope(obj) -> tuple[str, int, dict]:
    if not isinstance(obj, dict):
        raise ValueError("envelope must be a JSON object")
    for key in ("schema_version", "kind", "n", "produced_by", "payload"):
        if key not in obj:
            raise ValueError(f"envelope missing {key!r}")
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
        "vertices": [vertex(v) for v in cert.vertices],
        "size": big(cert.size),
        "contains_base": cert.contains_base,
        "meets_ratio_bound": cert.meets_ratio_bound,
        "eigenspace_member": cert.eigenspace_member,
    }


def clique_payload(cert: colouring_mod.CliqueCertificate) -> dict:
    return {
        "n": cert.n,
        "vertices": [vertex(v) for v in cert.vertices],
        "size": big(cert.size),
    }


def colouring_payload(cert: colouring_mod.ColouringCertificate) -> dict:
    return {
        "kind": graph_kind(cert.kind),
        "palette_size": cert.palette_size,
        "classes": [[vertex(v) for v in cls] for cls in cert.classes],
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
        "members": None if omit else [vertex(v) for v in report.members],
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


# -- decoders used by the verifier ---------------------------------------------

def decode_colouring(payload: dict) -> colouring_mod.ColouringCertificate:
    kind = decode_kind(payload["kind"])
    classes = tuple(
        tuple(decode_vertex(v) for v in cls) for cls in payload["classes"]
    )
    return colouring_mod.ColouringCertificate(
        kind=kind,
        classes=classes,
        palette_size=strict_int(payload["palette_size"], "palette_size"),
    )


def decode_clique(payload: dict) -> colouring_mod.CliqueCertificate:
    verts = tuple(decode_vertex(v) for v in payload["vertices"])
    return colouring_mod.CliqueCertificate(
        n=strict_int(payload["n"], "n"), vertices=verts, size=len(verts)
    )
