"""Command-line interface.

Every emitting subcommand prints one canonical JSON certificate to
stdout (or to ``--out``); diagnostics go to stderr.  ``verify`` reads a
certificate back, re-derives what it claims, and exits 0 only if the
claims hold: exit code 1 means the certificate failed verification,
exit code 2 means the invocation itself was malformed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import certificates, colouring, families, search, spectral
from .graphs import omega, psi_stats, y_quotient

SPECTRUM_DIMS = (4, 8, 12, 16)


def _emit(env: dict, out: Optional[str]) -> None:
    text = certificates.dumps(env)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {env['kind']} certificate to {out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def cmd_bound(args) -> int:
    kind = y_quotient(args.n) if args.kind == "y" else omega(args.n)
    report = spectral.ratio_bound(kind)
    _emit(certificates.envelope("bound", args.n, certificates.bound_payload(report)), args.out)
    return 0


def _spectrum_sections(n: int):
    bound = spectral.ratio_bound(omega(n))
    identities = spectral.gram_identities(n) if n in (8, 12, 16) else None
    gram = spectral.neighbourhood_gram_spectrum(n) if n in (8, 12, 16) else None
    eigen = spectral.verify_tau_eigenspace(n) if n in (4, 8) else None
    return bound, identities, gram, eigen


def cmd_spectrum(args) -> int:
    n = args.n
    if n not in SPECTRUM_DIMS:
        raise ValueError(f"spectrum supports n in {SPECTRUM_DIMS}")
    payload = certificates.spectrum_payload(*_spectrum_sections(n))
    _emit(certificates.envelope("bound", n, payload), args.out)
    return 0


def cmd_search(args) -> int:
    base = int(args.base, 16)
    outcome = search.enumerate_candidates(args.n, base=base)
    print(
        f"scanned {outcome.candidates_total} candidates; "
        f"{len(outcome.certificates)} certificate(s)",
        file=sys.stderr,
    )
    _emit(
        certificates.envelope("search", args.n, certificates.search_payload(outcome)),
        args.out,
    )
    return 0


def cmd_colour(args) -> int:
    if args.graph == "psi":
        n = args.n
        if n < 1 or n & (n - 1):
            raise ValueError("the recursive graph needs n a power of two")
        cert = colouring.psi_colouring(n.bit_length() - 1)
    else:
        cert = colouring.omega_colouring(args.n)
    _emit(
        certificates.envelope(
            "colouring", args.n, certificates.colouring_payload(cert)
        ),
        args.out,
    )
    return 0


def cmd_families(args) -> int:
    n = args.n
    if args.which == "segment":
        report = families.initial_segment_family(n)
        symdiff = families.symdiff_transform_check(n)
        lift = families.lift_to_omega(report)
        payload = certificates.family_payload(report, symdiff=symdiff, lift=lift)
    elif args.which == "odd":
        payload = certificates.family_payload(families.small_odd_family(n))
    else:
        payload = certificates.doubling_bound_payload(families.m2k_bound(n))
    _emit(certificates.envelope("family", n, payload), args.out)
    return 0


def cmd_psi(args) -> int:
    rows = psi_stats(args.k)
    payload = certificates.psi_table_payload(args.k, rows)
    _emit(certificates.envelope("psi_table", 1 << args.k, payload), args.out)
    return 0


def cmd_status(args) -> int:
    report = colouring.chi_status(args.n)
    for line in report.chain:
        print(line, file=sys.stderr)
    _emit(
        certificates.envelope("status", args.n, certificates.status_payload(report)),
        args.out,
    )
    return 0


# -- verification --------------------------------------------------------------

def _same(regen: dict, payload: dict) -> bool:
    """Equal as canonical JSON, so 3.0 or true never passes for 3 or 1.
    Needed where a payload holds fields that no strict decoder reads."""
    return certificates.dumps(regen) == certificates.dumps(payload)


def _regenerate_payload(kind: str, n: int, payload: dict) -> dict:
    """Recompute the payload a well-formed certificate of this kind and
    parameters would have."""
    if kind == "bound":
        if payload.get("report_type") == "spectral_identities":
            return certificates.spectrum_payload(*_spectrum_sections(n))
        gk = certificates.decode_kind(payload["kind"])
        if gk.n != n:
            raise ValueError("envelope dimension does not match payload")
        return certificates.bound_payload(spectral.ratio_bound(gk))
    if kind == "search":
        base = certificates.decode_vertex(payload["base"])
        outcome = search.enumerate_candidates(n, base=base.bits)
        return certificates.search_payload(outcome)
    if kind == "family":
        if payload.get("report_type") == "doubling_bound":
            return certificates.doubling_bound_payload(families.m2k_bound(n))
        if payload.get("family") == "initial_segment":
            report = families.initial_segment_family(n)
            symdiff = (
                families.symdiff_transform_check(n)
                if payload.get("symdiff") is not None
                else None
            )
            lift = (
                families.lift_to_omega(report)
                if payload.get("lift") is not None
                else None
            )
            return certificates.family_payload(report, symdiff=symdiff, lift=lift)
        return certificates.family_payload(families.small_odd_family(n))
    if kind == "psi_table":
        k = certificates.strict_int(payload["k"], "k")
        rows = psi_stats(k)
        if n != 1 << k:
            raise ValueError("envelope dimension does not match payload")
        return certificates.psi_table_payload(k, rows)
    if kind == "status":
        return certificates.status_payload(colouring.chi_status(n))
    raise ValueError(f"no regeneration rule for kind {kind!r}")


def _verify_validity(kind: str, n: int, payload: dict) -> list[str]:
    """Structural kinds are checked directly instead of regenerated:
    decode, recheck every claim, and re-encode to catch field tampering."""
    problems = []
    if kind == "indset":
        gk = certificates.decode_kind(payload["kind"])
        base = certificates.decode_vertex(payload["base"])
        bits = [certificates.decode_vertex(v).bits for v in payload["vertices"]]
        try:
            cert = search.certify_indset(gk, bits, base=base.bits)
        except ValueError as exc:
            return [f"independent-set recheck failed: {exc}"]
        regen = certificates.indset_payload(cert, base)
        if not _same(regen, payload):
            problems.append("stored fields disagree with recomputed certificate")
        if not gk.n == base.n == n:
            problems.append("envelope dimension does not match payload")
    elif kind == "clique":
        cert = certificates.decode_clique(payload)
        if not colouring.verify_clique(cert):
            problems.append("clique recheck failed")
        elif certificates.clique_payload(cert) != payload:
            problems.append("stored fields disagree with recomputed certificate")
        if cert.n != n:
            problems.append("envelope dimension does not match payload")
    elif kind == "colouring":
        cert = certificates.decode_colouring(payload)
        if not colouring.verify_colouring(cert):
            problems.append("colouring recheck failed")
        elif certificates.colouring_payload(cert) != payload:
            problems.append("stored fields disagree with recomputed certificate")
        if cert.kind.n != n:
            problems.append("envelope dimension does not match payload")
    else:
        raise ValueError(f"no validity rule for kind {kind!r}")
    return problems


VALIDITY_KINDS = ("indset", "clique", "colouring")


def cmd_verify(args) -> int:
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {args.certificate}: {exc}") from exc
    try:
        obj = json.loads(text)
        kind, n, payload = certificates.validate_envelope(obj)
    except (ValueError, KeyError, RecursionError) as exc:
        print(f"FAIL: malformed certificate: {exc}", file=sys.stderr)
        return 1
    try:
        if kind in VALIDITY_KINDS:
            problems = _verify_validity(kind, n, payload)
        else:
            regen = _regenerate_payload(kind, n, payload)
            problems = []
            if not _same(regen, payload):
                problems.append("stored payload disagrees with regenerated payload")
    except (ValueError, KeyError, TypeError) as exc:
        print(f"FAIL: {kind} certificate could not be rechecked: {exc}", file=sys.stderr)
        return 1
    if problems:
        print(f"FAIL: {'; '.join(problems)}", file=sys.stderr)
        return 1
    print(f"OK: {kind} certificate for n={n} verified")
    return 0


# -- parser --------------------------------------------------------------------

def _add_out(p) -> None:
    p.add_argument("--out", help="write the certificate to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ortho-lab",
        description="Exact spectral bounds, searches, and colourings for the "
        "orthogonality graph on sign vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="eigenvalue ratio bound on independent sets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("omega", "y"), default="omega")
    _add_out(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("spectrum", help="eigenvalue and Gram-matrix identity report")
    p.add_argument("--n", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("search", help="enumerate tight independent sets in the quotient")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--base", default="0", help="base vertex as hex (default 0)")
    _add_out(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("colour", help="produce and verify a proper colouring")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--graph", choices=("omega", "psi"), default="omega")
    _add_out(p)
    p.set_defaults(func=cmd_colour)

    p = sub.add_parser("families", help="structured independent families and bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--which", choices=("segment", "odd", "m2k"), required=True)
    _add_out(p)
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("psi", help="recursive subgraph statistics table")
    p.add_argument("--k", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("status", help="chromatic number status for one dimension")
    p.add_argument("--n", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("verify", help="recheck a stored certificate")
    p.add_argument("certificate", help="path to a certificate JSON file")
    p.set_defaults(func=cmd_verify)

    return parser


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, NotImplementedError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    return 0


def verify(path: str) -> int:
    """Programmatic entry for the verify subcommand: 0 if the stored
    certificate holds up, 1 if it does not."""
    return run(["verify", path])


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
