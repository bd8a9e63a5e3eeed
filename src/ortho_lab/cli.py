"""Command-line interface.

Every emitting subcommand is one producer, ``options -> (kind, n,
payload, notes)``: the payload goes out as one canonical JSON
certificate on stdout (or to ``--out``) and the notes go to stderr.
``verify`` reads a certificate back and exits 0 only if its claims hold
and the file is, byte for byte, the canonical text of the certificate it
re-derives: a derivable certificate is re-run through the producer of the
command that emits it, with that command's options read back from the
certificate; a colouring is a witness, decoded, rechecked and only then
re-encoded.  Exit code 1 means the certificate failed verification, exit
code 2 means the invocation itself was malformed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import certificates, colouring, families, search, spectral
from .graphs import omega, psi_stats, y_quotient

SPECTRUM_DIMS = (4, 8, 12, 16)

# (certificate kind, envelope n, payload, lines for stderr)
Produced = tuple[str, int, dict, list[str]]


def produce_bound(opts: argparse.Namespace) -> Produced:
    kind = y_quotient(opts.n) if opts.kind == "y" else omega(opts.n)
    return "bound", opts.n, certificates.bound_payload(spectral.ratio_bound(kind)), []


def produce_spectrum(opts: argparse.Namespace) -> Produced:
    n = opts.n
    if n not in SPECTRUM_DIMS:
        raise ValueError(f"spectrum supports n in {SPECTRUM_DIMS}")
    gram = n in (8, 12, 16)
    payload = certificates.spectrum_payload(
        spectral.ratio_bound(omega(n)),
        spectral.gram_identities(n) if gram else None,
        spectral.neighbourhood_gram_spectrum(n) if gram else None,
        spectral.verify_tau_eigenspace(n) if n in (4, 8) else None,
    )
    return "bound", n, payload, []


def produce_search(opts: argparse.Namespace) -> Produced:
    outcome = search.enumerate_candidates(opts.n, base=int(opts.base, 16))
    note = (
        f"scanned {outcome.candidates_total} candidates; "
        f"{len(outcome.certificates)} certificate(s)"
    )
    return "search", opts.n, certificates.search_payload(outcome), [note]


def produce_colour(opts: argparse.Namespace) -> Produced:
    n = opts.n
    if opts.graph == "psi":
        if n < 1 or n & (n - 1):
            raise ValueError("the recursive graph needs n a power of two")
        cert = colouring.psi_colouring(n.bit_length() - 1)
    else:
        cert = colouring.omega_colouring(n)
    return "colouring", n, certificates.colouring_payload(cert), []


def produce_families(opts: argparse.Namespace) -> Produced:
    n = opts.n
    if opts.which == "segment":
        report = families.initial_segment_family(n)
        symdiff = families.symdiff_transform_check(n)
        lift = families.lift_to_omega(report)
        payload = certificates.family_payload(report, symdiff=symdiff, lift=lift)
    elif opts.which == "odd":
        payload = certificates.family_payload(families.small_odd_family(n))
    else:
        payload = certificates.doubling_bound_payload(families.m2k_bound(n))
    return "family", n, payload, []


def produce_psi(opts: argparse.Namespace) -> Produced:
    rows = psi_stats(opts.k)
    return "psi_table", 1 << opts.k, certificates.psi_table_payload(opts.k, rows), []


def produce_status(opts: argparse.Namespace) -> Produced:
    report = colouring.chi_status(opts.n)
    return "status", opts.n, certificates.status_payload(report), list(report.chain)


def _run_producer(args) -> int:
    kind, n, payload, notes = args.produce(args)
    for line in notes:
        print(line, file=sys.stderr)
    text = certificates.dumps(certificates.envelope(kind, n, payload))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {kind} certificate to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


# -- verification --------------------------------------------------------------

def _emitting_options(kind: str, n: int, payload: dict) -> argparse.Namespace:
    """The options of the command that emits a derivable certificate,
    read back from the certificate rather than from an argv, so a bad
    value fails verification instead of exiting as a usage error."""
    opts = argparse.Namespace(n=n)
    if kind == "bound" and payload.get("report_type") == "spectral_identities":
        opts.produce = produce_spectrum
    elif kind == "bound":
        opts.produce, opts.kind = produce_bound, payload["kind"]["family"]
    elif kind == "search":
        opts.produce, opts.base = produce_search, payload["base"]["bits"]
    elif kind == "family":
        opts.produce = produce_families
        if payload.get("report_type") == "doubling_bound":
            opts.which = "m2k"
        elif payload.get("family") == "initial_segment":
            opts.which = "segment"
        else:
            opts.which = "odd"
    elif kind == "psi_table":
        opts.produce = produce_psi
        opts.k = certificates.strict_int(payload["k"], "k")
    else:
        opts.produce = produce_status
    return opts


def _recheck(kind: str, n: int, payload: dict) -> tuple[list[str], Optional[dict]]:
    """The problems found, and else the envelope whose canonical bytes
    the file must be.  A derivable certificate is re-run through its
    emitting command's producer.  A colouring is a witness, so any
    proper colouring passes: it is decoded and rechecked first, so a
    forged palette size or dimension builds nothing, and only then
    re-encoded."""
    if kind == "colouring":
        problems = []
        cert = certificates.decode_colouring(payload)
        # nothing reads the parsed classes again; the re-encoding reuses their memory
        payload.clear()
        if not colouring.verify_colouring(cert):
            problems.append("colouring recheck failed")
        if cert.kind.n != n:
            problems.append("envelope dimension does not match payload")
        if problems:
            return problems, None
        return [], certificates.envelope(kind, n, certificates.colouring_payload(cert))
    opts = _emitting_options(kind, n, payload)
    regen_kind, regen_n, regen, _ = opts.produce(opts)
    return [], certificates.envelope(regen_kind, regen_n, regen)


def _run_verify(args) -> int:
    try:
        with open(args.certificate, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {args.certificate}: {exc}") from exc
    try:
        # bytes that are not UTF-8 make a malformed certificate, not a usage error
        text = data.decode("utf-8")
        del data
        kind, n, payload = certificates.validate_envelope(json.loads(text))
    except (ValueError, KeyError, RecursionError) as exc:
        print(f"FAIL: malformed certificate: {exc}", file=sys.stderr)
        return 1
    try:
        problems, want = _recheck(kind, n, payload)
        # one comparison of bytes, so no re-formatting, key order or
        # repeated key passes, and 3.0 or true never passes for 3 or 1
        if not problems and certificates.dumps(want) != text:
            problems = ["the file is not the canonical bytes of the rechecked certificate"]
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        print(f"FAIL: {kind} certificate could not be rechecked: {exc}", file=sys.stderr)
        return 1
    if problems:
        print(f"FAIL: {'; '.join(problems)}", file=sys.stderr)
        return 1
    print(f"OK: {kind} certificate for n={n} verified")
    return 0


# -- parser --------------------------------------------------------------------

def _emits(p, produce) -> None:
    p.add_argument("--out", help="write the certificate to this file instead of stdout")
    p.set_defaults(func=_run_producer, produce=produce)


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
    _emits(p, produce_bound)

    p = sub.add_parser("spectrum", help="eigenvalue and Gram-matrix identity report")
    p.add_argument("--n", type=int, required=True)
    _emits(p, produce_spectrum)

    p = sub.add_parser("search", help="enumerate tight independent sets in the quotient")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--base", default="0", help="base vertex as hex (default 0)")
    _emits(p, produce_search)

    p = sub.add_parser("colour", help="produce and verify a proper colouring")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--graph", choices=("omega", "psi"), default="omega")
    _emits(p, produce_colour)

    p = sub.add_parser("families", help="structured independent families and bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--which", choices=("segment", "odd", "m2k"), required=True)
    _emits(p, produce_families)

    p = sub.add_parser("psi", help="recursive subgraph statistics table")
    p.add_argument("--k", type=int, required=True)
    _emits(p, produce_psi)

    p = sub.add_parser("status", help="chromatic number status for one dimension")
    p.add_argument("--n", type=int, required=True)
    _emits(p, produce_status)

    p = sub.add_parser("verify", help="recheck a stored certificate")
    p.add_argument("certificate", help="path to a certificate JSON file")
    p.set_defaults(func=_run_verify)

    return parser


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


def verify(path: str) -> int:
    """Programmatic entry for the verify subcommand: 0 if the stored
    certificate holds up, 1 if it does not."""
    return run(["verify", path])


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
