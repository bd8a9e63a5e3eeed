"""Command-line behaviour: canonical output, verification, exit codes."""

import contextlib
import copy
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ortho_lab
from ortho_lab import certificates, cli, colouring, search, spectral
from ortho_lab.graphs import (
    Family,
    GraphKind,
    VertexWord,
    adjacent_bits,
    is_y_canonical,
    omega,
    y_quotient,
)


def run_cli(argv, capsys):
    code = cli.run(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_module(argv):
    """Run ``python -m ortho_lab.cli`` in a fresh interpreter that imports
    the package under test, installed or not."""
    env = dict(os.environ)
    src = str(Path(ortho_lab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "ortho_lab.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


# --- canonical serialization --------------------------------------------------

def test_dumps_is_canonical_and_round_trips():
    env = certificates.envelope("bound", 8, {"b": 1, "a": 2})
    text = certificates.dumps(env)
    assert text.endswith("\n")
    assert ": " not in text and ", " not in text  # tight separators
    assert certificates.dumps(json.loads(text)) == text
    # keys come out sorted
    assert text.index('"a"') < text.index('"b"')


def _word_lists(n):
    """Empty, the two end words, and 50 seeded random ascending words."""
    rng = random.Random(n)
    yield from ([], [0], [(1 << n) - 1])
    yield sorted(rng.randrange(1 << n) for _ in range(50))


@pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 16, 17, 64])
def test_vertex_lists_are_written_as_json_writes_their_vertices(n):
    def nest(vs):
        return {"b": [1, vs, {"x": vs}], "a": {"vs": vs}}

    for words in _word_lists(n):
        want = nest([certificates.word(w, n) for w in words])
        got = certificates.dumps(nest(certificates.Words(words, n)))
        assert got == json.dumps(want, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["colour", "--n", "4"],
        ["colour", "--n", "8"],
        ["colour", "--graph", "psi", "--n", "4"],
        ["colour", "--graph", "psi", "--n", "16"],
        ["families", "--which", "segment", "--n", "8"],
        ["families", "--which", "segment", "--n", "16"],
        ["search", "--n", "8"],  # its independent sets carry vertex lists
    ],
)
def test_emitted_vertex_lists_round_trip(capsys, argv):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert certificates.dumps(json.loads(out)) == out


def test_dumps_refuses_the_placeholder_string_and_unknown_objects():
    words = certificates.Words([1, 2], 4)
    for payload in ({"a": "\0"}, {"a": "\0", "b": words}, {"\0": words}):
        with pytest.raises(ValueError):
            certificates.dumps(payload)
    for payload in ({"a": VertexWord(1, 4)}, [words, object()]):
        with pytest.raises(TypeError):
            certificates.dumps(payload)


def test_envelope_shape():
    env = certificates.envelope("search", 8, {})
    assert env["schema_version"] == 2
    assert env["produced_by"].startswith("ortho-lab ")
    with pytest.raises(ValueError):
        certificates.envelope("nonsense", 8, {})


def test_vertex_encoding_uses_fixed_width_hex():
    assert certificates.vertex(VertexWord(10, 8)) == {"bits": "0a", "n": 8}
    assert certificates.vertex(VertexWord(5, 12)) == {"bits": "005", "n": 12}


def test_validate_envelope_rejects_malformed_objects():
    with pytest.raises(ValueError):
        certificates.validate_envelope([])
    with pytest.raises(ValueError):
        certificates.validate_envelope({"kind": "bound"})
    good = certificates.envelope("bound", 8, {})
    for bad in (
        dict(good, schema_version=1),
        dict(good, verdict="chromatic number 3"),
        dict(good, produced_by="ortho-lab 9.9.9"),
    ):
        with pytest.raises(ValueError):
            certificates.validate_envelope(bad)


# --- subcommands --------------------------------------------------------------

def test_bound_subcommand_stdout(capsys):
    code, out, err = run_cli(["bound", "--n", "8"], capsys)
    assert code == 0
    env = json.loads(out)
    assert env["kind"] == "bound" and env["n"] == 8
    assert env["payload"]["bound"] == "32"
    assert certificates.dumps(env) == out


def test_bound_subcommand_quotient(capsys):
    code, out, _ = run_cli(["bound", "--n", "16", "--kind", "y"], capsys)
    assert code == 0
    assert json.loads(out)["payload"]["bound"] == "1024"


def test_spectrum_subcommand(capsys):
    code, out, _ = run_cli(["spectrum", "--n", "8"], capsys)
    assert code == 0
    env = json.loads(out)
    assert env["kind"] == "bound"
    payload = env["payload"]
    assert payload["report_type"] == "spectral_identities"
    assert payload["gram_spectrum"]["trace"] == "1960"
    assert payload["tau_eigenspace"]["ok"] is True


def test_search_subcommand_writes_file(tmp_path, capsys):
    out_path = tmp_path / "s8.json"
    code, out, err = run_cli(["search", "--n", "8", "--out", str(out_path)], capsys)
    assert code == 0
    assert out == ""  # data went to the file
    env = json.loads(out_path.read_text())
    assert env["kind"] == "search"
    assert len(env["payload"]["certificates"]) == 8
    assert env["payload"]["count_01_valued"] == "9"


def test_colour_subcommand(capsys):
    code, out, _ = run_cli(["colour", "--n", "8"], capsys)
    assert code == 0
    env = json.loads(out)
    assert env["kind"] == "colouring"
    assert env["payload"]["palette_size"] == 8


def test_colour_psi_subcommand(capsys):
    code, out, _ = run_cli(["colour", "--n", "4", "--graph", "psi"], capsys)
    assert code == 0
    assert json.loads(out)["payload"]["kind"]["family"] == "psi"


def test_families_subcommands(capsys):
    code, out, _ = run_cli(["families", "--n", "8", "--which", "segment"], capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["size"] == "8"
    assert payload["symdiff"]["ok"] is True
    assert payload["lift"]["size"] == "32"

    code, out, _ = run_cli(["families", "--n", "12", "--which", "odd"], capsys)
    assert json.loads(out)["payload"]["size"] == "67"

    code, out, _ = run_cli(["families", "--n", "12", "--which", "m2k"], capsys)
    assert json.loads(out)["payload"]["factor"] == 3


def test_families_member_lists_are_capped(capsys):
    code, out, _ = run_cli(["families", "--n", "20", "--which", "odd"], capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["members_omitted"] is True
    assert payload["members"] is None
    assert payload["size"] == "5036"


def test_psi_subcommand(capsys):
    code, out, _ = run_cli(["psi", "--k", "4"], capsys)
    assert code == 0
    env = json.loads(out)
    assert env["kind"] == "psi_table"
    rows = env["payload"]["rows"]
    assert rows[-1]["recursive_edges"] == "9109504"


def test_status_subcommand(capsys):
    code, out, err = run_cli(["status", "--n", "12"], capsys)
    assert code == 0
    env = json.loads(out)
    assert env["kind"] == "status"
    assert env["payload"]["verdict"] == "greater_than_n"
    assert "1024/3" in err


# --- verify -------------------------------------------------------------------

def _subcommands():
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if a.dest == "command")
    return set(sub.choices)


def test_verify_accepts_every_emitted_kind(tmp_path, capsys):
    cases = [
        ["bound", "--n", "8"],
        ["spectrum", "--n", "4"],
        ["search", "--n", "8"],
        ["colour", "--n", "4"],
        ["families", "--n", "8", "--which", "segment"],
        ["families", "--n", "8", "--which", "odd"],
        ["families", "--n", "8", "--which", "m2k"],
        ["psi", "--k", "3"],
        ["status", "--n", "6"],
    ]
    # a new emitting command needs a producer round trip here
    assert {argv[0] for argv in cases} == _subcommands() - {"verify"}
    for i, argv in enumerate(cases):
        path = tmp_path / f"cert{i}.json"
        code, _, _ = run_cli(argv + ["--out", str(path)], capsys)
        assert code == 0
        code, out, err = run_cli(["verify", str(path)], capsys)
        assert code == 0, (argv, err)
        assert out.startswith("OK")


def verify_text(tmp_path, capsys, text):
    """Exit code, stdout and stderr of ``verify`` on a file holding text."""
    p = tmp_path / "cert.json"
    p.write_text(text)
    return run_cli(["verify", str(p)], capsys)


def assert_one_fail(code, out, err):
    assert code == 1
    assert out == ""
    assert err.count("FAIL:") == 1 and "Traceback" not in err


def test_verify_rejects_standalone_kinds(tmp_path, capsys):
    # no command emits a bare independent set or clique
    cert = search.certify_indset(y_quotient(8), [0, 126])
    indset = certificates.indset_payload(cert, VertexWord(0, 8))
    clique = colouring.sylvester_clique(3)
    clique_fields = {
        "n": 8,
        "vertices": [certificates.word(w, 8) for w in clique],
        "size": str(len(clique)),
    }
    for kind, payload in (("indset", indset), ("clique", clique_fields)):
        env = dict(certificates.envelope("search", 8, payload), kind=kind)
        assert_one_fail(*verify_text(tmp_path, capsys, certificates.dumps(env)))
    assert len(certificates.KINDS) == 6


def test_verify_rejects_spectrum_no_command_emits(tmp_path, capsys):
    payload = certificates.spectrum_payload(
        spectral.ratio_bound(omega(20)), None, None, None
    )
    env = certificates.envelope("bound", 20, payload)
    assert_one_fail(*verify_text(tmp_path, capsys, certificates.dumps(env)))


def _colouring_envelope(family, n, classes, palette_size):
    # a class member is a word, or a vertex object written as it stands
    payload = {
        "kind": {"family": family, "n": n},
        "palette_size": palette_size,
        "classes": [
            [v if isinstance(v, dict) else certificates.word(v, n) for v in cls]
            for cls in classes
        ],
    }
    return certificates.dumps(certificates.envelope("colouring", n, payload))


@pytest.mark.parametrize(
    "first, palette_size",
    [
        (1, 4),  # word 1 twice, word 0 never: the count still matches
        ({"bits": "00", "n": 8}, 4),
        (16, 4),
        (-1, 4),  # bits "-1"
        ({"bits": 0, "n": 4}, 4),
        (0, 1 << 62),
    ],
    ids=["duplicate", "vertex-n", "out-of-range", "minus-one", "bits-not-string", "palette-2^62"],
)
def test_verify_rejects_forged_colouring_words(tmp_path, capsys, first, palette_size):
    classes = colouring.omega_colouring(4).word_classes()
    classes[0][0] = first  # in place of word 0
    start = time.perf_counter()
    text = _colouring_envelope("omega", 4, classes, palette_size)
    assert_one_fail(*verify_text(tmp_path, capsys, text))
    assert time.perf_counter() - start < 2  # nothing is built per palette colour


def test_verify_needs_each_class_ascending(tmp_path, capsys):
    # the order of the classes only renames the colours
    classes = colouring.omega_colouring(4).word_classes()
    classes[0], classes[1] = classes[1], classes[0]
    code, out, _ = verify_text(tmp_path, capsys, _colouring_envelope("omega", 4, classes, 4))
    assert code == 0 and out.startswith("OK")
    classes[0][:2] = classes[0][1::-1]
    assert_one_fail(*verify_text(tmp_path, capsys, _colouring_envelope("omega", 4, classes, 4)))


def test_verify_rejects_tiny_forged_colouring_of_a_huge_graph(tmp_path, capsys):
    # one class holding one vertex: the count is compared in closed form
    # before the 2^n-word universe would be built
    for family, n in (("omega", 48), ("omega", 64), ("psi", 64)):
        text = _colouring_envelope(family, n, [[0]], 1)
        assert_one_fail(*verify_text(tmp_path, capsys, text))


def test_verify_rejects_colouring_of_the_quotient(tmp_path, capsys):
    # a proper colouring of the 4-vertex quotient, which no command emits
    text = _colouring_envelope("y", 4, [[0x0], [0x6], [0xA], [0xC]], 4)
    assert_one_fail(*verify_text(tmp_path, capsys, text))


def test_verify_rejects_empty_colour_class(tmp_path, capsys):
    # an unused colour would inflate the palette size
    text = _colouring_envelope("omega", 1, [[0, 1], []], 2)
    assert_one_fail(*verify_text(tmp_path, capsys, text))


@functools.cache
def _emitted(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.run(list(argv)) == 0
    return out.getvalue()


def _set_bits(cls, i, text):
    def change(payload):
        payload["classes"][cls][i]["bits"] = text
    return change


def _set_vertex_n(value):
    def change(payload):
        payload["classes"][0][0]["n"] = value
    return change


def _add_key(*path):
    def change(payload):
        node = payload
        for key in path:
            node = node[key]
        node["note"] = ""
    return change


def _repeat_first_word(payload):
    first = payload["classes"][0]
    first[1] = dict(first[0])


# Forms `colouring_payload` never writes, each a change to the payload of
# `colour --n <n>`.  The first three pass a decoder that only fills the
# colour list and compares n with ==, and every bits form here passes
# int(bits, 16).  At n = 4, class 0 holds the words 0, 7, 8, f and class 1
# holds 2, 5, a, d.
COLOURING_TRAPS = {
    "trailing-empty-class": (4, lambda payload: payload["classes"].append([])),
    "vertex-n-float": (4, _set_vertex_n(4.0)),
    "vertex-n-true": (1, _set_vertex_n(True)),  # True == 1
    "uppercase-hex": (4, _set_bits(1, 2, "A")),
    "over-wide-hex": (4, _set_bits(0, 3, "0f")),
    "0x-prefix": (4, _set_bits(0, 3, "0xf")),
    "plus-sign": (4, _set_bits(0, 3, "+f")),
    "underscore": (4, _set_bits(0, 3, "0_f")),
    "vertex-extra-key": (4, _add_key("classes", 0, 0)),
    "kind-extra-key": (4, _add_key("kind")),
    "payload-extra-key": (4, _add_key()),
    "repeated-word": (4, _repeat_first_word),
}


def _trapped(trap):
    n, change = COLOURING_TRAPS[trap]
    env = json.loads(_emitted("colour", "--n", str(n)))
    change(env["payload"])
    return env


@pytest.mark.parametrize("trap", list(COLOURING_TRAPS))
def test_verify_rejects_non_canonical_colouring(tmp_path, capsys, trap):
    text = certificates.dumps(_trapped(trap))
    assert_one_fail(*verify_text(tmp_path, capsys, text))


def _lenient_decode(payload):
    """Fills the colour list and checks no form beyond strict integers;
    the oracle below adds the canonical form by re-encoding."""
    kind_obj = payload["kind"]
    kind = GraphKind(Family(kind_obj["family"]), certificates.strict_int(kind_obj["n"], "kind n"))
    classes = payload["classes"]
    colour = []
    if sum(map(len, classes)) == 1 << kind.n:
        colour = [-1] * (1 << kind.n)
        for ci, cls in enumerate(classes):
            for v in cls:
                bits = int(v["bits"], 16)
                n = certificates.strict_int(v["n"], "vertex n")
                if n == kind.n and 0 <= bits < len(colour):
                    colour[bits] = ci
    palette_size = certificates.strict_int(payload["palette_size"], "palette_size")
    return colouring.ColouringCertificate(kind, tuple(colour), palette_size)


def oracle_accepts(payload):
    """The slow exact rule: decode leniently, recheck, then re-encode the
    colouring and require the payload to be exactly that encoding."""
    try:
        cert = _lenient_decode(payload)
    except (ValueError, KeyError, TypeError):
        return False
    return colouring.verify_colouring(cert) and (
        json.loads(certificates.dumps(certificates.colouring_payload(cert))) == payload
    )


def verify_accepts(tmp_path, capsys, n, payload):
    """The verdict of `cli.verify` on the canonical envelope of payload;
    a refusal must be exit 1 with one `FAIL:` line."""
    text = certificates.dumps(certificates.envelope("colouring", n, payload))
    code, out, err = verify_text(tmp_path, capsys, text)
    if code != 0:
        assert_one_fail(code, out, err)
    return code == 0


COLOURING_EMITS = [
    ("colour", "--n", "4"),
    ("colour", "--n", "6"),
    ("colour", "--n", "8"),
    ("colour", "--n", "4", "--graph", "psi"),
    ("colour", "--n", "8", "--graph", "psi"),
]


def _variants(value):
    """Values a lax decoder could read as value, or a step away from it."""
    if isinstance(value, str):
        return [value.upper(), "0" + value, "0x" + value, "+" + value, "0_" + value, value[::-1]]
    if type(value) is int:
        return [value - 1, value + 1, float(value), bool(value), str(value)]
    return [None, [], {}, ""]


def _mutate_once(rng, payload):
    """One change at one object or list of the payload, chosen at random."""
    dicts, lists, todo = [], [], [payload]
    while todo:
        node = todo.pop()
        if isinstance(node, dict):
            dicts.append(node)
            todo.extend(node.values())
        elif isinstance(node, list):
            lists.append(node)
            todo.extend(node)
    if rng.random() < 0.5:
        node = rng.choice(dicts)
        key = rng.choice(sorted(node))
        op = rng.choice(["add", "drop", "change"])
        if op == "add":
            node[rng.choice(["note", "Bits", "N"])] = 0
        elif op == "drop":
            del node[key]
        else:
            node[key] = rng.choice(_variants(node[key]))
    else:
        node = rng.choice([x for x in lists if len(x) >= 2])
        i = rng.randrange(len(node) - 1)
        op = rng.choice(["append", "pop", "duplicate", "swap"])
        if op == "append":
            node.append([])
        elif op == "pop":
            node.pop(i)
        elif op == "duplicate":
            node.insert(i, copy.deepcopy(node[i]))
        else:
            node[i], node[i + 1] = node[i + 1], node[i]


def test_decoder_agrees_with_the_re_encoding_oracle(tmp_path, capsys):
    emitted = [(int(argv[2]), json.loads(_emitted(*argv))["payload"]) for argv in COLOURING_EMITS]
    for n, payload in emitted:
        assert oracle_accepts(payload) and verify_accepts(tmp_path, capsys, n, payload)
    for trap in COLOURING_TRAPS:
        env = _trapped(trap)
        payload = env["payload"]
        assert not oracle_accepts(payload), trap
        assert not verify_accepts(tmp_path, capsys, env["n"], payload), trap
    rng = random.Random(22)
    verdicts = []
    for i in range(400):
        n, payload = rng.choice(emitted)
        payload = copy.deepcopy(payload)
        _mutate_once(rng, payload)
        verdicts.append(oracle_accepts(payload))
        assert verify_accepts(tmp_path, capsys, n, payload) == verdicts[-1], (i, payload)
    # swapping whole classes renames the colours, which both accept
    assert 0 < sum(verdicts) < len(verdicts) // 2


def _reversed_keys(x):
    if isinstance(x, dict):
        return {k: _reversed_keys(x[k]) for k in sorted(x, reverse=True)}
    if isinstance(x, list):
        return [_reversed_keys(v) for v in x]
    return x


@pytest.mark.parametrize(
    "argv, key, false",
    [
        (["bound", "--n", "8"], "bound", '"999/1"'),
        (["search", "--n", "8"], "candidates_total", '"257"'),
        (["colour", "--n", "4"], "palette_size", "5"),
        (["colour", "--n", "4", "--graph", "psi"], "palette_size", "5"),
    ],
    ids=["bound8", "search8", "colour4", "psi4"],
)
def test_verify_accepts_only_canonical_bytes(tmp_path, capsys, argv, key, false):
    text = _emitted(*argv)
    code, out, _ = verify_text(tmp_path, capsys, text)
    assert code == 0 and out.startswith("OK")
    env = json.loads(text)
    # a parser that keeps the first of two equal keys reads the false value
    assert text.count(f'"{key}":') == 1
    repeated = text.replace(f'"{key}":', f'"{key}":{false},"{key}":')
    assert json.loads(repeated) == env
    variants = {
        "repeated-key": repeated,
        "indented": json.dumps(env, sort_keys=True, indent=1) + "\n",
        "key-order": json.dumps(_reversed_keys(env), separators=(",", ":")) + "\n",
        "no-trailing-newline": text[:-1],
    }
    for name, variant in variants.items():
        assert json.loads(variant) == env, name
        assert_one_fail(*verify_text(tmp_path, capsys, variant))


def test_verify_rejects_segment_family_without_its_checks(tmp_path, capsys):
    code, out, _ = run_cli(["families", "--n", "8", "--which", "segment"], capsys)
    env = json.loads(out)
    env["payload"]["symdiff"] = env["payload"]["lift"] = None
    assert_one_fail(*verify_text(tmp_path, capsys, certificates.dumps(env)))


def test_verify_rejects_tampered_bound(tmp_path, capsys):
    path = tmp_path / "bound.json"
    run_cli(["bound", "--n", "8", "--out", str(path)], capsys)
    env = json.loads(path.read_text())
    env["payload"]["bound"] = "33"
    path.write_text(certificates.dumps(env))
    code, _, err = run_cli(["verify", str(path)], capsys)
    assert code == 1
    assert "FAIL" in err


def test_verify_refuses_the_placeholder_string_with_one_fail(tmp_path, capsys):
    code, out, _ = run_cli(["bound", "--n", "8"], capsys)
    assert code == 0
    env = json.loads(out)
    env["payload"]["least_eigenvalue"] = "\0"
    assert_one_fail(*verify_text(tmp_path, capsys, json.dumps(env)))


def _search8_with_first_indset(capsys, change):
    code, out, _ = run_cli(["search", "--n", "8"], capsys)
    assert code == 0
    env = json.loads(out)
    change(env["payload"]["certificates"][0])
    return certificates.dumps(env)


def _swap_in_adjacent_word(indset):
    # claim an adjacent pair is independent
    first = int(indset["vertices"][0]["bits"], 16)
    word = next(
        w for w in range(256)
        if is_y_canonical(w, 8) and adjacent_bits(first, w, 8)
    )
    indset["vertices"][1] = certificates.vertex(VertexWord(word, 8))


def test_verify_rejects_tampered_indset(tmp_path, capsys):
    text = _search8_with_first_indset(capsys, _swap_in_adjacent_word)
    assert_one_fail(*verify_text(tmp_path, capsys, text))


def test_verify_rejects_flag_flips_without_structure_damage(tmp_path, capsys):
    for change in (
        lambda c: c.update(eigenspace_member=False),
        lambda c: c.update(contains_base=1),  # true, but not as a JSON boolean
        lambda c: c["base"].update(n=7),
    ):
        text = _search8_with_first_indset(capsys, change)
        assert_one_fail(*verify_text(tmp_path, capsys, text))


def test_verify_reports_several_problems_on_one_line(tmp_path, capsys):
    path = tmp_path / "col.json"
    run_cli(["colour", "--n", "4", "--out", str(path)], capsys)
    env = json.loads(path.read_text())
    env["payload"]["kind"]["n"] = 3  # fails the recheck and the envelope n
    path.write_text(certificates.dumps(env))
    code, _, err = run_cli(["verify", str(path)], capsys)
    assert code == 1
    assert err.count("FAIL:") == 1 and "; " in err


def test_verify_rejects_tampered_colouring(tmp_path, capsys):
    path = tmp_path / "col.json"
    run_cli(["colour", "--n", "4", "--out", str(path)], capsys)
    env = json.loads(path.read_text())
    moved = env["payload"]["classes"][0].pop()
    env["payload"]["classes"][1].append(moved)
    path.write_text(certificates.dumps(env))
    code, _, err = run_cli(["verify", str(path)], capsys)
    assert code == 1


def _out_of_range_class(cls):
    # "10" is "%01x" % 16: canonical hex, but past the 4-bit words
    def change(payload):
        for i, vertex in enumerate(payload["classes"][cls]):
            vertex["bits"] = "%x" % (16 + i)
    return change


def _set_family(family):
    def change(payload):
        payload["kind"]["family"] = family
    return change


@pytest.mark.parametrize("graph", ("omega", "psi"))
@pytest.mark.parametrize(
    "change",
    (_out_of_range_class(-1), _out_of_range_class(0), _set_family("y")),
    ids=("last-class-out-of-range", "first-class-out-of-range", "quotient-kind"),
)
def test_verify_rejects_colourings_the_decoder_passes(tmp_path, capsys, graph, change):
    # an out-of-range class leaves its words at -1 and its colour unused,
    # so only the least used colour tells (the first class keeps the
    # colour count and the largest colour right); the quotient's edges are
    # a subset of the full graph's, so only the kind refusal tells
    env = json.loads(_emitted("colour", "--n", "4", "--graph", graph))
    change(env["payload"])
    assert_one_fail(*verify_text(tmp_path, capsys, certificates.dumps(env)))


def test_verify_rejects_malformed_json(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{\"kind\": \"bound\"}")
    code, _, err = run_cli(["verify", str(p)], capsys)
    assert code == 1
    # nesting deeper than the parser's recursion limit
    p.write_text("[" * 100000)
    code, out, err = run_cli(["verify", str(p)], capsys)
    assert code == 1
    assert out == ""
    assert err.count("FAIL:") == 1 and "Traceback" not in err
    # nesting just under the parser's limit, which a later step may still
    # reach: a payload key whose value nests `depth` lists deep
    run_cli(["bound", "--n", "8", "--out", str(p)], capsys)
    head, tail = p.read_text().split('"payload":{', 1)
    limit = sys.getrecursionlimit()
    for depth in range(limit - 300, limit + 1):
        p.write_text(f'{head}"payload":{{"deep":{"[" * depth}{"]" * depth},{tail}')
        code, out, err = run_cli(["verify", str(p)], capsys)
        assert code == 1, depth
        assert out == ""
        assert err.count("FAIL:") == 1 and "Traceback" not in err, depth


def test_verify_rejects_search_with_added_wall_time(tmp_path, capsys):
    path = tmp_path / "s.json"
    run_cli(["search", "--n", "8", "--out", str(path)], capsys)
    env = json.loads(path.read_text())
    env["payload"]["wall_time"] = 99.0
    path.write_text(certificates.dumps(env))
    code, _, err = run_cli(["verify", str(path)], capsys)
    assert code == 1
    assert "FAIL" in err


def test_search_certificate_bytes_are_reproducible():
    first, second = (run_module(["search", "--n", "8"]) for _ in range(2))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_psi_colouring_16_certificate_bytes_are_pinned(tmp_path, capsys):
    path = tmp_path / "psi16.json"
    code, _, _ = run_cli(["colour", "--n", "16", "--graph", "psi", "--out", str(path)], capsys)
    assert code == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "0bf1dd1052adaca72a46a8fe8fc51d17f892815874605ca813e23b2ababd9191"
    code, out, _ = run_cli(["verify", str(path)], capsys)
    assert code == 0 and out.startswith("OK")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["search", "--n", "4"], "5fd26272d196444b175cfcc4ad495da9e32a586f6965f10a96e99bb093fd6641"),
        (["search", "--n", "8"], "c8692bb79b92e36b6a70ee14d77707db7e491c8a2b26b97be340089608052567"),
        (
            ["search", "--n", "12", "--base", "3c"],
            "6aa08f519b3111e8cb4c4f9dfbdd6a887b16719c699f8a55e2c6af26151ce16c",
        ),
        (
            ["search", "--n", "16", "--base", "44ca"],
            "c21a7738a4cd6da62dc638adfbe2d88200b4eabab6439f8c089ab9cc7d7d0739",
        ),
        (["spectrum", "--n", "8"], "dd0d1376ddb68646a3db2bddc2a166be7095cbd1a8c29a060d96d94c73b3dec3"),
        (["status", "--n", "16"], "8e45a066f8c27d380e70a34739a029f00d02c75bff07fbb6badfc17bb750e0ac"),
        (["spectrum", "--n", "4"], "5587978f7a1aeb937b4d95750a68140e3fd9c9f53b7a5d0d0fb6bccc88ce8a3c"),
        (
            ["families", "--n", "8", "--which", "segment"],
            "c82eef48e018a510625770c554d6b5cece4f7e68f7ad8cde70cabb2e51bb114f",
        ),
        (
            ["families", "--n", "12", "--which", "m2k"],
            "93fcf8416d774bfc43c34ccd2c5c4d0f47e96b2bcea48bda9f6197e8587f44f9",
        ),
        (["status", "--n", "12"], "3fb03a864191b18f7df3249ebeba56612277fe255f038036ce3bb1796e4d28c7"),
        (["colour", "--n", "8"], "b61749a168829b4601ed40c8998b81b9a125f49d9f685f6735ec7a614bb7a47b"),
        (
            ["families", "--n", "16", "--which", "segment"],
            "739bbd4d7f6f986f7d7a61823cffcb8dc2d13a2c5fd1b64f09c8b42cea1d2f91",
        ),
        (
            ["families", "--n", "16", "--which", "odd"],
            "d151e0909259b1c253e6134452cadd2d41ab1e215e6b0d87d13b8a5790a1941a",
        ),
        (
            ["families", "--n", "24", "--which", "odd"],
            "6c21906b76f18169e247d2fe3cca89f5e996e7af491a14909a8c7252a0c96e86",
        ),
        (["colour", "--n", "10"], "7dbf21d210d9bde9deac43f7e8d89ddb27af4ecb8013cad349317f84d231bdb2"),
        (["colour", "--n", "1"], "24a4b430e8af73493b1a751a7da4da3acacf4718ba5982bc9d13431f887b6259"),
        (["colour", "--n", "2"], "a9015039629496bf2a4d0be745dd5901bcd12b75cd0b3a4f01f4193448445236"),
        (["colour", "--n", "4"], "b080950e31714571bcf702867989151bcf1d4db7bb3a9d43610cf52b9809f398"),
        (["colour", "--n", "6"], "f3cf0f9616a8ecee18549357c7964ac98145ee9703fa40c13e76bc54412e82c0"),
        (
            ["colour", "--graph", "psi", "--n", "1"],
            "4b926ee9d66f6cf61633ce1fdf4ea4838a80cf218a895c533bd462c3a7019fb0",
        ),
        (
            ["colour", "--graph", "psi", "--n", "2"],
            "ae02fe64ce1c7159ce0d139c797c0ea98ce1ba85812140aea35b180450f8b902",
        ),
        (
            ["colour", "--graph", "psi", "--n", "4"],
            "7ee18192e5dbc4a3e432afcbc60e36369d82eddab187519af579dabbd19401e9",
        ),
        (
            ["colour", "--graph", "psi", "--n", "8"],
            "9603102bfb3772b1d4e21343f1ede358f5d04bc4a99a8eb470c0e22843503cbc",
        ),
        (["status", "--n", "1"], "9a9229d3b8340aaba68aaa5e1af3a7c1a86a481db7053078fbb7f373a8706c21"),
        (["status", "--n", "2"], "a2601db8dc16be8692b8e8578267b7ab6b7f83d5eb41fb5e62c6322bca9b2f8a"),
        (["status", "--n", "4"], "d720e3c171dae820e432270dec8dc7701e0b662a06ff3c89fb738a7498dffc49"),
        (["status", "--n", "8"], "ddf8656fc00030f7767769b565b4ca3a74102de2d4aea231cf76ba750e79ef01"),
        (["search", "--n", "16"], "ffdd0f96fba270be74d8f0663f5bf7eb741a733cf06664bc8b106555aa071cf8"),
        (["search", "--n", "12"], "a9122ee65df247207cbe79109457085f1fe877ff53ed6bcf5d170212296139b0"),
        (
            ["search", "--n", "8", "--base", "3c"],
            "1014fe2c3ea37a4398a6b430dd717c0f458ad5997c4c385059e935db6f653042",
        ),
        (["status", "--n", "64"], "7da350f492fff8aa87b8348857d0e2fbf2585f0d897ad6cf0d67fd31cb1c35e3"),
        (["spectrum", "--n", "12"], "5e82a4dd50c8f7c1fd1accff08902762597c77811ead8c13d8a1250ca1ebe0ae"),
        (["spectrum", "--n", "16"], "5a3640d7a60d89142d8f2be0193f8be02f822c200d99803a81abcddff4dbc719"),
        (["bound", "--n", "8"], "3213bdd4cd4114612b4972182146c1211ef1de711acd23e85d9e1b93b01dcf80"),
        (["bound", "--n", "12"], "ef379f56d032580f688fe97db497eb93faec91acf6284082b045a583a6288182"),
        (["bound", "--n", "16"], "04696fedc68a52eef4a76ea6db335e5fd7d68a85dfa0c64b60d0524246d03fd4"),
        (["bound", "--n", "64"], "72d472d15eba0739e8d6bd967adc5b74b3979d87da226933b8237fda451e3d67"),
        (
            ["bound", "--n", "4", "--kind", "y"],
            "7a2adc5de6e5aae22d73c0cf55a1185ea5918f3ee1bbed4ff6f4cb1525cfa5f4",
        ),
        (
            ["bound", "--n", "16", "--kind", "y"],
            "97366dbfd07bc42b4ccebac5aa9f6f7ce335fc2257c16f8e94dd3459faf29a56",
        ),
        (
            ["bound", "--n", "64", "--kind", "y"],
            "e314e3fc7188e754a9185a9c39f0905fca05c18e8c7cfd425c1fe17bb7ac15e8",
        ),
    ],
    ids=(
        "search4",
        "search8",
        "search12-3c",
        "search16-44ca",
        "spectrum8",
        "status16",
        "spectrum4",
        "segment8",
        "m2k12",
        "status12",
        "colour8",
        "segment16",
        "odd16",
        "odd24",
        "colour10",
        *("colour1", "colour2", "colour4", "colour6"),
        *("psi1", "psi2", "psi4", "psi8"),
        *("status1", "status2", "status4", "status8"),
        *("search16", "search12", "search8-3c", "status64", "spectrum12", "spectrum16"),
        *("bound8", "bound12", "bound16", "bound64", "bound4-y", "bound16-y", "bound64-y"),
    ),
)
def test_certificate_bytes_are_pinned(tmp_path, capsys, argv, digest):
    path = tmp_path / "cert.json"
    code, _, _ = run_cli(argv + ["--out", str(path)], capsys)
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    code, out, _ = run_cli(["verify", str(path)], capsys)
    assert code == 0 and out.startswith("OK")


# placeholder swapped for raw JSON text, since json.dumps cannot write 1e400
RAW = "@raw@"


@pytest.mark.parametrize(
    "argv, path, raw",
    [
        (["bound", "--n", "8"], ("n",), "1e400"),
        (["search", "--n", "8"], ("payload", "base", "n"), "1e400"),
        (["colour", "--n", "4"], ("payload", "kind", "n"), "1e400"),
        (["colour", "--n", "4"], ("payload", "classes", 0, 0, "n"), "1e400"),
        (["bound", "--n", "8"], ("n",), "true"),
        (["bound", "--n", "8"], ("n",), "8.5"),
        (["bound", "--n", "8"], ("n",), '"8"'),
        (["bound", "--n", "8"], ("schema_version",), "true"),
        (["colour", "--n", "4"], ("payload", "palette_size"), "4.0"),
        (["bound", "--n", "8"], ("n",), "12"),
        (["psi", "--k", "3"], ("n",), "64"),
        (["families", "--n", "12", "--which", "m2k"], ("payload", "factor"), "3.0"),
        (["psi", "--k", "3"], ("payload", "rows", 0, "n"), "2.0"),
        (["families", "--n", "8", "--which", "m2k"], ("n",), "1" + "0" * 300),
        # at n = 1, True == 1, and the kind and palette size written back are true
        (["colour", "--n", "1"], ("payload", "kind", "n"), "true"),
        (["colour", "--n", "1"], ("payload", "palette_size"), "true"),
    ],
    ids=[
        "envelope-n-huge-float",
        "search-base-n-huge-float",
        "colouring-kind-n-huge-float",
        "colouring-vertex-n-huge-float",
        "envelope-n-true",
        "envelope-n-fraction",
        "envelope-n-string",
        "schema-version-true",
        "palette-size-float",
        "bound-relabelled-n12",
        "psi-table-relabelled-n64",
        "family-factor-float",
        "psi-row-n-float",
        "m2k-envelope-n-huge-int",
        "kind-n-true",
        "palette-size-true",
    ],
)
def test_verify_decodes_integers_strictly(tmp_path, capsys, argv, path, raw):
    cert = tmp_path / "cert.json"
    run_cli(argv + ["--out", str(cert)], capsys)
    env = json.loads(cert.read_text())
    node = env
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = RAW
    cert.write_text(certificates.dumps(env).replace(json.dumps(RAW), raw))
    code, out, err = run_cli(["verify", str(cert)], capsys)
    assert code == 1
    assert out == ""
    assert err.count("FAIL:") == 1 and "Traceback" not in err


# --- exit codes ---------------------------------------------------------------

def test_usage_errors_exit_2():
    for argv in (
        ["bound", "--n", "7"],
        ["bound"],
        ["nosuch"],
        ["verify", "/nonexistent/path.json"],
        ["colour", "--n", "3", "--graph", "psi"],
        ["spectrum", "--n", "20"],
        ["search", "--n", "8", "--jobs", "2"],
        ["search", "--n", "8", "--base", "1ff"],
        ["search", "--n", "8", "--base", "-2"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 2, argv


def test_console_entry_point():
    proc = run_module([])
    assert proc.returncode == 2  # no subcommand is a usage error

    proc = run_module(["bound", "--n", "8"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["bound"] == "32"


def test_programmatic_verify_helper(tmp_path, capsys):
    path = tmp_path / "b.json"
    run_cli(["bound", "--n", "8", "--out", str(path)], capsys)
    assert cli.verify(str(path)) == 0
