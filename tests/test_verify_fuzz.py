"""Fuzzing ``verify``: every mutation of an emitted n = 4, 6 or 8
certificate gives exit 1, one ``FAIL:`` line and no traceback.

Every command's certificate is in the corpus.  ``verify`` requires the
file to be, byte for byte, the canonical text of the certificate it
re-derives (a derivable one re-run through the emitting command's
producer, a colouring decoded, rechecked and re-encoded), and a
colouring must cover every vertex exactly once, so no single mutation
turns one true certificate into another, and no change of form (a
repeated key, added whitespace) passes even where the parsed JSON is
unchanged.  The envelope ``n`` is
only ever set to a negative, zero, odd or at-least-2^63 value, so no
mutation reaches the n = 16 search or a large family.  Examples are
derandomized and bounded, so the run is the same every time.
"""

import contextlib
import copy
import functools
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ortho_lab import certificates, cli

EMIT = [
    ["bound", "--n", "4"],
    ["bound", "--n", "8", "--kind", "y"],
    ["spectrum", "--n", "4"],
    ["spectrum", "--n", "8"],
    ["search", "--n", "4"],
    ["search", "--n", "8"],
    ["colour", "--n", "4"],
    ["colour", "--n", "6"],
    ["colour", "--n", "8"],
    ["colour", "--n", "4", "--graph", "psi"],
    ["colour", "--n", "8", "--graph", "psi"],
    ["families", "--n", "8", "--which", "segment"],
    ["families", "--n", "8", "--which", "odd"],
    ["families", "--n", "8", "--which", "m2k"],
    ["psi", "--k", "2"],
    ["psi", "--k", "3"],
    ["status", "--n", "4"],
    ["status", "--n", "8"],
]

HEX = "0123456789abcdef"
RAW = "@raw@"  # placeholder for JSON text that json.dumps cannot write


@functools.cache
def emitted() -> tuple[str, ...]:
    texts = []
    for argv in EMIT:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.run(argv) == 0
        texts.append(out.getvalue())
    return tuple(texts)


def _walk(node, path=()):
    yield path, node
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _walk(node[key], path + (key,))
    elif isinstance(node, list):
        for i, x in enumerate(node):
            yield from _walk(x, path + (i,))


def _get(env, path):
    for key in path:
        env = env[key]
    return env


def _set(env, path, value):
    _get(env, path[:-1])[path[-1]] = value


def _is_vertex(x):
    return isinstance(x, dict) and set(x) == {"bits", "n"}


def _is_vertex_list(x):
    return isinstance(x, list) and bool(x) and all(map(_is_vertex, x))


def _is_count(x):
    return type(x) is int or (isinstance(x, str) and re.fullmatch(r"-?\d+", x) is not None)


def _is_scalar(x):
    return not isinstance(x, (dict, list))


def _is_container(x):
    return isinstance(x, (dict, list))


def _payload_sites(env, pred):
    return [("payload",) + p for p, x in _walk(env["payload"]) if pred(x)]


def _retyped(x):
    """Values of another JSON type that a lax decoder could mistake for x."""
    if isinstance(x, bool):
        return [int(x), str(x).lower(), None]
    if isinstance(x, int):
        return [float(x), str(x), [x]]
    if isinstance(x, str):
        return ([int(x)] if _is_count(x) else []) + [[x], None]
    return [0, "null", False]  # None


# -- mutations: each takes (data, env) and returns the mutated file, text or bytes

def flip_hex_digit(data, env):
    path = data.draw(st.sampled_from(_payload_sites(env, _is_vertex)))
    vertex = _get(env, path)
    bits = vertex["bits"]
    i = data.draw(st.integers(0, len(bits) - 1))
    digit = data.draw(st.sampled_from([h for h in HEX if h != bits[i]]))
    vertex["bits"] = bits[:i] + digit + bits[i + 1 :]
    return certificates.dumps(env)


def drop_or_duplicate_vertex(data, env):
    members = _get(env, data.draw(st.sampled_from(_payload_sites(env, _is_vertex_list))))
    i = data.draw(st.integers(0, len(members) - 1))
    if data.draw(st.booleans()):
        del members[i]
    else:
        members.insert(i, copy.deepcopy(members[i]))
    return certificates.dumps(env)


def change_a_count(data, env):
    path = data.draw(st.sampled_from(_payload_sites(env, _is_count)))
    value = _get(env, path)
    changed = int(value) + data.draw(st.sampled_from([-1, 1]))
    _set(env, path, str(changed) if isinstance(value, str) else changed)
    return certificates.dumps(env)


def change_a_type(data, env):
    path = data.draw(st.sampled_from(_payload_sites(env, _is_scalar)))
    _set(env, path, data.draw(st.sampled_from(_retyped(_get(env, path)))))
    return certificates.dumps(env)


def add_key_or_empty_list(data, env):
    node = _get(env, data.draw(st.sampled_from(_payload_sites(env, _is_container))))
    if isinstance(node, list):
        node.append([])
    else:
        key = data.draw(st.sampled_from([k for k in ("note", "Bits", "N", "n") if k not in node]))
        node[key] = data.draw(st.sampled_from([0, "", None, [], {}]))
    return certificates.dumps(env)


ENVELOPE_N = st.one_of(
    st.integers(max_value=0).map(str),
    st.integers(min_value=0, max_value=2**70).map(lambda k: str(2 * k + 1)),
    st.integers(min_value=2**63).map(str),
    st.sampled_from(["1" + "0" * 300, "-8.0", "0.0", "7.0", "1e19", "1e400", "-1e400"]),
)


def set_envelope_n(data, env):
    env["n"] = RAW
    return certificates.dumps(env).replace(json.dumps(RAW), data.draw(ENVELOPE_N))


def add_or_edit_envelope_key(data, env):
    if data.draw(st.booleans()):
        key = data.draw(st.sampled_from(["verdict", "note", "wall_time", "Payload"]))
        env[key] = data.draw(st.sampled_from(["chromatic number 3", 99.0, None, {}]))
    else:
        env["produced_by"] = data.draw(
            st.sampled_from(["ortho-lab 9.9.9", "ortho-lab 0.1", "", None, ["ortho-lab 0.1.0"]])
        )
    return certificates.dumps(env)


def truncate(data, env):
    text = certificates.dumps(env)
    # dropping only the trailing newline leaves the same JSON
    return text[: data.draw(st.integers(0, len(text) - 1))]


def repeat_a_key_or_add_whitespace(data, env):
    """A change of form alone: one key of a random object repeated with a
    changed value in front of it (a parser that keeps the last value reads
    the certificate unchanged), or JSON whitespace after a ',' or ':'."""
    if data.draw(st.booleans()):
        node = _get(env, data.draw(st.sampled_from([p for p, x in _walk(env) if isinstance(x, dict)])))
        key = data.draw(st.sampled_from(sorted(node)))
        value = node[key]
        changed = data.draw(st.sampled_from(_retyped(value) if _is_scalar(value) else [None, [], {}]))
        node[key] = RAW
        canonical = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
        entry = f"{canonical(key)}:"
        return certificates.dumps(env).replace(
            entry + canonical(RAW), entry + canonical(changed) + "," + entry + canonical(value)
        )
    text = certificates.dumps(env)
    i = data.draw(st.sampled_from([i for i, c in enumerate(text) if c in ",:"]))
    return text[: i + 1] + data.draw(st.sampled_from([" ", "\t", "\n", "\r"])) + text[i + 1 :]


def overwrite_a_byte(data, env):
    # certificates are ASCII, so one byte in 0x80-0xff is never UTF-8
    raw = bytearray(certificates.dumps(env).encode("utf-8"))
    raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0x80, 0xFF))
    return bytes(raw)


SITES = {
    flip_hex_digit: _is_vertex,
    drop_or_duplicate_vertex: _is_vertex_list,
    change_a_count: _is_count,
    change_a_type: _is_scalar,
    add_key_or_empty_list: _is_container,
    set_envelope_n: None,
    add_or_edit_envelope_key: None,
    truncate: None,
    overwrite_a_byte: None,
    repeat_a_key_or_add_whitespace: None,
}


@pytest.fixture(scope="module")
def cert_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cert.json"


def run_verify(path, text):
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(["verify", str(path)])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_emitted_certificates_verify(cert_path):
    for text in emitted():
        code, out, err = run_verify(cert_path, text)
        assert code == 0, err
        assert out.startswith("OK")


@pytest.mark.parametrize("mutate", list(SITES), ids=lambda f: f.__name__)
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_every_mutation_fails_verification(cert_path, mutate, data):
    pred = SITES[mutate]
    envs = [json.loads(t) for t in emitted()]
    usable = [e for e in envs if pred is None or _payload_sites(e, pred)]
    env = data.draw(st.sampled_from(usable))
    text = mutate(data, env)
    code, out, err = run_verify(cert_path, text)
    assert code == 1, (text[:300], err)
    assert out == ""
    assert err.count("FAIL:") == 1 and "Traceback" not in err, err
