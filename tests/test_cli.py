"""Command-line behaviour: canonical output, verification, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ortho_lab
from ortho_lab import certificates, cli, colouring, search
from ortho_lab.graphs import VertexWord, y_quotient


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


def test_envelope_shape():
    env = certificates.envelope("search", 8, {})
    assert env["schema_version"] == 2
    assert env["produced_by"].startswith("ortho-lab ")
    with pytest.raises(ValueError):
        certificates.envelope("nonsense", 8, {})


def test_vertex_encoding_uses_fixed_width_hex():
    assert certificates.vertex(VertexWord(10, 8)) == {"bits": "0a", "n": 8}
    assert certificates.vertex(VertexWord(5, 12)) == {"bits": "005", "n": 12}
    v = certificates.decode_vertex({"bits": "0a", "n": 8})
    assert v == VertexWord(10, 8)


def test_validate_envelope_rejects_malformed_objects():
    with pytest.raises(ValueError):
        certificates.validate_envelope([])
    with pytest.raises(ValueError):
        certificates.validate_envelope({"kind": "bound"})
    good = certificates.envelope("bound", 8, {})
    bad = dict(good, schema_version=1)
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
    for i, argv in enumerate(cases):
        path = tmp_path / f"cert{i}.json"
        code, _, _ = run_cli(argv + ["--out", str(path)], capsys)
        assert code == 0
        code, out, err = run_cli(["verify", str(path)], capsys)
        assert code == 0, (argv, err)
        assert out.startswith("OK")


def test_verify_standalone_indset_and_clique(tmp_path, capsys):
    cert = search.certify_indset(y_quotient(8), [0, 126])
    env = certificates.envelope(
        "indset", 8, certificates.indset_payload(cert, VertexWord(0, 8))
    )
    p = tmp_path / "indset.json"
    p.write_text(certificates.dumps(env))
    code, out, _ = run_cli(["verify", str(p)], capsys)
    assert code == 0

    clique = colouring.sylvester_clique(3)
    env = certificates.envelope("clique", 8, certificates.clique_payload(clique))
    p2 = tmp_path / "clique.json"
    p2.write_text(certificates.dumps(env))
    code, out, _ = run_cli(["verify", str(p2)], capsys)
    assert code == 0


def test_verify_rejects_tampered_bound(tmp_path, capsys):
    path = tmp_path / "bound.json"
    run_cli(["bound", "--n", "8", "--out", str(path)], capsys)
    env = json.loads(path.read_text())
    env["payload"]["bound"] = "33"
    path.write_text(certificates.dumps(env))
    code, _, err = run_cli(["verify", str(path)], capsys)
    assert code == 1
    assert "FAIL" in err


def test_verify_rejects_tampered_indset(tmp_path, capsys):
    # claim an adjacent pair is independent
    env = certificates.envelope(
        "indset",
        8,
        {
            "kind": {"family": "y", "n": 8},
            "base": {"bits": "00", "n": 8},
            "vertices": [{"bits": "00", "n": 8}, {"bits": "f0", "n": 8}],
            "size": "2",
            "contains_base": True,
            "meets_ratio_bound": False,
            "eigenspace_member": False,
        },
    )
    p = tmp_path / "bad.json"
    p.write_text(certificates.dumps(env))
    code, _, err = run_cli(["verify", str(p)], capsys)
    assert code == 1
    assert "independent" in err


def test_verify_rejects_tampered_colouring(tmp_path, capsys):
    path = tmp_path / "col.json"
    run_cli(["colour", "--n", "4", "--out", str(path)], capsys)
    env = json.loads(path.read_text())
    moved = env["payload"]["classes"][0].pop()
    env["payload"]["classes"][1].append(moved)
    path.write_text(certificates.dumps(env))
    code, _, err = run_cli(["verify", str(path)], capsys)
    assert code == 1


def test_verify_rejects_flag_flips_without_structure_damage(tmp_path, capsys):
    cert = search.certify_indset(y_quotient(8), [0, 126])
    for field, value in (
        ("eigenspace_member", True),  # a two-set is nowhere near tight
        ("contains_base", 1),  # true, but not as a JSON boolean
    ):
        payload = certificates.indset_payload(cert, VertexWord(0, 8))
        payload[field] = value
        env = certificates.envelope("indset", 8, payload)
        p = tmp_path / "flip.json"
        p.write_text(certificates.dumps(env))
        code, _, err = run_cli(["verify", str(p)], capsys)
        assert code == 1, field


def test_verify_rejects_malformed_json(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{\"kind\": \"bound\"}")
    code, _, err = run_cli(["verify", str(p)], capsys)
    assert code == 1


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
