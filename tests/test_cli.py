import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from stmodcat.cli import main, run_session

ROOT = Path(__file__).resolve().parents[1]
SESSIONS = ROOT / "sessions"


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "stmodcat.cli", *args],
        capture_output=True, text=True, cwd=ROOT)
    return proc


def test_c3_session_reports_minus_one():
    proc = run_cli([str(SESSIONS / "c3_negative.toda")])
    assert proc.returncode == 0
    assert "{(2)}" in proc.stdout
    assert proc.stdout.count("{(2)}") == 3  # cc, fc, ff agree


def test_shipped_adams_session_values():
    proc = run_cli([str(SESSIONS / "prop_a1.toda")])
    assert proc.returncode == 0
    out = proc.stdout
    assert "d_2[kappa]: {(1,1)}" in out
    assert "chain_proper=True" in out
    assert "NOT sparse" in out
    assert "[0 mu(1); mu(x^2) mu(x)]" in out


def test_json_round_trip():
    plain = run_cli([str(SESSIONS / "c3_negative.toda")])
    as_json = run_cli([str(SESSIONS / "c3_negative.toda"), "--json"])
    doc = json.loads(as_json.stdout)
    assert doc["ring"] == {"p": 3, "m": 3}
    brackets = [r for r in doc["results"] if r["command"] == "bracket"]
    assert len(brackets) == 3
    for b in brackets:
        assert b["elements"] == [[2]]
        assert b["indeterminacy_rank"] == 0
    # the table output carries the same element data
    assert plain.stdout.count("{(2)}") == len(brackets)


def test_determinism():
    a = run_cli([str(SESSIONS / "prop_a1.toda"), "--json"])
    b = run_cli([str(SESSIONS / "prop_a1.toda"), "--json"])
    assert a.stdout == b.stdout


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.toda"
    bad.write_text("ring p=2 m=4\nmodule M = [9]\n")
    proc = run_cli([str(bad)])
    assert proc.returncode == 2
    assert "line 2" in proc.stderr


def test_unknown_name_exit_code(tmp_path):
    bad = tmp_path / "bad.toda"
    bad.write_text("ring p=2 m=4\nmodule M = [2]\nsthom M Q\n")
    proc = run_cli([str(bad)])
    assert proc.returncode == 2


def test_non_r_linear_matrix_rejected(tmp_path):
    bad = tmp_path / "bad.toda"
    bad.write_text(
        "ring p=2 m=4\nmodule M = [2]\nmodule k = [1]\n"
        "map f: M -> M = matrix [[0,1],[0,0]]\n")
    proc = run_cli([str(bad)])
    assert proc.returncode == 2


def test_engine_error_exit_code(tmp_path):
    bad = tmp_path / "bad.toda"
    bad.write_text(
        "ring p=3 m=3\nmodule M = [2]\nmodule k = [1]\n"
        "map f1: M -> k = mu(1)\nmap f2: k -> M = mu(x)\n"
        "map f3: M -> k = mu(1)\n"
        "bracket fc f3 f2 f1\n")
    proc = run_cli([str(bad), "--max-enumerate", "0"])
    assert proc.returncode == 1


def test_dr_past_resolution_length_is_an_engine_error(tmp_path):
    # d_2 of a class in E_1^{0,*} pushes out along p_2, which a length-2
    # resolution does not have
    decls = (SESSIONS / "prop_a1.toda").read_text().split("\nsthom")[0]
    short = tmp_path / "short.toda"
    short.write_text(decls + "\nadams M gen=k len=2\ndr kappa 2\n")
    lineno = short.read_text().splitlines().index("dr kappa 2") + 1
    proc = run_cli([str(short)])
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: line {lineno}: dr kappa 2: ")
    assert "Traceback" not in proc.stderr


def test_overflow_reports_offending_command(tmp_path):
    bad = tmp_path / "big.toda"
    bad.write_text(
        "ring p=3 m=3\nmodule M = [2]\nmodule k = [1]\n"
        "map f1: M -> k = mu(1)\nmap f2: k -> M = mu(x)\n"
        "map f3: M -> k = mu(1)\n"
        "bracket fc f3 f2 f1\n")
    proc = run_cli([str(bad), "--max-enumerate", "0"])
    assert "bracket fc f3 f2 f1" in proc.stderr


def test_matrix_module_and_map(tmp_path):
    f = tmp_path / "m.toda"
    f.write_text(
        "ring p=2 m=4\n"
        "module N = matrix [[0,0],[1,0]]\n"
        "module k = [1]\n"
        "map g: k -> N = matrix [[0],[1]]\n"
        "cone g\n")
    proc = run_cli([str(f)])
    assert proc.returncode == 0
    assert "cone g" in proc.stdout


def test_heller_and_sparse_commands(tmp_path):
    f = tmp_path / "h.toda"
    f.write_text(
        "ring p=3 m=3\n"
        "module k = [1]\n"
        "module M = [2]\n"
        "map f: k -> M = mu(x)\n"
        "map g: M -> k = mu(1)\n"
        "map h: k -> M = mu(x)\n"
        "heller f g h\n"
        "sparse k 2 3\n")
    proc = run_cli([str(f)])
    assert proc.returncode == 0
    assert "distinguished" in proc.stdout
    assert "NOT sparse" in proc.stdout


def test_nbracket_command(tmp_path):
    f = tmp_path / "n.toda"
    f.write_text(
        "ring p=3 m=3\n"
        "module k = [1]\nmodule M = [2]\n"
        "map f1: M -> k = mu(1)\nmap f2: k -> M = mu(x)\n"
        "map f3: M -> k = mu(1)\nmap f4: k -> M = mu(x)\n"
        "nbracket [0,0] f4 f3 f2 f1\n"
        "nbracket [0,1] f4 f3 f2 f1\n")
    proc = run_cli([str(f)])
    assert proc.returncode == 0
    assert proc.stdout.count("empty") == 2  # genuinely empty on this data


def test_run_session_api(tmp_path):
    out = io.StringIO()
    code = run_session(str(SESSIONS / "c3_negative.toda"), stream=out)
    assert code == 0
    assert "{(2)}" in out.getvalue()
