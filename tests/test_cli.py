import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stmodcat.cli import main, mu_label, parse_session, run_session
from stmodcat.linalg import FpMatrix
from stmodcat.modrep import RMap, Ring, hom_basis, module_from_partition, partition_layout

ROOT = Path(__file__).resolve().parents[1]
SESSIONS = ROOT / "sessions"
# the CLI subprocess imports this checkout's engine, as the tests do
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "stmodcat.cli", *args],
        capture_output=True, text=True, cwd=ROOT, env=CLI_ENV)
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


def test_seed_flag_is_rejected():
    # the command set is deterministic, so there is no --seed
    with pytest.raises(SystemExit) as exc:
        main([str(SESSIONS / "c3_negative.toda"), "--seed", "1"])
    assert exc.value.code == 2


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


def test_a_2_fold_bracket_under_cap_0_is_refused(tmp_path):
    # --max-enumerate 0 refuses every enumeration, the one element of <g, f> too
    f = tmp_path / "two.toda"
    f.write_text("ring p=2 m=3\nmodule k = [1]\nmodule M = [2]\n"
                 "map f: k -> M = mu(x)\nmap g: M -> k = mu(1)\nnbracket g f\n")
    assert run_cli([str(f)]).returncode == 0
    proc = run_cli([str(f), "--max-enumerate", "0"])
    assert proc.returncode == 1
    assert "nbracket g f" in proc.stderr and "1 bracket branches exceed cap 0" in proc.stderr


def test_negative_cap_is_a_validation_error():
    # 0 stays a valid cap (it forces an overflow); below 0 is refused up front
    proc = run_cli([str(SESSIONS / "prop_a1.toda"), "--max-enumerate=-1"])
    assert proc.returncode == 2
    assert proc.stderr == "error: --max-enumerate -1 is below 0\n"
    assert proc.stdout == ""


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


@pytest.mark.parametrize("as_json", [False, True], ids=["txt", "json"])
@pytest.mark.parametrize("name", ["c3_negative", "prop_a1"])
def test_shipped_session_output_is_golden(name, as_json):
    # tests/golden holds each shipped session's output, text and --json;
    # a difference is a change in a computed set or in the report format
    out = io.StringIO()
    assert run_session(str(SESSIONS / f"{name}.toda"), as_json=as_json, stream=out) == 0
    golden = ROOT / "tests" / "golden" / f"{name}.{'json' if as_json else 'txt'}"
    assert out.getvalue().encode() == golden.read_bytes()


def test_shipped_sessions_stay_golden_warm_and_after_clearing_the_caches():
    # both sessions twice in one process from empty caches, then once more
    # after every memo cache is emptied: the reads cached by earlier commands
    # (and runs) must not change any output.  The second pass reads every
    # d_r class, its bracket forms and the page rows from the first's
    import stmodcat

    stmodcat.clear_caches()

    def run_all():
        for name in ("c3_negative", "prop_a1"):
            for as_json in (False, True):
                out = io.StringIO()
                assert run_session(str(SESSIONS / f"{name}.toda"), as_json=as_json,
                                   stream=out) == 0
                golden = ROOT / "tests" / "golden" / f"{name}.{'json' if as_json else 'txt'}"
                assert out.getvalue().encode() == golden.read_bytes(), (name, as_json)

    run_all()
    cold = stmodcat.cache_stats()
    run_all()
    warm = stmodcat.cache_stats()
    for name in ("adams._dr_read", "adams._forms_read", "adams._zr_rows", "adams._br_rows"):
        assert warm[name].misses == cold[name].misses, name
        assert warm[name].hits > cold[name].hits, name
    stmodcat.clear_caches()
    assert not any(info.size or info.hits or info.misses
                   for info in stmodcat.cache_stats().values())
    run_all()


@pytest.mark.parametrize("commands", [
    ["sthom k"], ["cone"], ["adams M gen=k len=2", "dr kappa"], ["adams k len=2"],
    ["bracket fc f f"], ["heller f f"], ["sparse k 0 2"],
    ["adams M gen=k len=2", "page x"], ["sparse k x 2"], ["adams k gen=k len=x"],
    ["nbracket [0, f f f"], ["sthom k M extra"],
    ["map g: k -> M = mu(x)", "bracket xx f g f"], ["nbracket [0] f"],
    ["map g: k -> M = mu(x)", "nbracket [5] f g f"], ["ring p=3 m=3"],
])
def test_malformed_command_is_a_parse_error(tmp_path, capsys, commands):
    lines = ["ring p=2 m=4", "module k = [1]", "module M = [2]", "module P = [1,3]",
             "map f: M -> k = mu(1)", "map kappa: P -> M = blocks [[mu(x), 0]]"]
    lines += commands
    bad = tmp_path / "bad.toda"
    bad.write_text("\n".join(lines) + "\n")
    assert run_session(str(bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {len(lines)}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("line", [
    "module X = matrix [[2.9]]",                # float entry
    "module X = matrix [[false]]",              # bool entry
    'module X = matrix [["0"]]',                # numeric string entry
    "module X = [1.0]",                         # float part
    "module X = [true]",                        # bool part
    'module X = ["1"]',                         # numeric string part
    "map g: k -> k = matrix [[1.5]]",           # float map entry
    "nbracket [0.0] f f f",                     # float reduction index
    "nbracket [false] f f f",                   # bool reduction index
])
def test_non_integer_literals_are_parse_errors(tmp_path, capsys, line):
    lines = ["ring p=2 m=4", "module k = [1]", "module M = [2]",
             "map f: M -> k = mu(1)", line]
    bad = tmp_path / "bad.toda"
    bad.write_text("\n".join(lines) + "\n")
    assert run_session(str(bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {len(lines)}: ")
    assert "Traceback" not in err


def test_non_nilpotent_matrix_module_is_refused(tmp_path, capsys):
    bad = tmp_path / "bad.toda"
    bad.write_text("ring p=2 m=3\nmodule X = matrix [[0,1],[1,0]]\n")
    assert run_session(str(bad)) == 2
    assert capsys.readouterr().err.startswith("error: line 2: ")


def test_modulus_beyond_the_int64_bound_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.toda"
    bad.write_text("ring p=4294967291 m=2\nmodule k = [1]\n")
    assert run_session(str(bad)) == 2
    assert capsys.readouterr().err.startswith("error: line 1: ")


_SESSION = ["ring p=3 m=3", "module k = [1]", "module M = [2]",
            "map f: M -> k = mu(1)", "adams M gen=k len=3", "page 1"]


@pytest.mark.parametrize("lineno,line", [
    (1, "ring p=1_1 m=2"),                    # digit-group underscore
    (1, "ring p=+3 m=3"),                     # leading plus sign
    (1, "ring p=3 m=03"),                     # leading zero
    (5, "adams M gen=k len=0_2"),             # underscore in an operand
    (6, "page 0_1"),                          # underscore in an operand
    (6, "page ٢"),                       # non-ASCII digit operand
    (4, "map f: M -> k = ٢*mu(1)"),      # non-ASCII mu coefficient
    (4, "map f: k -> M = mu(x^١)"),      # non-ASCII mu power
])
def test_integer_tokens_follow_the_json_grammar(tmp_path, capsys, lineno, line):
    lines = list(_SESSION)
    lines[lineno - 1] = line
    bad = tmp_path / "bad.toda"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run_session(str(bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {lineno}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("line, got", [
    ("ring p=2 m=4 junk extra", 4),           # operands with no '='
    ("ring p=2 m=4 junk", 3),
    ("ring p=2 p=3 m=4", 3),                  # a repeated key
])
def test_stray_ring_operands_are_refused(tmp_path, capsys, line, got):
    lines = [line] + _SESSION[1:]
    bad = tmp_path / "bad.toda"
    bad.write_text("\n".join(lines) + "\n")
    assert run_session(str(bad)) == 2
    assert capsys.readouterr().err == (
        f"error: line 1: ring takes 2 operands p=<prime> m=<int>, got {got}\n")


def test_mu_terms_read_coefficient_and_power(tmp_path, capsys):
    f = tmp_path / "mu.toda"
    f.write_text("ring p=3 m=3\nmodule k = [1]\nmodule M = [3]\n"
                 "map f: k -> M = 2*mu(x^2)\nmap g: M -> k = -1*mu(1)\nsthom k M\n")
    assert run_session(str(f)) == 0
    maps = parse_session(str(f)).maps
    assert maps["f"].A.a.tolist() == [[0], [0], [2]]
    assert maps["g"].A.a.tolist() == [[2, 0, 0]]  # -1 is 2 mod 3


def _scan_block(sub: np.ndarray, p: int) -> str:
    """One block of a map between canonical blocks in mu terms, read by
    scanning its diagonals; "?" when they are not constant."""
    b, a = sub.shape
    terms = []
    for j in range(max(a, b) + 1):
        diag = [sub[i + j, i] for i in range(a) if i + j < b]
        if not diag:
            continue
        c = diag[0]
        if any(d != c for d in diag):
            return "?"
        if c:
            base = "mu(1)" if j == 0 else "mu(x)" if j == 1 else f"mu(x^{j})"
            terms.append(base if c == 1 else f"{c}*{base}")
    # entries off the mu diagonals (above the main one) must vanish
    if (np.triu(sub, 1) % p).any():
        return "?"
    return "+".join(terms) if terms else "0"


def _scanned_label(f: RMap) -> str:
    """The label of f read block by block off its matrix: the reference
    for `mu_label`, which reads hom coordinates instead."""
    sparts, tparts = partition_layout(f.src), partition_layout(f.tgt)
    rows, roff = [], 0
    for bt in tparts:
        cols, coff = [], 0
        for bs in sparts:
            cols.append(_scan_block(f.A.a[roff:roff + bt, coff:coff + bs], f.src.ring.p))
            coff += bs
        rows.append(cols)
        roff += bt
    if len(rows) == 1 and len(rows[0]) == 1:
        return rows[0][0]
    return "[" + "; ".join(" ".join(r) for r in rows) + "]"


@st.composite
def canonical_hom_draws(draw):
    """(ring, source parts, target parts, coefficients on the hom basis)."""
    ring = Ring(draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 6)))
    parts = st.lists(st.integers(1, ring.m), max_size=4)
    sparts, tparts = draw(parts), draw(parts)
    h = sum(min(a, b) for a in sparts for b in tparts)
    return ring, sparts, tparts, draw(st.lists(st.integers(0, ring.p - 1),
                                               min_size=h, max_size=h))


@given(canonical_hom_draws())
@example((Ring(3, 3), [], [2, 1], []))
@example((Ring(2, 4), [3], [], []))
@example((Ring(2, 2), [], [], []))
@example((Ring(5, 3), [3], [3], [4, 2, 3]))
@example((Ring(5, 4), [2, 1], [3], [2, 0, 3]))
@example((Ring(3, 5), [4, 2], [1, 5], [2, 1, 0, 1, 2, 2, 0, 2]))
@settings(max_examples=200, deadline=None)
def test_mu_label_is_the_diagonal_scan(draw):
    # labels read off hom coordinates over the block list must be the strings
    # the diagonal scan gave, including zero blocks on either side
    ring, sparts, tparts, coeffs = draw
    M, N = module_from_partition(ring, sparts), module_from_partition(ring, tparts)
    H = hom_basis(M, N)
    A = np.tensordot(np.array(coeffs, dtype=np.int64), H, axes=1)
    f = RMap(M, N, FpMatrix(ring.p, A))
    assert mu_label(f) == _scanned_label(f)


def test_adams_length_one_is_a_parse_error(tmp_path, capsys):
    # the command prints d_1, which a one-stage resolution does not have
    bad = tmp_path / "bad.toda"
    bad.write_text("ring p=2 m=4\nmodule k = [1]\nmodule M = [2]\nadams M gen=k len=1\n")
    assert run_session(str(bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 4: len must be at least 2")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# the exit-code contract on drawn sessions


# tokens a mutation may put in place of any other: names, small integers,
# near-miss literals and keywords, so a mutant stays cheap to run
_MUTANT_TOKENS = ["0", "1", "2", "3", "-1", "01", "1_0", "x", "A", "B", "k", "f1",
                  "f4", "len=1", "len=0", "gen=k", "gen=Q", "[1]", "[]", "[0,1]",
                  "[[1]]", "mu(1)", "mu(x)", "2*mu(x^2)", "matrix", "blocks", "=",
                  "->", ":", "cc", "fc", "ff", "[1,0]", "page", "ring", ""]


@st.composite
def session_texts(draw):
    """A session over a composable chain A -> B -> C -> D of single-block
    mu maps and a class x: P -> A, an adams command and a drawn list of
    commands covering every command, with at most one token of one line
    replaced by a drawn token."""
    p, m = draw(st.sampled_from([2, 3])), draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, m), min_size=4, max_size=4))
    lines = [f"ring p={p} m={m}", "module k = [1]", f"module P = [{m - 1},1]"]
    lines += [f"module {n} = [{a}]" for n, a in zip("ABCD", sizes)]
    for i in range(3):
        a, b = sizes[i], sizes[i + 1]
        j, c = draw(st.integers(max(0, b - a), b)), draw(st.integers(1, p - 1))
        lines.append(f"map f{i + 1}: {'ABCD'[i]} -> {'ABCD'[i + 1]} = {c}*mu(x^{j})")
    j = draw(st.integers(max(0, sizes[0] - m + 1), sizes[0]))
    lines.append(f"map x: P -> A = blocks [[mu(x^{j}), 0]]")
    obj, fmap = st.sampled_from("ABCDk"), st.sampled_from(["f1", "f2", "f3"])
    r = st.integers(1, 3)
    commands = st.one_of(
        st.tuples(st.just("sthom"), obj, obj),
        st.tuples(st.sampled_from(["cone", "fiber"]), fmap),
        st.tuples(st.just("bracket"), st.sampled_from(["cc", "fc", "ff"]),
                  st.just("f3 f2 f1")),
        st.tuples(st.just("nbracket"), st.sampled_from(["", "[0]", "[1]"]),
                  st.just("f3 f2 f1")),
        st.tuples(st.just("page"), r),
        st.tuples(st.sampled_from(["dr", "drforms"]), st.sampled_from(["x", "f1"]), r),
        st.tuples(st.just("heller"), fmap, fmap, fmap),
        st.tuples(st.just("sparse"), obj, st.integers(1, 2), st.integers(0, 1)),
    ).map(lambda toks: " ".join(str(t) for t in toks if t != ""))
    lines.append(f"adams A gen=k len={draw(st.integers(2, 3))}")
    lines += draw(st.lists(commands, min_size=1, max_size=4))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i].split()
        toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(_MUTANT_TOKENS))
        lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


@given(session_texts(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_drawn_sessions_keep_the_exit_code_contract(text, as_json):
    # exit 0, 1 or 2 and never a traceback; a failure names a line of the
    # session; a success under --json prints one JSON document
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.toda"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_session(str(path), as_json=as_json, max_enumerate=64, stream=out)
    assert code in (0, 1, 2)
    if code:
        m = re.match(r"error: line (\d+): ", err.getvalue())
        assert m and 1 <= int(m.group(1)) <= len(text.splitlines())
    elif as_json:
        json.loads(out.getvalue())
