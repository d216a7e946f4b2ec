"""Command-line front end: declarative session files, one command per
engine operation, deterministic tables and JSON.

Session grammar (line oriented, '#' starts a comment):

    ring p=<prime> m=<int>
    module <Name> = [i1,...,ik]
    module <Name> = matrix [[...],...]
    map <f>: <A> -> <B> = mu(x^j) | blocks [[...],...] | matrix [[...],...]
    sthom A B
    cone f
    fiber f
    bracket <cc|fc|ff> f3 f2 f1
    nbracket [j1,...] fn ... f1
    adams M gen=<G> len=<n>
    page r
    dr x r
    drforms x r
    heller f g h
    sparse G N window

Exit codes: 0 success, 1 engine error, 2 parse/validation error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys

from .linalg import EnumerationOverflow, FpMatrix
from .modrep import (
    ModRepError,
    RMap,
    RModule,
    Ring,
    _hom_blocks,
    block_map,
    jordan_type,
    module_from_partition,
    module_iso,
    mu_map,
    partition_layout,
)
from .stcat import (
    StCatError,
    Triangle,
    cone_triangle,
    fiber_triangle,
    stable_hom,
)
from .toda import BracketError, BracketSet, bracket3, higher_bracket, is_jseq
from .adams import (
    AdamsError,
    ProjectiveClass,
    adams_resolution,
    dr_bracket_forms,
    dr_set,
    pages,
    sparse_check,
)
from .heller import heller_check


class SessionError(Exception):
    """Parse or validation failure; carries the offending line number."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


# a JSON integer: ASCII digits only, no '+', digit-group '_' or leading zero
_INT = r"-?(?:0|[1-9][0-9]*)"
_MU_RE = re.compile(rf"(?:({_INT})\*)?mu\((1|x(?:\^({_INT}))?)\)")


def _parse_mu_term(tok: str):
    """(coeff, power) of a 'c*mu(x^j)' term, or None when it is not one."""
    m = _MU_RE.fullmatch(tok.strip())
    if not m:
        return None
    coeff, body, power = m.groups()
    return (int(coeff) if coeff else 1,
            0 if body == "1" else int(power) if power else 1)


def _is_int_list(x) -> bool:
    """A JSON list of integers: no floats, bools or strings."""
    return isinstance(x, list) and all(type(v) is int for v in x)


def _parse_int_grid(text: str, lineno: int):
    try:
        grid = json.loads(text)
    except json.JSONDecodeError as e:
        raise SessionError(lineno, f"bad matrix literal: {e}")
    if not (isinstance(grid, list) and grid and all(map(_is_int_list, grid))):
        raise SessionError(lineno, "matrix literal must be a list of integer rows")
    return grid


def _parse_cell_grid(text: str, lineno: int) -> list[list[str]]:
    """[[cell, cell], [cell, ...]] with mu-term or 0 cells, as strings."""
    text = text.strip()
    if not (text.startswith("[[") and text.endswith("]]")):
        raise SessionError(lineno, "block grid must look like [[...],[...]]")
    rows = re.split(r"\]\s*,\s*\[", text[2:-2])
    return [[cell.strip() for cell in row.split(",")] for row in rows]


class Session:
    def __init__(self):
        self.ring: Ring | None = None
        self.modules: dict[str, RModule] = {}
        self.partitions: dict[str, list[int] | None] = {}
        self.maps: dict[str, RMap] = {}
        self.commands: list[tuple[int, list[str]]] = []
        self.cap = 4096
        self.resolution = None
        self.resolution_target: RModule | None = None

    # -- declaration handling ------------------------------------------------

    def declare_ring(self, lineno, args):
        if self.ring is not None:
            raise SessionError(lineno, "ring declared twice; a session has one ring")
        kv = dict(a.split("=", 1) for a in args if "=" in a)
        if set(kv) != {"p", "m"}:
            raise SessionError(lineno, "ring needs p=<prime> m=<int>")
        p, m = _int_arg(lineno, "p", kv["p"], 2), _int_arg(lineno, "m", kv["m"], 1)
        try:
            self.ring = Ring(p, m)
        except ModRepError as e:
            raise SessionError(lineno, str(e))

    def declare_module(self, lineno, name, rhs):
        if self.ring is None:
            raise SessionError(lineno, "module declared before the ring")
        if name in self.modules:
            raise SessionError(lineno, f"module name {name!r} reused")
        rhs = rhs.strip()
        try:
            if rhs.startswith("matrix"):
                grid = _parse_int_grid(rhs[len("matrix"):].strip(), lineno)
                mod = RModule(self.ring, FpMatrix(self.ring.p, grid))
                self.partitions[name] = None
            else:
                parts = json.loads(rhs)
                if not _is_int_list(parts):
                    raise SessionError(lineno, "partition must be a list of integers")
                mod = module_from_partition(self.ring, parts)
                self.partitions[name] = list(parts)
        except SessionError:
            raise
        except Exception as e:
            raise SessionError(lineno, f"bad module declaration: {e}")
        self.modules[name] = mod

    def _block_entry(self, lineno, entry: str, a, b):
        if entry == "0":
            return None
        term = _parse_mu_term(entry)
        if term is None:
            raise SessionError(lineno, f"bad block entry {entry!r}")
        coeff, j = term
        try:
            return mu_map(self.ring, a, b, j, coeff)
        except ModRepError as e:
            raise SessionError(lineno, str(e))

    def declare_map(self, lineno, name, src_name, tgt_name, rhs):
        if name in self.maps:
            raise SessionError(lineno, f"map name {name!r} reused")
        for n in (src_name, tgt_name):
            if n not in self.modules:
                raise SessionError(lineno, f"unknown module {n!r}")
        src, tgt = self.modules[src_name], self.modules[tgt_name]
        sp, tp = self.partitions.get(src_name), self.partitions.get(tgt_name)
        rhs = rhs.strip()
        try:
            if rhs.startswith("matrix"):
                grid = _parse_int_grid(rhs[len("matrix"):].strip(), lineno)
                f = RMap(src, tgt, FpMatrix(self.ring.p, grid))
            elif rhs.startswith("blocks"):
                if sp is None or tp is None:
                    raise SessionError(
                        lineno, "blocks maps need partition-declared modules")
                grid = _parse_cell_grid(rhs[len("blocks"):].strip(), lineno)
                if len(grid) != len(tp) or any(len(r) != len(sp) for r in grid):
                    raise SessionError(lineno, "block grid shape mismatch")
                entries = [[self._block_entry(lineno, grid[i][j], sp[j], tp[i])
                            for j in range(len(sp))] for i in range(len(tp))]
                srcs = [module_from_partition(self.ring, [l]) for l in sp]
                tgts = [module_from_partition(self.ring, [l]) for l in tp]
                f0 = block_map(srcs, tgts, entries)
                f = RMap(src, tgt, f0.A)
            else:
                term = _parse_mu_term(rhs)
                if term is None:
                    raise SessionError(lineno, f"bad map declaration {rhs!r}")
                if sp is None or tp is None or len(sp) != 1 or len(tp) != 1:
                    raise SessionError(
                        lineno, "mu maps need single-block partition modules")
                coeff, j = term
                f0 = mu_map(self.ring, sp[0], tp[0], j, coeff)
                f = RMap(src, tgt, f0.A)
        except SessionError:
            raise
        except Exception as e:
            raise SessionError(lineno, f"map is not R-linear or malformed: {e}")
        self.maps[name] = f

    def get_map(self, lineno, name) -> RMap:
        if name not in self.maps:
            raise SessionError(lineno, f"unknown map {name!r}")
        return self.maps[name]

    def get_module(self, lineno, name) -> RModule:
        if name not in self.modules:
            raise SessionError(lineno, f"unknown module {name!r}")
        return self.modules[name]


# ---------------------------------------------------------------------------
# labels


def mu_label(f: RMap) -> str:
    """A mu-basis label for a map between canonical-form modules: each block
    sums c*mu(x^j) over f's nonzero hom coordinates c at that block's basis
    maps (`_hom_blocks`), or is "0"."""
    sparts, tparts = partition_layout(f.src), partition_layout(f.tgt)
    if sparts is None or tparts is None:
        return "?"
    terms: dict[tuple[int, int], list[str]] = {}
    coords = stable_hom(f.src, f.tgt).hom_coords(f)
    for c, (roff, coff, _, _, j) in zip(coords, _hom_blocks(sparts, tparts)):
        if c:
            base = "mu(1)" if j == 0 else "mu(x)" if j == 1 else f"mu(x^{j})"
            terms.setdefault((roff, coff), []).append(base if c == 1 else f"{c}*{base}")
    coffs = list(itertools.accumulate(sparts, initial=0))
    rows = [["+".join(terms.get((roff, coff), ["0"])) for coff, _ in zip(coffs, sparts)]
            for roff, _ in zip(itertools.accumulate(tparts, initial=0), tparts)]
    if len(rows) == 1 and len(rows[0]) == 1:
        return rows[0][0]
    return "[" + "; ".join(" ".join(r) for r in rows) + "]"


def bracket_labels(bs: BracketSet) -> list[str]:
    return [mu_label(b) for b in stable_hom(bs.src, bs.tgt).quotient_basis_maps()]


# ---------------------------------------------------------------------------
# command execution


class Report:
    def __init__(self):
        self.lines: list[str] = []
        self.results: list[dict] = []

    def emit(self, text: str, payload: dict):
        self.lines.append(text)
        self.results.append(payload)


def _bracket_payload(cmdname, names, bs: BracketSet) -> dict:
    out = {
        "command": cmdname,
        "maps": names,
        "elements": [list(e) for e in bs.sorted_elements()],
        "basis_labels": bracket_labels(bs),
        "indeterminacy_rank": (len(bs.indeterminacy)
                               if bs.indeterminacy is not None else None),
    }
    if bs.empty_reason:
        out["empty_reason"] = bs.empty_reason
    return out


def _bracket_text(title, bs: BracketSet) -> str:
    if bs.is_empty():
        return f"{title}: empty ({bs.empty_reason})"
    labels = bracket_labels(bs)
    elems = ", ".join("(" + ",".join(str(c) for c in e) + ")"
                      for e in bs.sorted_elements())
    rank = (len(bs.indeterminacy) if bs.indeterminacy is not None else "-")
    return (f"{title}: {{{elems}}}  basis [{', '.join(labels)}]"
            f"  indeterminacy rank {rank}")


# operand counts (least, most) per command; None is unbounded
_ARITY = {"sthom": (2, 2), "cone": (1, 1), "fiber": (1, 1), "bracket": (4, 4),
          "nbracket": (2, None), "adams": (3, 3), "page": (1, 1), "dr": (2, 2),
          "drforms": (2, 2), "heller": (3, 3), "sparse": (3, 3)}


def _int_arg(lineno: int, what: str, tok: str, least: int) -> int:
    """A JSON integer operand of at least `least`, else a line-numbered error."""
    if not re.fullmatch(_INT, tok):
        raise SessionError(lineno, f"{what} must be an integer, got {tok!r}")
    value = int(tok)
    if value < least:
        raise SessionError(lineno, f"{what} must be at least {least}, got {value}")
    return value


def run_command(sess: Session, rep: Report, lineno: int, toks: list[str]):
    cmd = toks[0]
    cap = sess.cap
    if cmd not in _ARITY:
        raise SessionError(lineno, f"unknown command {cmd!r}")
    least, most = _ARITY[cmd]
    got = len(toks) - 1
    if got < least or (most is not None and got > most):
        want = least if least == most else f"at least {least}"
        raise SessionError(lineno, f"{cmd} takes {want} operands, got {got}")
    if cmd == "sthom":
        A, B = (sess.get_module(lineno, n) for n in toks[1:3])
        S = stable_hom(A, B)
        labels = [mu_label(b) for b in S.quotient_basis_maps()]
        rep.emit(f"sthom {toks[1]} {toks[2]}: dim {S.sdim}"
                 f"  basis [{', '.join(labels)}]",
                 {"command": "sthom", "src": toks[1], "tgt": toks[2],
                  "dim": S.sdim, "basis_labels": labels})
    elif cmd in ("cone", "fiber"):
        f = sess.get_map(lineno, toks[1])
        t = cone_triangle(f) if cmd == "cone" else fiber_triangle(f)
        obj = t.g.tgt if cmd == "cone" else t.f.src
        rep.emit(f"{cmd} {toks[1]}: type {list(jordan_type(obj))}",
                 {"command": cmd, "map": toks[1],
                  "jordan_type": list(jordan_type(obj))})
    elif cmd == "bracket":
        defn = toks[1]
        if defn not in ("cc", "fc", "ff"):
            raise SessionError(
                lineno, f"bracket definition must be cc, fc or ff, got {defn!r}")
        names = toks[2:5]
        f3, f2, f1 = (sess.get_map(lineno, n) for n in names)
        bs = bracket3(f3, f2, f1, defn=defn, cap=cap)
        rep.emit(_bracket_text(f"bracket {defn} {' '.join(names)}", bs),
                 _bracket_payload("bracket", names, bs) | {"defn": defn})
    elif cmd == "nbracket":
        if toks[1].startswith("["):
            try:
                jseq = json.loads(toks[1])
            except ValueError:  # JSONDecodeError is a ValueError
                jseq = None
            if not _is_int_list(jseq):
                raise SessionError(lineno, f"bad reduction sequence {toks[1]!r}")
            names = toks[2:]
        else:
            jseq, names = None, toks[1:]
        if len(names) < 2:
            raise SessionError(
                lineno, f"nbracket needs at least two maps, got {len(names)}")
        if jseq is not None and not is_jseq(jseq, len(names)):
            raise SessionError(
                lineno, f"invalid reduction sequence {jseq} for {len(names)} maps")
        maps = [sess.get_map(lineno, n) for n in names]
        bs = higher_bracket(maps, jseq=jseq, cap=cap)
        rep.emit(_bracket_text(f"nbracket {' '.join(names)}", bs),
                 _bracket_payload("nbracket", names, bs)
                 | {"jseq": list(bs.metadata["jseq"])})
    elif cmd == "adams":
        M = sess.get_module(lineno, toks[1])
        kv = dict(a.split("=", 1) for a in toks[2:] if "=" in a)
        if set(kv) != {"gen", "len"}:
            raise SessionError(lineno, "adams needs gen=<module> len=<int>")
        G = sess.get_module(lineno, kv["gen"])
        length = _int_arg(lineno, "len", kv["len"], 2)  # d_1 needs p_1
        sess.resolution = adams_resolution(M, ProjectiveClass(G), length)
        sess.resolution_target = M
        types = [list(jordan_type(X)) for X in sess.resolution.X]
        ptypes = [list(jordan_type(P)) for P in sess.resolution.P]
        d1 = mu_label(sess.resolution.d1op(0))
        rep.emit(f"adams {toks[1]} gen={kv['gen']} len={length}: "
                 f"X types {types}; P types {ptypes}; d1 {d1}",
                 {"command": "adams", "module": toks[1], "generator": kv["gen"],
                  "length": length, "X_types": types, "P_types": ptypes,
                  "d1_label": d1})
    elif cmd == "page":
        r = _int_arg(lineno, "r", toks[1], 1)
        if sess.resolution is None:
            raise SessionError(lineno, "page before adams")
        pgs = pages(sess.resolution, sess.resolution_target, r)
        page = pgs[-1]
        dims = {f"{s},{t}": g.dim for (s, t), g in sorted(page.groups.items())}
        rep.emit(f"page {r}: dims {dims}",
                 {"command": "page", "r": r, "dims": dims})
    elif cmd == "dr":
        r = _int_arg(lineno, "r", toks[2], 1)
        if sess.resolution is None:
            raise SessionError(lineno, "dr before adams")
        x = _resolution_class(sess, lineno, toks[1])
        bs = dr_set(sess.resolution, x.tgt, x, r, cap=cap)
        rep.emit(_bracket_text(f"d_{r}[{toks[1]}]", bs),
                 _bracket_payload("dr", [toks[1]], bs) | {"r": r})
    elif cmd == "drforms":
        r = _int_arg(lineno, "r", toks[2], 1)
        if sess.resolution is None:
            raise SessionError(lineno, "drforms before adams")
        x = _resolution_class(sess, lineno, toks[1])
        report = dr_bracket_forms(sess.resolution, x.tgt, x, r, cap=cap)
        flags = {"full_bracket_equal": report.equal_full,
                 "restricted_equal": report.equal_restricted,
                 "w_filtered_equal": report.equal_w_filtered} | report.checks
        text = (f"drforms {toks[1]} r={r}: "
                + _bracket_text("d_r", report.dr) + "; "
                + "; ".join(f"{k}={v}" for k, v in sorted(flags.items())))
        payload = {"command": "drforms", "r": r,
                   "dr": _bracket_payload("dr", [toks[1]], report.dr),
                   "flags": {k: (bool(v) if v is not None else None)
                             for k, v in flags.items()}}
        if "with_delta" in report.variants:
            payload["with_delta"] = _bracket_payload(
                "bracket", [], report.variants["with_delta"])
            payload["operations_bracket"] = _bracket_payload(
                "bracket", [], report.variants["operations_bracket"])
        rep.emit(text, payload)
    elif cmd == "heller":
        f, g, h = (sess.get_map(lineno, n) for n in toks[1:4])
        try:
            t = Triangle(f, g, h)
        except StCatError as e:
            raise SessionError(lineno, f"malformed triangle: {e}")
        v = heller_check(t, cap=cap)
        rep.emit(f"heller {' '.join(toks[1:4])}: "
                 f"{'distinguished' if v.distinguished else 'not distinguished'}"
                 f" (exactness {v.exactness_ok}, bracket {v.bracket_ok})",
                 {"command": "heller", "maps": toks[1:4],
                  "distinguished": v.distinguished,
                  "exactness_ok": v.exactness_ok,
                  "bracket_ok": v.bracket_ok})
    elif cmd == "sparse":
        G = sess.get_module(lineno, toks[1])
        N = _int_arg(lineno, "N", toks[2], 1)
        window = _int_arg(lineno, "window", toks[3], 0)
        spr = sparse_check(G, N, window)
        rep.emit(f"sparse {toks[1]} N={N} window={window}: "
                 f"{'sparse' if spr.sparse else 'NOT sparse'}"
                 f"{' (vacuously)' if spr.vacuous else ''};"
                 f" nonzero degrees {spr.nonzero_degrees}",
                 {"command": "sparse", "generator": toks[1], "N": N,
                  "window": window, "sparse": spr.sparse,
                  "vacuous": spr.vacuous,
                  "nonzero_degrees": spr.nonzero_degrees})


def _resolution_class(sess: Session, lineno: int, name: str) -> RMap:
    """A declared map as an E_1 class: transported onto the engine's P_0."""
    x = sess.get_map(lineno, name)
    P0 = sess.resolution.P[0]
    if x.src == P0:
        return x
    iso = module_iso(P0, x.src)
    if iso is None:
        raise SessionError(
            lineno, f"map {name!r} does not start at the degree-0 cover "
                    f"(type {list(jordan_type(P0))})")
    return x @ iso


# ---------------------------------------------------------------------------
# session parsing and the entry point


def parse_session(path: str) -> Session:
    sess = Session()
    decls = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            decls.append((lineno, line))
    for lineno, line in decls:
        toks = line.split()
        if toks[0] == "ring":
            sess.declare_ring(lineno, toks[1:])
        elif toks[0] == "module":
            m = re.match(r"module\s+(\w+)\s*=\s*(.+)$", line)
            if not m:
                raise SessionError(lineno, "bad module declaration")
            sess.declare_module(lineno, *m.groups())
        elif toks[0] == "map":
            m = re.match(r"map\s+(\w+)\s*:\s*(\w+)\s*->\s*(\w+)\s*=\s*(.+)$", line)
            if not m:
                raise SessionError(lineno, "bad map declaration")
            sess.declare_map(lineno, *m.groups())
        else:
            if sess.ring is None:
                raise SessionError(lineno, "command before the ring")
            sess.commands.append((lineno, toks))
    return sess


def run_session(path: str, as_json=False, max_enumerate=4096,
                stream=None) -> int:
    stream = stream or sys.stdout
    if max_enumerate < 0:
        print(f"error: --max-enumerate {max_enumerate} is below 0", file=sys.stderr)
        return 2
    try:
        sess = parse_session(path)
        sess.cap = max_enumerate
    except (SessionError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    rep = Report()
    for lineno, toks in sess.commands:
        try:
            run_command(sess, rep, lineno, toks)
        except SessionError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        except (EnumerationOverflow, BracketError, AdamsError, StCatError,
                ModRepError) as e:
            print(f"error: line {lineno}: {' '.join(toks)}: {e}",
                  file=sys.stderr)
            return 1
    if as_json:
        doc = {
            "ring": {"p": sess.ring.p, "m": sess.ring.m} if sess.ring else None,
            "objects": [{"name": n,
                         "partition": sess.partitions.get(n),
                         "dim": mod.dim}
                        for n, mod in sess.modules.items()],
            "results": rep.results,
        }
        print(json.dumps(doc, indent=2, sort_keys=True), file=stream)
    else:
        for line in rep.lines:
            print(line, file=stream)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="stmodcat",
        description="Exact Toda bracket / Adams spectral sequence calculator "
                    "for stable module categories of truncated polynomial rings")
    ap.add_argument("session", help="session file to execute")
    ap.add_argument("--json", action="store_true",
                    help="emit one structured JSON document")
    ap.add_argument("--max-enumerate", type=int, default=4096,
                    help="cap on exact enumerations (default 4096)")
    args = ap.parse_args(argv)
    return run_session(args.session, as_json=args.json,
                       max_enumerate=args.max_enumerate)


if __name__ == "__main__":
    sys.exit(main())
