"""The ops of the three workloads and the checks on their answers.

An op is one user-level query.  `run_op` executes it against the engine
and returns a plain summary (what the digest and most checks read) and
the raw engine object.  `check` runs after the timed section and returns
the ops whose answers are wrong, with a reason.

Checks compare against the benchmark's own F_p arithmetic (`fp`), the
paper's stated values, or a law the method must obey.  The pure
predicates (`coset_ok`, `sign_law_ok`, ...) take plain data so that
`test_checks.py` can feed them wrong answers.
"""

from __future__ import annotations

import io
import json
from collections import defaultdict

import fp

F1_REASON = "F1: d_2 is the negative of every bracket form"


# ---------------------------------------------------------------------------
# loading and running


class Env:
    """Engine modules and the deserialized inputs of one round."""

    def __init__(self, doc):
        import stmodcat.adams as adams
        import stmodcat.cli as cli
        import stmodcat.heller as heller
        import stmodcat.linalg as linalg
        import stmodcat.modrep as modrep
        import stmodcat.stcat as stcat
        import stmodcat.toda as toda
        self.adams, self.cli, self.heller = adams, cli, heller
        self.modrep, self.stcat, self.toda = modrep, stcat, toda
        self.cap = doc["cap"]
        self.modules = [modrep.RModule(modrep.Ring(d["p"], d["m"]),
                                       linalg.FpMatrix(d["p"], d["X"]))
                        for d in doc["modules"]]
        self.maps = [modrep.RMap(self.modules[d["src"]], self.modules[d["tgt"]],
                                 linalg.FpMatrix(self.modules[d["src"]].ring.p, d["A"]))
                     for d in doc["maps"]]
        self.res: dict = {}
        self.pages: dict = {}


def _elements(bs):
    return sorted(bs.elements)


def _mat(f):
    return f.A.a.tolist()


def candidate(stcat, modrep, f, rot, zero, neg):
    """The triangle a heller op examines: a cone triangle, rotated or altered."""
    t = stcat.cone_triangle(f)
    if rot:
        t = stcat.rotate(t) if rot > 0 else stcat.rotate_back(t)
    if zero is None and neg is None:
        return t
    maps = [t.f, t.g, t.h]
    if zero is not None:
        maps[zero] = modrep.zero_map(maps[zero].src, maps[zero].tgt)
    if neg is not None:
        maps[neg] = -maps[neg]
    return stcat.Triangle(*maps)


def run_op(env: Env, op: dict):
    """(summary, raw) for one op; engine errors propagate."""
    kind, st, toda, adams = op["kind"], env.stcat, env.toda, env.adams
    if kind in ("bracket3", "higher"):
        maps = [env.maps[i] for i in op["maps"]]
        if kind == "bracket3":
            ctx = st.OP if op["ctx"] == "op" else st.DIRECT
            bs = toda.bracket3(*maps, defn=op["defn"], ctx=ctx, cap=env.cap)
        else:
            bs = toda.higher_bracket(maps, jseq=tuple(op["jseq"]), cap=env.cap)
        return {"elements": _elements(bs)}, bs
    if kind in ("sigma", "omega"):
        N = getattr(env.modrep, kind)(env.modules[op["module"]])[0]
        return {"X": N.X.a.tolist()}, N
    if kind == "stable_hom":
        S = st.stable_hom(env.modules[op["src"]], env.modules[op["tgt"]])
        return {"sdim": S.sdim}, S
    if kind in ("cone", "fiber"):
        f = env.maps[op["map"]]
        t = st.cone_triangle(f) if kind == "cone" else st.fiber_triangle(f)
        return {"maps": [_mat(t.f), _mat(t.g), _mat(t.h)]}, t
    if kind in ("heller", "is_distinguished"):
        t = candidate(st, env.modrep, env.maps[op["map"]], op["rot"], op["zero"], op["neg"])
        if kind == "heller":
            v = env.heller.heller_check(t, cap=env.cap)
            return {"verdict": bool(v.distinguished), "exact": bool(v.exactness_ok),
                    "bracket": bool(v.bracket_ok)}, v
        return {"verdict": bool(st.is_distinguished(t, cap=env.cap))}, t
    if kind == "session":
        buf = io.StringIO()
        code = env.cli.run_session(op["path"], as_json=True, stream=buf)
        return {"code": code, "doc": json.loads(buf.getvalue()) if code == 0 else None}, None
    if kind == "resolution":
        M, G = env.modules[op["module"]], env.modules[op["gen"]]
        res = adams.adams_resolution(M, adams.ProjectiveClass(G), op["length"])
        env.res[op["res"]] = (res, M)
        return {"P": [P.X.a.tolist() for P in res.P],
                "X": [X.X.a.tolist() for X in res.X]}, res
    if kind == "pages":
        res, M = env.res[op["res"]]
        pgs = adams.pages(res, M, op["r_max"])
        env.pages[op["res"]] = pgs
        return {"pages": [{f"{s},{t}": [g.dim, g.Z.a.tolist()]
                           for (s, t), g in sorted(pg.groups.items())} for pg in pgs],
                "d": [{f"{s},{t}": m.a.tolist() for (s, t), m in sorted(pg.differentials.items())}
                      for pg in pgs]}, pgs
    if kind == "dr":
        res, M = env.res[op["res"]]
        r, s, t = op["r"], op["s"], op["t"]
        x = st.stable_hom(st.susp_ob(res.P[s], t), M).from_stable_coords(op["coords"])
        try:
            d = adams.dr_set(res, M, x, r, s, t, cap=env.cap)
        except adams.NotACycle:
            return {"notcycle": True}, None
        forms = adams.dr_bracket_forms(res, M, x, r, s, t, cap=env.cap)
        w = forms.w_filtered_elements
        return {"notcycle": False, "dr_set": _elements(d), "dr": _elements(forms.dr),
                "full": _elements(forms.full_bracket),
                "restricted": sorted(forms.restricted_elements),
                "w": None if w is None else sorted(w),
                "flags": {k: bool(v) for k, v in sorted(forms.checks.items())}}, forms
    raise ValueError(f"unknown op kind {kind!r}")


# ---------------------------------------------------------------------------
# pure predicates (the tests feed these wrong answers)


def _set(elements):
    return {tuple(e) for e in elements}


def defs_agree(sets) -> bool:
    sets = [_set(s) for s in sets]
    return all(s == sets[0] for s in sets)


def coset_ok(elements, indet_rows, p) -> bool:
    """A bracket of a vanishing chain is the full coset b0 + I of its indeterminacy."""
    elements = _set(elements)
    if not elements:
        return False
    return elements == fp.coset(min(elements), indet_rows, p)


def sign_law_ok(by_jseq, p) -> bool:
    """<f_n,...,f_1> under jseq equals (-1)^(sum jseq) times the standard bracket."""
    base = _set(by_jseq[tuple(0 for _ in next(iter(by_jseq)))])
    for jseq, elements in by_jseq.items():
        want = base if sum(jseq) % 2 == 0 else fp.negate(base, p)
        if _set(elements) != want:
            return False
    return True


def stable_dim_ok(sdim, XA, XB, p, m) -> bool:
    """Closed form: sum of min(a, b, m-a, m-b) over pairs of Jordan blocks."""
    want = sum(fp.stable_block_dim(a, b, m)
               for a in fp.jordan_type(XA, p, m) for b in fp.jordan_type(XB, p, m))
    return sdim == want


def susp_type_ok(X, XS, p, m) -> bool:
    """Sigma and Omega send the block R/x^a to R/x^(m-a) (free blocks vanish)."""
    want = sorted((m - a for a in fp.jordan_type(X, p, m) if a < m), reverse=True)
    return list(fp.jordan_type(XS, p, m)) == want


def triangle_ok(dim_src, dim_tgt, dim_third, m, kind, composites_zero) -> bool:
    """Consecutive composites vanish, and dimensions agree modulo m.

    The cone of f: M -> N is a quotient of N + I(M) by M, and the fiber a
    kernel of M + P(N) -> N; I(M), P(N) and every stripped summand are free,
    so dim C = dim N - dim M and dim K = dim M - dim N modulo m.
    """
    want = dim_tgt - dim_src if kind == "cone" else dim_src - dim_tgt
    return all(composites_zero) and (dim_third - want) % m == 0


def heller_ok(verdict, truth, kind) -> bool:
    return verdict == truth and (kind != "cone" or truth)


def cycle_ok(notcycle, coords, Z_rows, p) -> bool:
    """NotACycle is raised exactly for classes outside the Z_r of `pages`."""
    return notcycle != fp.in_span(Z_rows, coords, p)


def forms_verdict(ans, p) -> str | None:
    """None when d_r equals each bracket form; F1_REASON for a pure sign flip."""
    dr = _set(ans["dr"])
    forms = [ans["full"], ans["restricted"], ans["w"]]
    if _set(ans["dr_set"]) != dr:
        return "dr_set differs from the d_r of dr_bracket_forms"
    # chain_proper states that the worked example's inclusion is strict; it
    # is no law (it fails on the zero class) and is checked on kappa only
    flags = all(v for k, v in ans["flags"].items() if k != "chain_proper")
    if all(f is not None and _set(f) == dr for f in forms) and flags:
        return None
    if dr != fp.negate(dr, p) and all(f is not None and _set(f) == fp.negate(dr, p)
                                      for f in forms):
        return F1_REASON
    return "d_r differs from a bracket form or a checks flag is false"


def homology_ok(E1_dims, E2_dims, d1, p) -> bool:
    """E_2 = H(E_1, d_1) and d_1 . d_1 = 0, with the benchmark's own ranks.

    E1_dims, E2_dims: {(s, t): dim}; d1: {(s, t): matrix E_1^{s,t} -> E_1^{s+1,t}}.
    """
    for (s, t), dim2 in E2_dims.items():
        if (s + 1, t) not in E1_dims:
            continue          # the outgoing d_1 leaves the computed range
        out, into = d1.get((s, t)), d1.get((s - 1, t))
        kdim = E1_dims[(s, t)] - (fp.rank(out, p) if out else 0)
        if dim2 != kdim - (fp.rank(into, p) if into else 0):
            return False
    for (s, t), mat in d1.items():
        nxt = d1.get((s + 1, t))
        if nxt and mat and any(any(row) for row in fp.matmul(nxt, mat, p)):
            return False
    return True


def session_ok(path, doc) -> bool:
    """The shipped sessions give the paper's values."""
    if doc is None:
        return False
    results = doc["results"]
    if path.endswith("c3_negative.toda"):
        # <mu_1, mu_x, mu_1> = {-1} at p = 3, under all three definitions
        brackets = [r for r in results if r["command"] == "bracket"]
        return (sorted(r["defn"] for r in brackets) == ["cc", "fc", "ff"]
                and all(r["elements"] == [[2]] and r["basis_labels"] == ["mu(1)"]
                        for r in brackets))
    by_cmd = {r["command"]: r for r in results}
    kappa = [[1, 1]]          # d_2[kappa] = {[mu_1 mu_x]}
    labels = ["[mu(1) 0]", "[0 mu(x)]"]
    dr, forms, sparse = by_cmd["dr"], by_cmd["drforms"], by_cmd["sparse"]
    return (dr["elements"] == kappa and dr["basis_labels"] == labels
            and forms["dr"]["elements"] == kappa and all(forms["flags"].values())
            and sparse["nonzero_degrees"] == list(range(-4, 5)))


# ---------------------------------------------------------------------------
# checks that need engine composites (run untimed, after the timed section)


def indeterminacy_rows(env, f3, f2, f1):
    """f3 . T(Sigma X0, X2) + T(Sigma X1, X3) . Sigma f1, from explicit composites."""
    st = env.stcat
    amb = st.stable_hom(st.sigma_ob(f1.src), f3.tgt)
    sf1 = st.sigma_map(f1)
    rows = [amb.stable_coords(f3 @ u)
            for u in st.stable_hom(st.sigma_ob(f1.src), f2.tgt).quotient_basis_maps()]
    rows += [amb.stable_coords(v @ sf1)
             for v in st.stable_hom(st.sigma_ob(f1.tgt), f3.tgt).quotient_basis_maps()]
    return rows


def transport_op(env, bs, Xn):
    """Carry an opposite-category 3-fold bracket into T(Sigma X0, Xn)."""
    st = env.stcat
    comp = st.sigma_omega_comparison(Xn, 1)
    out = set()
    for u in bs.rep_maps(st.OP):
        v = comp @ st.susp_map(u, 1)
        out.add(st.stable_hom(v.src, v.tgt).stable_coords(v))
    return out


def _check_bracket_group(env, members, ans, raw, bad):
    direct = [op for op in members if op["ctx"] == "direct"]
    f3, f2, f1 = (env.maps[i] for i in direct[0]["maps"])
    p = f1.src.ring.p
    if not defs_agree([ans[op["id"]]["elements"] for op in direct]):
        for op in direct:
            bad[op["id"]] = "cc, fc and ff disagree"
    rows = indeterminacy_rows(env, f3, f2, f1)
    for op in direct:
        if not coset_ok(ans[op["id"]]["elements"], rows, p):
            bad.setdefault(op["id"], "bracket is not the coset b0 + I")
    fc = _set(ans[next(op["id"] for op in direct if op["defn"] == "fc")]["elements"])
    for op in members:
        if op["ctx"] == "op" and transport_op(env, raw[op["id"]], f3.tgt) != fc:
            bad[op["id"]] = "transported OP bracket differs from the direct one"


def _check_toda(env, ops, ans, raw, bad):
    groups = defaultdict(list)
    for op in ops:
        if op["kind"] in ("bracket3", "higher"):
            groups[op["group"]].append(op)
    for members in groups.values():
        if any(op["id"] in bad for op in members):
            continue
        if members[0]["kind"] == "bracket3":
            _check_bracket_group(env, members, ans, raw, bad)
            continue
        p = env.maps[members[0]["maps"][0]].src.ring.p
        by_jseq = {tuple(op["jseq"]): ans[op["id"]]["elements"] for op in members}
        if not sign_law_ok(by_jseq, p):
            for op in members:
                bad[op["id"]] = "reduction-order sign law fails"


def _check_wide(env, ops, ans, raw, bad):
    pairs = defaultdict(dict)
    for op in ops:
        i, kind = op["id"], op["kind"]
        if kind in ("heller", "is_distinguished"):
            pairs[op["map"]][kind] = op
        if i in bad:
            continue
        if kind in ("sigma", "omega"):
            M = env.modules[op["module"]]
            if not susp_type_ok(M.X.a.tolist(), ans[i]["X"], M.ring.p, M.ring.m):
                bad[i] = f"{kind} of a block R/x^a is not R/x^(m-a)"
        elif kind == "stable_hom":
            A, B = env.modules[op["src"]], env.modules[op["tgt"]]
            if not stable_dim_ok(ans[i]["sdim"], A.X.a.tolist(), B.X.a.tolist(),
                                 A.ring.p, A.ring.m):
                bad[i] = "stable dimension differs from the closed form"
        elif kind in ("cone", "fiber"):
            t = raw[i]
            M, N = env.maps[op["map"]].src, env.maps[op["map"]].tgt
            third = t.g.tgt if kind == "cone" else t.f.src
            if not triangle_ok(M.dim, N.dim, third.dim, M.ring.m, kind,
                               [env.stcat.is_stably_zero(t.g @ t.f),
                                env.stcat.is_stably_zero(t.h @ t.g)]):
                bad[i] = f"{kind} triangle fails the dimension or composite law"
    for pair in pairs.values():
        h, d = pair["heller"], pair["is_distinguished"]
        if h["id"] in bad or d["id"] in bad:
            continue
        if not heller_ok(ans[h["id"]]["verdict"], ans[d["id"]]["verdict"], h["cand"]):
            bad[h["id"]] = bad[d["id"]] = "heller_check and is_distinguished disagree"
    _check_toda(env, ops, ans, raw, bad)


def _check_adams(env, ops, ans, raw, bad):
    for op in ops:
        i, kind = op["id"], op["kind"]
        if i in bad:
            continue
        if kind == "session":
            if ans[i]["code"] != 0 or not session_ok(op["path"], ans[i]["doc"]):
                bad[i] = "session output differs from the paper's values"
        elif kind == "resolution":
            M = env.modules[op["module"]]
            p, m = M.ring.p, M.ring.m
            ptypes = [fp.jordan_type(P, p, m) for P in ans[i]["P"]]
            # the shifts of the generator k are k and R/x^(m-1)
            ok = all(set(t) <= {1, m - 1} for t in ptypes)
            if (p, m, fp.jordan_type(M.X.a.tolist(), p, m)) == (2, 4, (2,)):
                # the worked example: cover k + Omega k, fiber M
                ok &= ptypes[0] == (3, 1) and fp.jordan_type(ans[i]["X"][1], p, m) == (2,)
            if not ok:
                bad[i] = "a cover is not a sum of shifts of the generator"
        elif kind == "pages":
            M = env.res[op["res"]][1]
            p1, p2 = raw[i][0], raw[i][1]
            E1 = {k: g.dim for k, g in p1.groups.items()}
            E2 = {k: g.dim for k, g in p2.groups.items()}
            d1 = {k: mat.a.tolist() for k, mat in p1.differentials.items()}
            if not homology_ok(E1, E2, d1, M.ring.p):
                bad[i] = "E_2 is not the homology of (E_1, d_1)"
        elif kind == "dr":
            _check_dr(env, op, ans[i], raw[i], bad)


def _check_dr(env, op, a, forms, bad):
    i, r, s, t = op["id"], op["r"], op["s"], op["t"]
    res, M = env.res[op["res"]]
    p = M.ring.p
    Z = env.pages[op["res"]][r - 1].groups[(s, t)].Z.a.tolist()
    if not cycle_ok(a["notcycle"], op["coords"], Z, p):
        bad[i] = "NotACycle does not match the Z_r of pages"
        return
    if a["notcycle"]:
        return
    verdict = forms_verdict(a, p)
    if verdict:
        bad[i] = verdict
        return
    if r == 2 and s + 4 < res.length:
        space = env.stcat.stable_hom(forms.dr.src, M)
        for e in a["dr"]:
            dd = env.adams.dr_set(res, M, space.from_stable_coords(e), 2, s + 2, t + 1,
                                  cap=env.cap)
            if (0,) * len(e) not in dd.elements:
                bad[i] = "d_2 . d_2 is not in the zero coset"
                return


CHECKS = {"toda_battery": _check_toda, "wide_modules": _check_wide,
          "adams_dr": _check_adams}


def check(workload, env, ops, ans, raw, bad) -> dict:
    """Add to `bad` (op id -> reason) every op whose answer is wrong."""
    CHECKS[workload](env, ops, ans, raw, bad)
    return bad
