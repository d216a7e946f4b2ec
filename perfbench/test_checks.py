"""Each benchmark check accepts the engine's answer and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py

A check that passed on any input would make the benchmark's `correct`
meaningless, so every check below is fed a real answer and a corrupted
copy: a negated bracket, a bracket cut to one element, a shifted stable
dimension, a flipped Heller verdict, and a NotACycle for a class in Z_r.
"""

import json
import os
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import fp  # noqa: E402
import stmodcat.stcat as stcat  # noqa: E402
import workloads as wl  # noqa: E402
from stmodcat.adams import (NotACycle, ProjectiveClass, adams_resolution,  # noqa: E402
                            dr_bracket_forms, dr_set, pages)
from stmodcat.heller import heller_check  # noqa: E402
from stmodcat.modrep import (Ring, identity_map, module_from_partition,  # noqa: E402
                             mu_map, zero_map)
from stmodcat.toda import bracket3  # noqa: E402

R3 = Ring(3, 3)
k3, M3 = module_from_partition(R3, [1]), module_from_partition(R3, [2])
ENV = SimpleNamespace(stcat=stcat)


def negated(elements, p):
    return sorted(fp.negate(elements, p))


def test_definitions_agree_rejects_a_negated_bracket():
    chain = (mu_map(R3, 2, 1, 0), mu_map(R3, 1, 2, 1), mu_map(R3, 2, 1, 0))
    sets = [sorted(bracket3(*chain, defn=d).elements) for d in ("cc", "fc", "ff")]
    assert sets[0] == [(2,)]                      # <mu_1, mu_x, mu_1> = {-1}
    assert wl.defs_agree(sets)
    assert not wl.defs_agree(sets[:2] + [negated(sets[2], 3)])


def test_op_transport_rejects_a_negated_bracket():
    f3, f2, f1 = mu_map(R3, 2, 1, 0), mu_map(R3, 1, 2, 1), mu_map(R3, 2, 1, 0)
    direct = bracket3(f3, f2, f1).elements
    opbs = bracket3(f1, f2, f3, ctx=stcat.OP)
    assert wl.transport_op(ENV, opbs, f3.tgt) == direct
    flipped = opbs.negate()
    assert wl.transport_op(ENV, flipped, f3.tgt) != direct


def test_coset_law_rejects_a_bracket_cut_to_one_element():
    # <1_Z, 0, 0> is the whole group T(Sigma X, Z), a coset of rank > 0
    f3, f2, f1 = identity_map(M3), zero_map(k3, M3), zero_map(M3, k3)
    bs = bracket3(f3, f2, f1)
    rows = wl.indeterminacy_rows(ENV, f3, f2, f1)
    assert fp.rank(rows, 3) > 0
    assert wl.coset_ok(bs.elements, rows, 3)
    assert not wl.coset_ok([min(bs.elements)], rows, 3)


def test_sign_law_rejects_a_negated_bracket():
    # the small random 4-fold brackets of toda_battery contain 0 and so equal
    # their own negatives; an asymmetric set shows the law is not vacuous
    by_jseq = {(0, 0): [(1, 0), (1, 1)], (0, 1): [(2, 0), (2, 2)]}
    assert wl.sign_law_ok(by_jseq, 3)
    assert not wl.sign_law_ok({**by_jseq, (0, 1): negated(by_jseq[(0, 1)], 3)}, 3)
    five = {js: by_jseq[(0, 0)] if sum(js) % 2 == 0 else by_jseq[(0, 1)]
            for js in ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 0, 2), (0, 1, 2))}
    assert wl.sign_law_ok(five, 3)
    assert not wl.sign_law_ok({**five, (0, 1, 2): by_jseq[(0, 0)]}, 3)


def test_stable_dimension_rejects_a_shift():
    R = Ring(3, 5)
    A = module_from_partition(R, [5, 4, 3, 1])
    B = module_from_partition(R, [4, 3, 2, 1])
    sdim = stcat.stable_hom(A, B).sdim
    XA, XB = A.X.a.tolist(), B.X.a.tolist()
    assert wl.stable_dim_ok(sdim, XA, XB, 3, 5)
    assert not wl.stable_dim_ok(sdim + 1, XA, XB, 3, 5)


def test_heller_check_rejects_a_flipped_verdict():
    t = stcat.cone_triangle(mu_map(R3, 2, 1, 0))
    verdict = heller_check(t).distinguished
    truth = stcat.is_distinguished(t)
    assert wl.heller_ok(verdict, truth, "cone")
    assert not wl.heller_ok(not verdict, truth, "cone")
    assert not wl.heller_ok(not verdict, not truth, "cone")


@pytest.fixture(scope="module")
def res24():
    R = Ring(2, 4)
    M, k = module_from_partition(R, [2]), module_from_partition(R, [1])
    return adams_resolution(M, ProjectiveClass(k), 6), M


def test_cycle_check_rejects_notacycle_inside_z_r(res24):
    res, M = res24
    pg = pages(res, M, 3)
    E = stcat.stable_hom(res.P[0], M)
    for r in (2, 3):
        Z = pg[r - 1].groups[(0, 0)].Z.a.tolist()
        for coords in ((0, 0), (1, 0), (0, 1), (1, 1)):
            x = E.from_stable_coords(coords)
            try:
                dr_set(res, M, x, r)
                raised = False
            except NotACycle:
                raised = True
            assert wl.cycle_ok(raised, coords, Z, 2)
            assert not wl.cycle_ok(not raised, coords, Z, 2)


def test_forms_check_rejects_a_negated_differential():
    R = Ring(3, 4)
    M, k = module_from_partition(R, [2]), module_from_partition(R, [1])
    res = adams_resolution(M, ProjectiveClass(k), 6)
    x = stcat.stable_hom(res.P[0], M).from_stable_coords((1, 0))
    f = dr_bracket_forms(res, M, x, 2)
    ans = {"dr_set": sorted(f.dr.elements), "dr": sorted(f.dr.elements),
           "full": sorted(f.full_bracket.elements),
           "restricted": sorted(f.restricted_elements),
           "w": sorted(f.w_filtered_elements), "flags": f.checks}
    assert wl.forms_verdict(ans, 3) is None
    flipped = dict(ans, dr_set=negated(ans["dr"], 3), dr=negated(ans["dr"], 3))
    assert wl.forms_verdict(flipped, 3) == wl.F1_REASON
    cut = dict(ans, full=ans["full"] + [(0, 0)])
    assert wl.forms_verdict(cut, 3) not in (None, wl.F1_REASON)


def test_homology_check_rejects_a_shifted_e2_dimension(res24):
    res, M = res24
    p1, p2 = pages(res, M, 3)[:2]
    E1 = {k: g.dim for k, g in p1.groups.items()}
    E2 = {k: g.dim for k, g in p2.groups.items()}
    d1 = {k: m.a.tolist() for k, m in p1.differentials.items()}
    assert wl.homology_ok(E1, E2, d1, 2)
    assert not wl.homology_ok(E1, E2 | {(0, 0): E2[(0, 0)] + 1}, d1, 2)


def test_session_check_rejects_a_negated_bracket():
    from io import StringIO

    from stmodcat.cli import run_session
    path = os.path.join(os.path.dirname(HERE), "sessions", "c3_negative.toda")
    buf = StringIO()
    assert run_session(path, as_json=True, stream=buf) == 0
    doc = json.loads(buf.getvalue())
    assert wl.session_ok(path, doc)
    for r in doc["results"]:
        r["elements"] = [[1]]
    assert not wl.session_ok(path, doc)


def test_triangle_check_rejects_a_wrong_cone():
    f = mu_map(Ring(3, 5), 3, 2, 0)
    t = stcat.cone_triangle(f)
    zero = [stcat.is_stably_zero(t.g @ t.f), stcat.is_stably_zero(t.h @ t.g)]
    C = t.g.tgt
    assert wl.triangle_ok(f.src.dim, f.tgt.dim, C.dim, 5, "cone", zero)
    assert not wl.triangle_ok(f.src.dim, f.tgt.dim, C.dim + 1, 5, "cone", zero)
    assert not wl.triangle_ok(f.src.dim, f.tgt.dim, C.dim, 5, "cone", [True, False])


def test_benchmark_json_names_every_metric():
    import run
    import tracing
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == tracing.METRICS
    rounds = [{"latency_ns": [1, 2], "rss_kb": 1024}]
    e2e = run.end_to_end(rounds, [0.5])
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (k, u) for k, (_, u) in e2e.items()]
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
