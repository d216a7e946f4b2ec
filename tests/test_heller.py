import numpy as np

from conftest import RINGS, random_module, random_stable_map

from stmodcat.heller import heller_check
from stmodcat.modrep import Ring, mu_map, zero_map
from stmodcat.stcat import (
    Triangle,
    cone_triangle,
    is_distinguished,
    is_stably_zero,
    rotate,
    rotate_back,
)

R33 = Ring(3, 3)
R24 = Ring(2, 4)


def test_cone_triangles_pass():
    rng = np.random.default_rng(21)
    for _ in range(8):
        ring = RINGS[int(rng.integers(0, len(RINGS)))]
        A = random_module(rng, ring, 5)
        B = random_module(rng, ring, 5)
        f = random_stable_map(rng, A, B)
        assert heller_check(cone_triangle(f)).distinguished


def test_zeroed_map_fails():
    # replace a stably nonzero connecting map by zero
    p = mu_map(R24, 1, 2, 1)
    t = cone_triangle(p)
    assert not is_stably_zero(t.h)
    bad = Triangle(t.f, t.g, zero_map(t.h.src, t.h.tgt))
    v = heller_check(bad)
    assert not v.distinguished


def test_sign_corruption_detected_at_p3():
    # negating one map of a distinguished triangle at p = 3 gives an
    # anti-distinguished triangle
    f = mu_map(R33, 1, 2, 1)
    t = cone_triangle(f)
    bad = Triangle(t.f, t.g, -t.h)
    v = heller_check(bad)
    assert v.exactness_ok          # kernels and images ignore signs
    assert not v.bracket_ok        # the identity leaves the bracket
    assert not v.distinguished
    assert is_distinguished(t) and not is_distinguished(bad)


def test_rotation_preserves_verdict():
    f = mu_map(R33, 2, 1, 0)
    t = cone_triangle(f)
    for s in [t, rotate(t), rotate_back(t)]:
        assert heller_check(s).distinguished


def _candidates(rng, count):
    made = 0
    while made < count:
        ring = RINGS[int(rng.integers(0, len(RINGS)))]
        A = random_module(rng, ring, 5)
        B = random_module(rng, ring, 5)
        f = random_stable_map(rng, A, B)
        t = cone_triangle(f)
        kind = int(rng.integers(0, 4))
        if kind == 0:
            cand = t
        elif kind == 1:
            cand = rotate(t) if rng.random() < 0.5 else rotate_back(t)
        elif kind == 2:
            which = int(rng.integers(0, 3))
            maps = [t.f, t.g, t.h]
            maps[which] = zero_map(maps[which].src, maps[which].tgt)
            cand = Triangle(*maps)
        else:
            if ring.p == 2:
                continue
            which = int(rng.integers(0, 3))
            maps = [t.f, t.g, t.h]
            maps[which] = -maps[which]
            cand = Triangle(*maps)
        yield cand
        made += 1


def test_agreement_with_cone_isomorphism_ground_truth():
    rng = np.random.default_rng(1234)
    agree = 0
    for cand in _candidates(rng, 110):
        assert heller_check(cand).distinguished == is_distinguished(cand)
        agree += 1
    assert agree >= 110
