"""Seeded input generator: writes one workload's modules, maps and ops as JSON.

Run as its own process, before any timed process starts:

    python3 perfbench/gen.py --workload toda_battery --seed 1 --out inputs.json

Generation calls the engine (`stable_hom`, `pre_matrix`, trial brackets),
so doing it here keeps the timed process's memo caches cold.  The timed
process only ever sees the serialized module and map matrices.

Redraw rule: every drawn chain and triangle candidate is first evaluated
here with a trial enumeration cap (81 for toda_battery, 243 for
wide_modules), well under the cap of 4096 the timed run uses.  A draw that
raises `EnumerationOverflow` anywhere is thrown away and drawn again from
the same random stream, so the redraw is itself seeded.  No timed op can
reach the cap, and no single draw (a 5-fold bracket with a thousand
branches, say) sets a round's time.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import numpy as np

import fp
import workloads

CAP = 4096
TODA_TRIAL_CAP = 81
WIDE_TRIAL_CAP = 243
MAX_DRAWS = 100            # a generator that finds no fitting draw stops with an error

# toda_battery: the six small rings of the test suite, modules of dim <= 6
TODA_RINGS = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)]
TODA_CHAINS = {3: (24, 4), 4: (6, 5), 5: (4, 4)}   # n -> (chains per ring, max module dim)

# wide_modules: three large modules over F_3[x]/x^5 (dims 20, 13, 10); the
# maps are drawn.  Chains run block -> wide -> block -> block: with a wide
# module at either end the bracket's lift and extension spaces exceed the
# enumeration cap almost always, and with two wide modules inside, the cost
# of the iterated-fiber bracket varies tenfold from draw to draw.  Triangle
# candidates join a wide module and a block.
WIDE_RING = (3, 5)
WIDE_PARTS = [[5, 5, 4, 3, 2, 1], [5, 4, 3, 1], [4, 3, 2, 1]]
WIDE_MAPS = 8
WIDE_CHAINS = 6
WIDE_CANDIDATES = 12

# adams_dr: (p, m, module partition, r values); generator k, length 6
ADAMS_CASES = [(2, 4, [2], (2, 3)), (3, 4, [2], (2, 3)), (3, 5, [2, 1], (2,))]
ADAMS_LEN = 6
ADAMS_SAMPLE = 12          # classes drawn per slot whose group is large
ADAMS_SAMPLE_ABOVE = 27    # a group with more classes than this is sampled
ADAMS_FIXED_SEED = 0       # odd-t samples at odd p do not depend on --seed
SESSIONS = ["sessions/prop_a1.toda", "sessions/c3_negative.toda"]


class Inputs:
    """Module/map tables plus the op list, in the serialized form."""

    def __init__(self, workload: str, seed: int):
        self.doc = {"workload": workload, "seed": seed, "cap": CAP,
                    "modules": [], "maps": [], "ops": []}
        self._mods: dict = {}

    def module(self, M) -> int:
        if M.key not in self._mods:
            self._mods[M.key] = len(self.doc["modules"])
            self.doc["modules"].append({"p": M.ring.p, "m": M.ring.m,
                                        "X": M.X.a.tolist()})
        return self._mods[M.key]

    def map(self, f) -> int:
        self.doc["maps"].append({"src": self.module(f.src), "tgt": self.module(f.tgt),
                                 "A": f.A.a.tolist()})
        return len(self.doc["maps"]) - 1

    def op(self, kind: str, **fields):
        self.doc["ops"].append({"id": len(self.doc["ops"]), "kind": kind, **fields})


def random_module(rng, ring, max_dim):
    from stmodcat.modrep import module_from_partition
    parts, total = [], 0
    while True:
        l = int(rng.integers(1, ring.m + 1))
        if total + l > max_dim or (parts and rng.random() < 0.4):
            break
        parts.append(l)
        total += l
    return module_from_partition(ring, parts or [1])


def random_stable_map(rng, A, B):
    from stmodcat.stcat import stable_hom
    S = stable_hom(A, B)
    return S.from_stable_coords(rng.integers(0, A.ring.p, size=S.sdim))


def random_vanishing_chain(rng, objs):
    """(f_n, ..., f_1) through objs with consecutive composites stably zero.

    Each map is drawn uniformly from the kernel of precomposition with the
    previous one, so the vanishing is exact.
    """
    from stmodcat.linalg import nullspace
    from stmodcat.stcat import pre_matrix, stable_hom
    maps = [random_stable_map(rng, objs[0], objs[1])]
    for i in range(1, len(objs) - 1):
        space = stable_hom(objs[i], objs[i + 1])
        kern = nullspace(pre_matrix(maps[-1], objs[i + 1]))
        coeffs = rng.integers(0, space.p, size=kern.rows)
        v = (coeffs @ kern.a) % space.p if kern.rows else np.zeros(space.sdim, np.int64)
        maps.append(space.from_stable_coords(v))
    return list(reversed(maps))


def drawn(rng, draw, trial):
    """draw(rng) until trial(value) stays under the enumeration cap."""
    from stmodcat.linalg import EnumerationOverflow
    for _ in range(MAX_DRAWS):
        value = draw(rng)
        try:
            trial(value)
        except EnumerationOverflow:
            continue
        return value
    raise RuntimeError(f"no draw within the enumeration cap in {MAX_DRAWS} attempts")


def bracket3_trials(chain, cap):
    from stmodcat.stcat import OP
    from stmodcat.toda import bracket3
    f3, f2, f1 = chain
    for defn in ("cc", "fc", "ff"):
        bracket3(f3, f2, f1, defn=defn, cap=cap)
    bracket3(f1, f2, f3, ctx=OP, cap=cap)


def higher_trials(chain, cap):
    from stmodcat.toda import all_jseqs, higher_bracket
    for jseq in all_jseqs(len(chain)):
        higher_bracket(chain, jseq=jseq, cap=cap)


def add_bracket3_ops(inp, chain, group, with_op=True):
    idx = [inp.map(f) for f in chain]
    for defn in ("cc", "fc", "ff"):
        inp.op("bracket3", maps=idx, defn=defn, ctx="direct", group=group)
    if with_op:
        inp.op("bracket3", maps=idx[::-1], defn="fc", ctx="op", group=group)


def gen_toda_battery(rng, inp):
    from stmodcat.modrep import Ring
    from stmodcat.toda import all_jseqs
    group = 0
    for (p, m), (n, (count, max_dim)) in itertools.product(TODA_RINGS, TODA_CHAINS.items()):
        ring = Ring(p, m)
        for _ in range(count):
            def draw(r):
                return random_vanishing_chain(
                    r, [random_module(r, ring, max_dim) for _ in range(n + 1)])
            trials = bracket3_trials if n == 3 else higher_trials
            chain = drawn(rng, draw, lambda c: trials(c, TODA_TRIAL_CAP))
            if n == 3:
                add_bracket3_ops(inp, chain, group)
            else:
                idx = [inp.map(f) for f in chain]
                for jseq in all_jseqs(n):
                    inp.op("higher", maps=idx, jseq=list(jseq), group=group)
            group += 1


def gen_wide_modules(rng, inp):
    import stmodcat.modrep as modrep
    import stmodcat.stcat as stcat
    from stmodcat.modrep import Ring
    from stmodcat.stcat import is_distinguished
    from stmodcat.toda import bracket3
    ring = Ring(*WIDE_RING)
    mods = [modrep.module_from_partition(ring, parts) for parts in WIDE_PARTS]
    idx = [inp.module(M) for M in mods]
    for i in idx:
        inp.op("sigma", module=i)
        inp.op("omega", module=i)
    blocks = [inp.module(modrep.module_from_partition(ring, [a])) for a in range(1, ring.m)]
    for i, j in itertools.product(idx, idx):
        inp.op("stable_hom", src=i, tgt=j)
    for i, b in itertools.product(idx, blocks):
        inp.op("stable_hom", src=i, tgt=b)
        inp.op("stable_hom", src=b, tgt=i)

    def block(r):
        return modrep.module_from_partition(ring, [int(r.integers(1, ring.m))])

    # the wide modules each draw joins are fixed, so that a seed changes the
    # maps but not the sizes a round works on
    pairs = list(itertools.product(range(len(mods)), repeat=2))
    for a, b in pairs[:WIDE_MAPS]:
        k = inp.map(random_stable_map(rng, mods[a], mods[b]))
        inp.op("cone", map=k)
        inp.op("fiber", map=k)
    for group in range(WIDE_CHAINS):
        wide = mods[group % len(mods)]
        chain = drawn(rng, lambda r: random_vanishing_chain(
            r, [block(r), wide, block(r), block(r)]),
            lambda c: bracket3_trials(c, WIDE_TRIAL_CAP))
        add_bracket3_ops(inp, chain, group, with_op=False)

    kinds = ["cone", "rotate", "zero", "negate"]
    for c in range(WIDE_CANDIDATES):
        kind, wide = kinds[c % 4], mods[c % len(mods)]

        def draw(r):
            rot = int(r.choice([-1, 1])) if kind == "rotate" else 0
            which = int(r.integers(0, 3))
            spec = {"rot": rot, "zero": which if kind == "zero" else None,
                    "neg": which if kind == "negate" else None}
            ends = (block(r), wide) if r.random() < 0.5 else (wide, block(r))
            return random_stable_map(r, *ends), spec

        def trial(value):
            t = workloads.candidate(stcat, modrep, value[0], **value[1])
            bracket3(t.h, t.g, t.f, cap=WIDE_TRIAL_CAP)
            is_distinguished(t, cap=WIDE_TRIAL_CAP)

        f, spec = drawn(rng, draw, trial)
        k = inp.map(f)
        inp.op("heller", map=k, cand=kind, **spec)
        inp.op("is_distinguished", map=k, cand=kind, **spec)


def gen_adams_dr(rng, inp):
    from stmodcat.adams import ProjectiveClass, adams_resolution, pages
    from stmodcat.modrep import Ring, module_from_partition
    from stmodcat.stcat import stable_hom, susp_ob
    for path in SESSIONS:
        inp.op("session", path=path)
    fixed = np.random.default_rng(ADAMS_FIXED_SEED)
    for res_id, (p, m, parts, rs) in enumerate(ADAMS_CASES):
        ring = Ring(p, m)
        M = module_from_partition(ring, parts)
        G = module_from_partition(ring, [1])
        inp.op("resolution", res=res_id, module=inp.module(M), gen=inp.module(G),
               length=ADAMS_LEN)
        inp.op("pages", res=res_id, r_max=3)
        cls = ProjectiveClass(G)
        res = adams_resolution(M, cls, ADAMS_LEN)
        pgs = pages(res, M, 3)
        for r in rs:
            for s in range(ADAMS_LEN - r):
                for t in range(cls.period):
                    sdim = stable_hom(susp_ob(res.P[s], t), M).sdim
                    classes = list(itertools.product(range(p), repeat=sdim))
                    if len(classes) > ADAMS_SAMPLE_ABOVE:
                        # half the sample from Z_r, half from outside it:
                        # a cycle costs ten times a NotACycle answer
                        Z = pgs[r - 1].groups[(s, t)].Z.a.tolist()
                        src = fixed if (p % 2 and t % 2) else rng
                        classes = sorted(
                            c for inside in (True, False)
                            for c in sample(src, [c for c in classes
                                                  if fp.in_span(Z, c, p) == inside],
                                            ADAMS_SAMPLE // 2))
                    for c in classes:
                        inp.op("dr", res=res_id, r=r, s=s, t=t, coords=list(c))


def sample(rng, items, k):
    return [items[int(i)] for i in sorted(rng.choice(len(items), k, replace=False))]


GENERATORS = {"toda_battery": gen_toda_battery, "wide_modules": gen_wide_modules,
              "adams_dr": gen_adams_dr}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    inp = Inputs(args.workload, args.seed)
    GENERATORS[args.workload](np.random.default_rng(args.seed), inp)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(inp.doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
