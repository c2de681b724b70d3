"""Acceptance suite: every criterion is an exact integer check (the
underlying statements are isomorphisms, so tolerance is zero) with a
wall-clock budget.  One pass/fail line is printed per criterion."""

import json
import random
import time
from contextlib import contextmanager
from itertools import product

from kfan.catalog import smooth_corpus
from kfan.cech import CechComplex, Cochain, H0Ring
from kfan.cli import run as cli_run
from kfan.cones import Cone, zero_cone
from kfan.graded import (
    CoefficientSpec,
    GradedFreeData,
    extend_scalars_class,
    hom_rank,
    k0_affine_toric,
    k0_class,
)
from kfan.intlinalg import Lattice, dot, vec_sub
from kfan.monoids import AffineMonoid, GroupRingElement, hilbert_basis
from kfan.sheaves import (
    Section,
    extend_section,
    random_open_subfan,
    random_section,
    sheaf_a0,
)
from test_cech import exactness_trials, level_tuples

Z1, Z2, Z3 = Lattice(1), Lattice(2), Lattice(3)
K = CoefficientSpec("k")


@contextmanager
def criterion(n, desc, limit):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        print(f"criterion {n} FAIL: {desc}")
        raise
    elapsed = time.monotonic() - t0
    assert elapsed < limit, f"criterion {n} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"criterion {n} PASS: {desc} ({elapsed:.2f}s < {limit}s)")


CONE_CORPUS = [
    ("quadrant", Cone.from_rays(Z2, [(1, 0), (0, 1)]), 2),
    ("ray", Cone.from_rays(Z2, [(1, 0)]), 1),
    ("skew-1-2", Cone.from_rays(Z2, [(1, 0), (1, 2)]), 2),
    ("skew-1-3", Cone.from_rays(Z2, [(1, 0), (1, 3)]), 2),
    (
        "cone-over-square",
        Cone.from_rays(Z3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]),
        3,
    ),
    ("zero", zero_cone(Z2), 0),
]


def test_criterion_1_affine_k_theory():
    with criterion(1, "affine K-theory: rank(M_sigma) = dim sigma, singular included", 1.0):
        for name, cone, dim in CONE_CORPUS:
            desc = k0_affine_toric(cone, K)
            assert cone.dim == dim, name
            assert desc.laurent_rank == dim, name
            assert desc.characters.is_free, name
            # the two singular cones get the same answer shape as smooth ones
        assert not CONE_CORPUS[2][1].is_smooth()
        assert not CONE_CORPUS[4][1].is_smooth()


def _monoid_corpus():
    return [
        AffineMonoid.from_cone(Cone.from_rays(Z2, [(1, 0), (0, 1)])),
        AffineMonoid.from_cone(Cone.from_rays(Z2, [(1, 0)])),
        AffineMonoid.from_cone(Cone.from_rays(Z2, [(1, 0), (1, 2)])),
        AffineMonoid.from_cone(Cone.from_rays(Z2, [(1, 0), (1, 3)])),
        AffineMonoid.from_cone(zero_cone(Z2)),
    ]


def test_criterion_2_graded_k_classes():
    with criterion(
        2, "K_0 classes: unit-shift invariance, additivity, naturality squares", 10.0
    ):
        rng = random.Random(2024)
        monoids = _monoid_corpus()
        assert len(monoids) == 5
        for m in monoids:
            n = m.ambient.rank
            units = m.unit_generators
            for _ in range(200):
                shifts = [
                    tuple(rng.randint(-6, 6) for _ in range(n))
                    for _ in range(rng.randint(0, 4))
                ]
                cls = k0_class(GradedFreeData(m, shifts), K)
                if shifts and units.nrows:
                    i = rng.randrange(len(shifts))
                    u = units.row(rng.randrange(units.nrows))
                    k = rng.randint(-4, 4)
                    moved = list(shifts)
                    moved[i] = tuple(a + k * b for a, b in zip(moved[i], u))
                    assert k0_class(GradedFreeData(m, moved), K).value == cls.value
                extra = [
                    tuple(rng.randint(-6, 6) for _ in range(n))
                    for _ in range(rng.randint(0, 3))
                ]
                total = GradedFreeData(m, list(shifts) + extra)  # the direct sum
                assert (
                    k0_class(total, K).value
                    == (cls + k0_class(GradedFreeData(m, extra), K)).value
                )
        # naturality squares over 50 random face pairs from the fan corpus
        pairs = []
        for fan in smooth_corpus().values():
            for sigma in fan.cones:
                for tau in fan.faces_of(sigma):
                    pairs.append((sigma, tau))
        rng.shuffle(pairs)
        count = 0
        for sigma, tau in pairs:
            if count >= 50:
                break
            a = AffineMonoid.from_cone(sigma)
            a2 = AffineMonoid.from_cone(tau)
            n = sigma.lattice.rank
            shifts = [
                tuple(rng.randint(-4, 4) for _ in range(n))
                for _ in range(rng.randint(1, 3))
            ]
            left = extend_scalars_class(
                k0_class(GradedFreeData(a, shifts), K), a, a2
            )
            right = k0_class(GradedFreeData(a2, shifts), K)
            assert left.value == right.value
            count += 1
        assert count == 50


def test_criterion_3_hom_formulas():
    with criterion(3, "hom ranks match brute-force membership and the group rule", 10.0):
        rng = random.Random(3)
        # independent closed-form membership oracles per monoid
        cases = [
            (
                AffineMonoid.from_cone(Cone.from_rays(Z2, [(1, 0), (0, 1)])),
                2,
                lambda d: d[0] >= 0 and d[1] >= 0,
            ),
            (
                AffineMonoid.from_cone(Cone.from_rays(Z2, [(1, 0)])),
                2,
                lambda d: d[0] >= 0,
            ),
            (
                AffineMonoid.from_cone(Cone.from_rays(Z2, [(1, 0), (1, 2)])),
                2,
                lambda d: d[0] >= 0 and d[0] + 2 * d[1] >= 0,
            ),
            (
                AffineMonoid.from_generators(Z1, [(2,), (3,)]),
                1,
                lambda d: d[0] >= 0 and d[0] != 1,
            ),
            (AffineMonoid.from_cone(zero_cone(Z2)), 2, lambda d: True),
        ]
        checked = 0
        while checked < 500:
            monoid, n, oracle = cases[checked % len(cases)]
            s = tuple(rng.randint(-5, 5) for _ in range(n))
            s2 = tuple(rng.randint(-5, 5) for _ in range(n))
            p, p2 = rng.randint(0, 3), rng.randint(0, 3)
            expected = p * p2 if oracle(vec_sub(s2, s)) else 0
            assert hom_rank(p, s, p2, s2, monoid) == expected
            checked += 1
        # group case degenerates to coset equality of the shifts
        group = AffineMonoid.from_generators(Z2, [(0, 1), (0, -1)])
        assert all(group.unit_group_contains(g) for g in group.generators)
        for _ in range(100):
            s = (rng.randint(-4, 4), rng.randint(-4, 4))
            s2 = (rng.randint(-4, 4), rng.randint(-4, 4))
            q = group.coset_quotient
            expected = 1 if q.project(s) == q.project(s2) else 0
            assert hom_rank(1, s, 1, s2, group) == expected


def test_criterion_4_differential_squares_to_zero():
    with criterion(4, "d . d = 0 on 100 random cochains per corpus fan", 30.0):
        rng = random.Random(4)
        for name, fan in smooth_corpus().items():
            cx = CechComplex(fan)
            levels = list(range(cx.top_level))  # every level with a differential
            count = 0
            for _ in range(100):
                if cx.top_level == 0:
                    count += 1  # complex concentrated in level 0: vacuous
                    continue
                level = rng.choice(levels)
                comps = {}
                for t in level_tuples(cx, level):
                    q = cx.stalk(t)
                    terms = {
                        tuple(
                            rng.randint(-3, 3) for _ in range(q.coords_len)
                        ): rng.randint(-5, 5)
                        for _ in range(rng.randint(0, 3))
                    }
                    comps[t] = GroupRingElement(q, terms)
                c = Cochain(cx, level, comps)
                dc = cx.d(c)
                if dc.level < cx.top_level:
                    assert cx.d(dc).is_zero(), (name, level)
                else:
                    assert cx.is_cocycle(dc), (name, level)
                count += 1
            assert count == 100


EXACTNESS_CONFIG = {
    "level_1": ["P2", "P1xP1", "F1", "F2", "Bl1P2"],
    "level_2": ["P2", "P1xP1"],
}


def test_criterion_5_cech_exactness():
    with criterion(
        5, "exactness: 25/25 trials per fan and level at seed 42, depth 3", 300.0
    ):
        corpus = smooth_corpus()
        for name in EXACTNESS_CONFIG["level_1"]:
            pairs = exactness_trials(corpus[name], 1, trials=25, seed=42)
            witnesses = [(z, b) for z, b in pairs if isinstance(b, Cochain)]
            assert len(witnesses) == 25, f"{name} level 1: {len(witnesses)}/25"
            for z, b in witnesses:
                assert z.complex.d(b) == z
        for name in EXACTNESS_CONFIG["level_2"]:
            pairs = exactness_trials(corpus[name], 2, trials=25, seed=42)
            witnesses = [(z, b) for z, b in pairs if isinstance(b, Cochain)]
            assert len(witnesses) == 25, f"{name} level 2: {len(witnesses)}/25"
            for z, b in witnesses:
                assert z.complex.d(b) == z


def test_criterion_6_h0_ring_on_p1():
    with criterion(6, "P1 global K_0: membership is augmentation matching; ring closure", 10.0):
        from kfan.catalog import projective_line

        ring = H0Ring(projective_line())
        p0, p1 = ring.fan.max_cones
        q0, q1 = ring.sheaf.stalk(p0), ring.sheaf.stalk(p1)
        rng = random.Random(6)

        def pair(f, g):
            return Section(ring.sheaf, ring.domain, {p0: f, p1: g})

        def random_element(q):
            return GroupRingElement(
                q,
                {
                    (rng.randint(-5, 5),): rng.randint(-5, 5)
                    for _ in range(rng.randint(1, 4))
                },
            )

        for _ in range(100):
            f, g = random_element(q0), random_element(q1)
            c = pair(f, g)
            # brute-force augmentation oracle: plain coefficient sums
            eps_f = sum(f.terms.values())
            eps_g = sum(g.terms.values())
            assert ring.contains(c) == (eps_f == eps_g)
        members = []
        while len(members) < 100:
            f, g = random_element(q0), random_element(q1)
            delta = sum(f.terms.values()) - sum(g.terms.values())
            g = g + GroupRingElement(q1, {(0,): delta})
            c = pair(f, g)
            assert ring.contains(c)
            members.append(c)
        for i in range(50):
            a, b = members[2 * i], members[2 * i + 1]
            assert ring.contains(ring.multiply(a, b))
            assert ring.contains(pair(*(a.components[p] + b.components[p] for p in (p0, p1))))


def test_criterion_7_flasqueness():
    with criterion(
        7, "flasqueness: 20/20 extensions per smooth fan at seed 42, re-verified", 120.0
    ):
        for name, fan in smooth_corpus().items():
            sheaf = sheaf_a0(fan)
            rng = random.Random(42)
            for _ in range(20):
                domain = random_open_subfan(fan, rng)
                section = random_section(sheaf, domain, rng)
                extended = extend_section(section, depth=3)
                assert not isinstance(extended, tuple)
                assert hasattr(extended, "check"), f"{name}: solver gave up"
                assert extended.check()
                assert extended.restrict(domain) == section


def test_criterion_8_hilbert_bases():
    with criterion(8, "Hilbert bases: skew dual {(0,1),(1,0),(2,-1)}; quadrant standard", 1.0):
        dual = Cone.from_rays(Z2, [(1, 0), (1, 2)]).dual()
        got = sorted(hilbert_basis(dual))
        assert got == [(0, 1), (1, 0), (2, -1)]
        # fundamental-parallelepiped oracle, run independently: lattice
        # points of the cone in a box that are not sums of two others
        box_pts = [
            v
            for v in product(range(-6, 7), repeat=2)
            if any(v) and all(dot(u, v) >= 0 for u in dual.facets)
        ]
        ptset = set(box_pts)
        small = [p for p in box_pts if max(abs(x) for x in p) <= 2]
        oracle = sorted(
            p
            for p in small
            if not any(vec_sub(p, q) in ptset for q in box_pts if q != p)
        )
        assert oracle == got
        quadrant = Cone.from_rays(Z2, [(1, 0), (0, 1)])
        assert sorted(hilbert_basis(quadrant)) == [(0, 1), (1, 0)]


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "same seed gives bit-identical job reports", 300.0):
        corpus_files = {}
        data = {
            "P2": {
                "lattice_rank": 2,
                "rays": [[1, 0], [0, 1], [-1, -1]],
                "max_cones": [[0, 1], [1, 2], [2, 0]],
            },
            "P1xP1": {
                "lattice_rank": 2,
                "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]],
            },
        }
        for name, d in data.items():
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(d))
            corpus_files[name] = str(p)
        for name, path in corpus_files.items():
            argv = [
                "check-exactness", path,
                "--level", "1", "--trials", "25", "--depth", "3", "--seed", "42",
            ]
            first, second = cli_run(argv), cli_run(argv)
            assert first.exit_status == 0
            assert first.to_json() == second.to_json()
        argv = ["check-flasque", corpus_files["P2"], "--trials", "20", "--depth", "3", "--seed", "42"]
        first, second = cli_run(argv), cli_run(argv)
        assert first.exit_status == 0
        assert first.to_json() == second.to_json()
