import os
import random
import subprocess
import sys
import textwrap
from itertools import combinations, product

import pytest

from kfan import cech

from kfan.catalog import (
    affine_plane,
    blowup_p2,
    hirzebruch,
    p1_times_p1,
    projective_line,
    projective_plane,
    smooth_corpus,
)
from kfan.cech import (
    CechComplex,
    Cochain,
    LevelOverflow,
    NotACocycle,
    h0,
    verify_exactness,
)
from kfan.cones import Fan
from kfan.intlinalg import Lattice
from kfan.monoids import GroupRingElement
from kfan.support_solver import SolverGaveUp


def test_p1_complex_shape():
    cx = CechComplex(projective_line())
    assert [len(cx.level_tuples(p)) for p in range(cx.top_level + 1)] == [2, 1]
    assert [cx.stalk(t).free_rank for t in cx.level_tuples(0)] == [1, 1]
    assert cx.stalk((0, 1)).coords_len == 0


def test_single_max_cone_complex_is_level_zero_only():
    cx = CechComplex(affine_plane())
    assert cx.top_level == 0
    assert cx.level_tuples(0) == ((0,),)
    with pytest.raises(LevelOverflow):
        cx.level_tuples(1)


def test_p2_complex_shape():
    cx = CechComplex(projective_plane())
    assert [len(cx.level_tuples(p)) for p in range(cx.top_level + 1)] == [3, 3, 1]
    assert [cx.stalk(t).free_rank for t in cx.level_tuples(0)] == [2, 2, 2]
    assert [cx.stalk(t).free_rank for t in cx.level_tuples(1)] == [1, 1, 1]
    assert cx.stalk((0, 1, 2)).coords_len == 0


def blown_up_ladder(n_cones: int) -> Fan:
    """P1 x P1 blown up at torus-fixed points until it has n_cones
    maximal cones: each blow-up puts u + v between neighbouring rays u,
    v, going once round the fan before starting again."""
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    i = 0
    while len(rays) < n_cones:
        u, v = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (u[0] + v[0], u[1] + v[1]))
        i = (i + 2) % len(rays)
    k = len(rays)
    return Fan.from_rays_and_indices(Lattice(2), rays, [[j, (j + 1) % k] for j in range(k)])


def test_complex_lists_no_level_at_construction():
    cx = CechComplex(projective_plane())
    assert cx.tuples == {}
    assert cx.cone_of((0, 2)) == cx.fan.intersection(*cx.fan.max_cones[::2])
    assert cx.tuples == {}
    with pytest.raises(KeyError):
        cx.cone_of((2, 0))


def test_h0_on_a_long_ladder_reads_only_level_0(monkeypatch):
    fan = blown_up_ladder(24)
    n = len(fan.max_cones)
    assert n == 24 and fan.is_smooth()

    def first_two_levels_only(pool, r):
        # listing level 2 or above here is a 2^24 blow-up, so stop at once
        if r > 2:
            raise AssertionError(f"level {r - 1} listed")
        return combinations(pool, r)

    meets = []
    intersection = Fan.intersection
    monkeypatch.setattr(cech, "combinations", first_two_levels_only)
    monkeypatch.setattr(Fan, "intersection", lambda *a: meets.append(a) or intersection(*a))
    ring = h0(fan)
    assert ring.complex.tuples == {} and not meets
    for m in [(0, 0), (1, 0), (-2, 3), (5, -7)]:
        assert ring.membership(ring.character_tuple(m)) == (True, None)
    c = ring.character_tuple((1, 1))
    changed = ring.cochain({i: c.component((i,)) for i in range(n - 1)})
    ok, (pair, _) = ring.membership(changed)
    assert not ok and n - 1 in pair
    assert sorted(ring.complex.tuples) == [0]
    assert len(meets) <= n * (n - 1) // 2


def test_exactness_at_level_2_lists_only_levels_1_to_3(monkeypatch):
    rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    cones = [[a, 2 + b, 4 + c] for a, b, c in product((0, 1), repeat=3)]
    fan = Fan.from_rays_and_indices(Lattice(3), rays, cones)
    built = []
    init = CechComplex.__init__
    monkeypatch.setattr(CechComplex, "__init__", lambda cx, f: built.append(cx) or init(cx, f))
    rep = verify_exactness(fan, level=2, trials=2, depth=3, seed=0)
    assert rep.all_solved
    [cx] = built
    assert cx.top_level == 7 and sorted(cx.tuples) == [1, 2, 3]


def test_differential_of_constant_cochain_vanishes():
    cx = CechComplex(projective_plane())
    c = cx.cochain(
        0,
        {
            (i,): GroupRingElement.one(cx.stalk((i,))).scale(4)
            for i in range(3)
        },
    )
    assert cx.d(c).is_zero()


def test_p1_differential_is_augmentation_difference():
    cx = CechComplex(projective_line())
    q0, q1 = cx.stalk((0,)), cx.stalk((1,))
    c = cx.cochain(
        0,
        {
            (0,): GroupRingElement(q0, {(2,): 1}),          # eps = 1
            (1,): GroupRingElement(q1, {(0,): 5, (3,): 2}),  # eps = 7
        },
    )
    dc = cx.d(c)
    assert dc.components[(0, 1)].terms == {(): 6}


def test_differential_squares_to_zero_randomized():
    rng = random.Random(2718)
    for fan in (projective_plane(), p1_times_p1(), blowup_p2()):
        cx = CechComplex(fan)
        for level in range(cx.top_level - 1):
            for _ in range(10):
                comps = {}
                for t in cx.level_tuples(level):
                    q = cx.stalk(t)
                    terms = {
                        tuple(rng.randint(-3, 3) for _ in range(q.coords_len)): rng.randint(-5, 5)
                        for _ in range(rng.randint(0, 3))
                    }
                    comps[t] = GroupRingElement(q, terms)
                c = cx.cochain(level, comps)
                assert cx.d(cx.d(c)).is_zero()


def test_differential_overflow_at_top():
    cx = CechComplex(projective_line())
    c = cx.zero_cochain(1)
    with pytest.raises(LevelOverflow):
        cx.d(c)
    assert cx.is_cocycle(c)


def test_every_top_level_cochain_is_a_cocycle():
    cx = CechComplex(projective_line())
    q = cx.stalk((0, 1))
    c = cx.cochain(1, {(0, 1): GroupRingElement(q, {(): 9})})
    assert cx.is_cocycle(c)


def test_is_cocycle_of_boundaries():
    rng = random.Random(12)
    cx = CechComplex(projective_plane())
    for _ in range(5):
        comps = {}
        for t in cx.level_tuples(0):
            q = cx.stalk(t)
            terms = {
                tuple(rng.randint(-2, 2) for _ in range(q.coords_len)): rng.randint(-4, 4)
                for _ in range(2)
            }
            comps[t] = GroupRingElement(q, terms)
        b = cx.cochain(0, comps)
        assert cx.is_cocycle(cx.d(b))


def test_generic_level1_cochain_is_not_a_cocycle():
    rng = random.Random(77)
    cx = CechComplex(projective_plane())
    hits = 0
    for _ in range(10):
        comps = {}
        for t in cx.level_tuples(1):
            q = cx.stalk(t)
            comps[t] = GroupRingElement(
                q, {(rng.randint(-3, 3),): rng.randint(1, 5)}
            )
        if not cx.is_cocycle(cx.cochain(1, comps)):
            hits += 1
    assert hits >= 8


def test_solve_coboundary_zero():
    cx = CechComplex(projective_plane())
    b = cx.solve_coboundary(cx.zero_cochain(1), depth=1)
    assert isinstance(b, Cochain) and cx.d(b).is_zero()


def test_solve_coboundary_roundtrip():
    rng = random.Random(5)
    cx = CechComplex(p1_times_p1())
    for _ in range(5):
        comps = {}
        for t in cx.level_tuples(0):
            q = cx.stalk(t)
            comps[t] = GroupRingElement(
                q,
                {
                    tuple(rng.randint(-2, 2) for _ in range(q.coords_len)): rng.randint(-3, 3)
                    for _ in range(2)
                },
            )
        z = cx.d(cx.cochain(0, comps))
        got = cx.solve_coboundary(z, depth=3)
        assert isinstance(got, Cochain)
        assert cx.d(got) == z


def test_solve_coboundary_rejects_noncocycles():
    cx = CechComplex(projective_plane())
    q = cx.stalk((0, 1))
    z = cx.cochain(1, {(0, 1): GroupRingElement(q, {(1,): 1})})
    assert not cx.is_cocycle(z)
    with pytest.raises(NotACocycle):
        cx.solve_coboundary(z)


def test_verify_exactness_p1_surjectivity():
    rep = verify_exactness(projective_line(), level=1, trials=10, depth=3, seed=1)
    assert rep.solved == 10
    for z, b in rep.witnesses:
        cx = z.complex
        assert cx.d(b) == z


def test_verify_exactness_small_runs():
    for fan in (projective_plane(), p1_times_p1()):
        for level in (1, 2):
            rep = verify_exactness(fan, level=level, trials=5, depth=3, seed=9)
            assert rep.all_solved


def test_one_exactness_trial_computes_two_differentials(monkeypatch):
    # d(z) once (the sample's check, remembered for solve_coboundary's
    # input check) and d(b) once (the witness re-check)
    calls = []
    d = CechComplex.d

    def counting(self, c):
        calls.append(c.level)
        return d(self, c)

    monkeypatch.setattr(CechComplex, "d", counting)
    rep = verify_exactness(projective_plane(), level=1, trials=1, depth=3, seed=4)
    assert rep.solved == 1
    assert calls == [1, 0]


def test_is_cocycle_is_remembered_per_cochain(monkeypatch):
    cx = CechComplex(projective_plane())
    t = cx.level_tuples(1)[0]
    not_closed = cx.cochain(1, {t: GroupRingElement(cx.stalk(t), {(1,): 1})})
    z = cx.random_cocycle(1, random.Random(2))
    calls = []
    d = CechComplex.d
    monkeypatch.setattr(CechComplex, "d", lambda self, c: calls.append(c) or d(self, c))
    for _ in range(2):
        assert cx.is_cocycle(z)
        assert not cx.is_cocycle(not_closed)
    with pytest.raises(NotACocycle):
        cx.solve_coboundary(not_closed)
    assert calls == [not_closed]  # z was decided when it was sampled


# ---------------------------------------------------------------------------
# degree-zero cohomology


def test_h0_affine_case_everything_is_a_cocycle():
    ring = h0(affine_plane())
    q = ring.complex.stalk((0,))
    c = ring.cochain({0: GroupRingElement(q, {(5, -3): 2})})
    assert ring.contains(c)


def test_h0_p1_membership_is_augmentation_match():
    ring = h0(projective_line())
    q0, q1 = ring.complex.stalk((0,)), ring.complex.stalk((1,))
    member = ring.cochain(
        {0: GroupRingElement(q0, {(4,): 2}), 1: GroupRingElement(q1, {(0,): 1, (1,): 1})}
    )
    ok, witness = ring.membership(member)
    assert ok and witness is None
    non = ring.cochain(
        {0: GroupRingElement(q0, {(2,): 1}),
         1: GroupRingElement(q1, {(0,): 1, (1,): 1, (3,): -3})}
    )
    ok, witness = ring.membership(non)
    assert not ok
    assert witness[0] == (0, 1)


def test_h0_ring_closure():
    rng = random.Random(88)
    ring = h0(projective_plane())
    members = []
    for _ in range(6):
        z = ring.complex.random_cocycle(0, rng)
        members.append(z)
        assert ring.contains(z)
    for a in members[:3]:
        for b in members[3:]:
            assert ring.contains(ring.multiply(a, b))
            assert ring.contains(a + b)


def test_h0_unit_and_restrictions():
    ring = h0(projective_plane())
    one = ring.unit()
    assert ring.contains(one)
    for i in range(3):
        piece = ring.restrict_to_piece(one, i)
        assert piece == GroupRingElement.one(ring.complex.stalk((i,)))


def test_h0_character_tuples_are_members_and_multiply():
    ring = h0(projective_plane())
    for m in [(1, 1), (0, 2), (-3, 1), (2, -2)]:
        c = ring.character_tuple(m)
        assert ring.contains(c)
    a = ring.character_tuple((1, 0))
    b = ring.character_tuple((0, 1))
    prod = ring.multiply(a, b)
    assert ring.contains(prod)
    assert prod == ring.character_tuple((1, 1))


def test_h0_matches_section_check():
    rng = random.Random(314)
    ring = h0(p1_times_p1())
    cx = ring.complex
    for _ in range(10):
        comps = {}
        for t in cx.level_tuples(0):
            q = cx.stalk(t)
            comps[t] = GroupRingElement(
                q,
                {
                    tuple(rng.randint(-2, 2) for _ in range(q.coords_len)): rng.randint(-4, 4)
                    for _ in range(rng.randint(1, 2))
                },
            )
        c = cx.cochain(0, comps)
        assert ring.contains(c) == ring.as_section(c).check()


def test_membership_scan_matches_the_differential(monkeypatch):
    # membership compares the components on each pairwise meet, without
    # d; a non-member reports the first pair where d(c) is nonzero
    rng = random.Random(21)
    seen = set()
    for fan in (projective_plane(), hirzebruch(2), blowup_p2()):
        ring = h0(fan)
        cx = ring.complex
        for trial in range(12):
            if trial % 3:
                z = cx.random_cocycle(0, rng)
                comps = {i: z.component((i,)) for i in range(len(fan.max_cones))}
            else:
                comps = {}
            i = rng.randrange(len(fan.max_cones))
            if trial % 3 != 1:
                extra = GroupRingElement(cx.stalk((i,)), {(rng.randint(-1, 1),) * 2: 1})
                comps[i] = comps.get(i, GroupRingElement.zero(cx.stalk((i,)))) + extra
            c = ring.cochain(comps)
            dc = cx.d(c)
            first = min(dc.components, default=None)
            expected = (True, None) if first is None else (False, (first, dc.components[first]))
            calls = []
            d = CechComplex.d
            monkeypatch.setattr(CechComplex, "d", lambda self, c: calls.append(c) or d(self, c))
            assert ring.membership(c) == expected
            assert calls == []
            monkeypatch.undo()
            seen.add(expected[0])
    assert seen == {True, False}


def test_h0_members_have_constant_augmentation():
    rng = random.Random(55)
    for fan in (projective_plane(), hirzebruch(2)):
        ring = h0(fan)
        for _ in range(5):
            z = ring.complex.random_cocycle(0, rng)
            augs = {
                ring.restrict_to_piece(z, i).augmentation()
                for i in range(len(fan.max_cones))
            }
            assert len(augs) == 1


def test_h0_unit_restricts_to_unit_on_each_affine_piece():
    for name, fan in smooth_corpus().items():
        ring = h0(fan)
        one = ring.unit()
        for i in range(len(fan.max_cones)):
            assert ring.restrict_to_piece(one, i).terms == {
                ring.complex.stalk((i,)).zero(): 1
            }


def _random_smooth_complete_fan(rng, subdivisions):
    """A smooth complete surface fan via stellar subdivision: inserting
    the sum of an adjacent basis pair keeps every cone unimodular."""
    from kfan.cones import Cone, Fan
    from kfan.intlinalg import Lattice

    rays = [(1, 0), (0, 1), (-1, -1)]
    for _ in range(subdivisions):
        i = rng.randrange(len(rays))
        a, b = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (a[0] + b[0], a[1] + b[1]))
    z2 = Lattice(2)
    cones = [
        Cone.from_rays(z2, [rays[i], rays[(i + 1) % len(rays)]])
        for i in range(len(rays))
    ]
    return Fan.from_max_cones(z2, cones)


def test_fuzz_exactness_and_extension_on_random_smooth_fans():
    rng = random.Random(20250809)
    from kfan.sheaves import (
        extend_section,
        random_open_subfan,
        random_section,
        sheaf_a0,
    )

    for trial in range(5):
        fan = _random_smooth_complete_fan(rng, rng.randint(1, 3))
        assert fan.is_smooth() and fan.is_complete()
        for level in (1, 2):
            rep = verify_exactness(fan, level=level, trials=3, depth=3, seed=trial)
            assert rep.all_solved, (trial, level)
        sheaf = sheaf_a0(fan)
        domain = random_open_subfan(fan, rng)
        section = random_section(sheaf, domain, rng)
        extended = extend_section(section, depth=3)
        assert not isinstance(extended, SolverGaveUp)
        assert extended.restrict(domain) == section


COCHAIN_CHECKS_SCRIPT = textwrap.dedent(
    """
    import sys
    from kfan.catalog import projective_plane
    from kfan.cech import CechComplex, H0Ring

    if __debug__:
        sys.exit("run this under python -O")

    cx, other = CechComplex(projective_plane()), CechComplex(projective_plane())
    ring = H0Ring(cx)
    cases = [
        lambda: cx.zero_cochain(0) + cx.zero_cochain(1),
        lambda: cx.zero_cochain(1) + other.zero_cochain(1),
        lambda: cx.zero_cochain(0) - cx.zero_cochain(1),
        lambda: cx.zero_cochain(1) - other.zero_cochain(1),
        lambda: ring.multiply(cx.zero_cochain(1), ring.unit()),
        lambda: ring.multiply(ring.unit(), other.zero_cochain(0)),
    ]
    for case in cases:
        try:
            case()
        except ValueError:
            print("ValueError")
        else:
            print("accepted")
    """
)


def test_cochain_arithmetic_checks_hold_under_python_O():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", COCHAIN_CHECKS_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 6


def test_cochains_check_their_tuples_against_one_kept_set(monkeypatch):
    cx = CechComplex(projective_plane())
    listed = []

    def listing(pool, r):
        listed.append(r)
        return combinations(pool, r)

    monkeypatch.setattr(cech, "combinations", listing)
    valid = cx.tuple_set(1)
    assert valid == set(cx.level_tuples(1)) and cx.tuple_set(1) is valid
    t = cx.level_tuples(1)[0]
    one = GroupRingElement(cx.stalk(t), {(1,): 1})
    for _ in range(3):
        assert cx.cochain(1, {t: one}).components == {t: one}
    for bad in ((0, 1, 2), t[::-1], (0, 3)):
        with pytest.raises(ValueError, match="not a level-1 tuple"):
            cx.cochain(1, {bad: one})
    with pytest.raises(ValueError, match="wrong group"):
        cx.cochain(1, {t: GroupRingElement.one(cx.stalk((0,)))})
    assert listed == [2]
