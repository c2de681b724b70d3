import importlib.util
import json
import os
import random
import subprocess
import sys
import textwrap
from itertools import combinations, product

import pytest

from kfan import cech, cli

from kfan.catalog import (
    affine_plane,
    blowup_p2,
    hirzebruch,
    p1_times_p1,
    projective_line,
    projective_plane,
    smooth_corpus,
    weighted_p2_fan,
)
from kfan.cech import (
    CechComplex,
    Cochain,
    H0Ring,
    LevelOverflow,
    NotACocycle,
)
from kfan.cones import Fan
from kfan.fanfile import build_fan, load_fan_file
from kfan.intlinalg import CertificateError, Lattice
from kfan.monoids import GroupRingElement
from kfan.report import cochain_from_jsonable, cochain_to_jsonable
from kfan.sheaves import Section, random_section, sheaf_a0
from kfan.support_solver import SolverGaveUp


def level_tuples(cx, p):
    """Level p of the cover complex: the strictly increasing (p+1)-tuples
    of maximal-cone indices, in lexicographic order."""
    return tuple(combinations(range(cx.top_level + 1), p + 1))


def exactness_trials(fan, level, trials, seed, depth=3):
    """The (z, b) pairs of ``check-exactness``'s trials, drawn as it draws
    them: one complex, one ``random.Random(seed)``, and per trial a
    ``random_cocycle`` solved back by ``solve_coboundary``, which checks
    d(b) = z; b is a ``SolverGaveUp`` where the search gave up."""
    cx = CechComplex(fan)
    rng = random.Random(seed)
    pairs = []
    for _ in range(trials):
        z = cx.random_cocycle(level, rng)
        pairs.append((z, cx.solve_coboundary(z, depth=depth)))
    return pairs


def test_p1_complex_shape():
    cx = CechComplex(projective_line())
    assert [len(level_tuples(cx, p)) for p in range(cx.top_level + 1)] == [2, 1]
    assert [cx.stalk(t).free_rank for t in level_tuples(cx, 0)] == [1, 1]
    assert cx.stalk((0, 1)).coords_len == 0


def test_single_max_cone_complex_is_level_zero_only():
    cx = CechComplex(affine_plane())
    assert cx.top_level == 0
    assert level_tuples(cx, 0) == ((0,),)
    with pytest.raises(LevelOverflow):
        cx.random_cocycle(1, random.Random(0))


def test_p2_complex_shape():
    cx = CechComplex(projective_plane())
    assert [len(level_tuples(cx, p)) for p in range(cx.top_level + 1)] == [3, 3, 1]
    assert [cx.stalk(t).free_rank for t in level_tuples(cx, 0)] == [2, 2, 2]
    assert [cx.stalk(t).free_rank for t in level_tuples(cx, 1)] == [1, 1, 1]
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

    # H0 is global sections: no cover complex is built
    meets = []
    intersection = Fan.intersection
    monkeypatch.setattr(Fan, "intersection", lambda *a: meets.append(a) or intersection(*a))
    monkeypatch.setattr(CechComplex, "__init__", None)
    ring = H0Ring(fan)
    assert not meets
    for m in [(0, 0), (1, 0), (-2, 3), (5, -7)]:
        assert ring.membership(ring.character(m)) == (True, None)
    c = ring.character((1, 1))
    changed = section(ring, {i: c.components[cone] for i, cone in enumerate(fan.max_cones[:-1])})
    ok, (pair, _) = ring.membership(changed)
    assert not ok and n - 1 in pair
    assert len(meets) <= 5 * n * (n - 1) // 2  # one meet per pair and membership call


def test_smooth_exactness_lists_no_level():
    # sparse draws and a differential over the cofaces of the support:
    # the complex has no way to list a level, and smooth trials solve
    # back at levels 1 to 3
    rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    cones = [[a, 2 + b, 4 + c] for a, b, c in product((0, 1), repeat=3)]
    cube = Fan.from_rays_and_indices(Lattice(3), rays, cones)
    for fan in (cube, blown_up_ladder(16)):
        assert fan.is_smooth()
        for level in (1, 2, 3):
            for z, b in exactness_trials(fan, level, trials=2, seed=level):
                assert isinstance(b, Cochain)
                assert z.level == level and z.complex.d(b) == z


def load_gen_fans():
    """``bench/gen_fans.py``, which writes the benchmark's ladders."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "gen_fans.py")
    spec = importlib.util.spec_from_file_location("gen_fans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exactness_cost_follows_the_support_on_a_64_cone_ladder(monkeypatch, tmp_path):
    # a count, not a timing: level 3 has C(64, 4) tuples and level 4,
    # which a cocycle check of z would reach, C(64, 5) (about 7.6
    # million); a trial walks the cofaces of its supports and keeps none
    path = tmp_path / "ladder-64.json"
    path.write_text(json.dumps(load_gen_fans().ladder(64)))
    built, supports = [], set()
    init, d, from_rays = CechComplex.__init__, CechComplex.d, CechComplex._from_rays
    contract = CechComplex._contract
    monkeypatch.setattr(CechComplex, "__init__", lambda cx, f: built.append(cx) or init(cx, f))
    monkeypatch.setattr(CechComplex, "d", lambda cx, c: supports.update(c.components) or d(cx, c))
    monkeypatch.setattr(
        CechComplex, "_from_rays", lambda cx, p, v: supports.update(v) or from_rays(cx, p, v)
    )
    monkeypatch.setattr(
        CechComplex, "_contract", lambda cx, z: supports.update(z.components) or contract(cx, z)
    )
    rep = cli.run(["check-exactness", str(path), "--level", "3", "--trials", "5", "--json"])
    assert rep.exit_status == 0 and rep.results["all_solved"]
    [cx] = built
    n = cx.top_level + 1
    # b0 and the witness b are built from ray terms, d ran on b0 and on
    # b (its check), and _contract read z; the meet memo holds the
    # maximal cones, those supports and their prefixes, and no coface
    prefixes = {t[:k] for t in supports for k in range(2, len(t) + 1)}
    assert {(i,) for i in range(n)} < set(cx._meets) <= {(i,) for i in range(n)} | prefixes
    assert cx.tuples == {}


def test_differential_of_constant_cochain_vanishes():
    cx = CechComplex(projective_plane())
    c = Cochain(
        cx,
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
    c = Cochain(
        cx,
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
                for t in level_tuples(cx, level):
                    q = cx.stalk(t)
                    terms = {
                        tuple(rng.randint(-3, 3) for _ in range(q.coords_len)): rng.randint(-5, 5)
                        for _ in range(rng.randint(0, 3))
                    }
                    comps[t] = GroupRingElement(q, terms)
                c = Cochain(cx, level, comps)
                assert cx.d(cx.d(c)).is_zero()


def test_differential_overflow_at_top():
    cx = CechComplex(projective_line())
    c = Cochain(cx, 1, {})
    with pytest.raises(LevelOverflow):
        cx.d(c)
    assert cx.is_cocycle(c)


def local_section(fan):
    """The section 1 over the faces of the fan's first maximal cone."""
    sheaf, first = sheaf_a0(fan), fan.max_cones[0]
    return Section(sheaf, fan.star_open(first), {first: GroupRingElement.one(sheaf.stalk(first))})


@pytest.mark.parametrize(
    "refused, error, match",
    [
        (lambda cx: cx.solve_coboundary(Cochain(cx, 0, {})), ValueError, "above level zero"),
        (lambda cx: Cochain(cx, cx.top_level + 1, {}), LevelOverflow, "no level 3"),
        (
            lambda cx: H0Ring(cx.fan).membership(local_section(cx.fan)),
            ValueError,
            "not a global section",
        ),
    ],
    ids=["coboundary-at-level-0", "cochain-above-the-top", "local-section-in-h0"],
)
def test_the_complex_and_h0_refuse_what_is_not_theirs(refused, error, match):
    cx = CechComplex(projective_plane())
    with pytest.raises(error, match=match):
        refused(cx)


def test_every_top_level_cochain_is_a_cocycle():
    cx = CechComplex(projective_line())
    q = cx.stalk((0, 1))
    c = Cochain(cx, 1, {(0, 1): GroupRingElement(q, {(): 9})})
    assert cx.is_cocycle(c)


def test_is_cocycle_of_boundaries():
    rng = random.Random(12)
    cx = CechComplex(projective_plane())
    for _ in range(5):
        comps = {}
        for t in level_tuples(cx, 0):
            q = cx.stalk(t)
            terms = {
                tuple(rng.randint(-2, 2) for _ in range(q.coords_len)): rng.randint(-4, 4)
                for _ in range(2)
            }
            comps[t] = GroupRingElement(q, terms)
        b = Cochain(cx, 0, comps)
        assert cx.is_cocycle(cx.d(b))


def test_generic_level1_cochain_is_not_a_cocycle():
    rng = random.Random(77)
    cx = CechComplex(projective_plane())
    hits = 0
    for _ in range(10):
        comps = {}
        for t in level_tuples(cx, 1):
            q = cx.stalk(t)
            comps[t] = GroupRingElement(
                q, {(rng.randint(-3, 3),): rng.randint(1, 5)}
            )
        if not cx.is_cocycle(Cochain(cx, 1, comps)):
            hits += 1
    assert hits >= 8


def test_solve_coboundary_zero():
    cx = CechComplex(projective_plane())
    b = cx.solve_coboundary(Cochain(cx, 1, {}), depth=1)
    assert isinstance(b, Cochain) and cx.d(b).is_zero()


def test_solve_coboundary_roundtrip():
    rng = random.Random(5)
    cx = CechComplex(p1_times_p1())
    for _ in range(5):
        comps = {}
        for t in level_tuples(cx, 0):
            q = cx.stalk(t)
            comps[t] = GroupRingElement(
                q,
                {
                    tuple(rng.randint(-2, 2) for _ in range(q.coords_len)): rng.randint(-3, 3)
                    for _ in range(2)
                },
            )
        z = cx.d(Cochain(cx, 0, comps))
        got = cx.solve_coboundary(z, depth=3)
        assert isinstance(got, Cochain)
        assert cx.d(got) == z


def p1_cubed() -> Fan:
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "fans", "p1xp1xp1.json")
    return build_fan(load_fan_file(path))


def monomial_cochain(cx, t):
    """One monomial on the tuple t: below the top level a non-cocycle,
    as nothing cancels its pushforward to any coface."""
    q = cx.stalk(t)
    e = tuple(int(k == 0) for k in range(q.coords_len))
    return Cochain(cx, len(t) - 1, {t: GroupRingElement(q, {e: 1})})


def test_solve_coboundary_rejects_noncocycles():
    # the contraction's check d(b) = z fails (the search, on weighted
    # P2), and the walk of d(z) names the input, not the contraction: at
    # level 1 of P2 (its level 2 is the top, where every cochain is a
    # cocycle) and levels 1 and 2 of P1xP1xP1
    p1_3 = p1_cubed()
    for fan, t in [
        (projective_plane(), (0, 1)),
        (p1_3, (0, 1)),
        (p1_3, (0, 1, 2)),
        (weighted_p2_fan(), (0, 1)),
    ]:
        cx = CechComplex(fan)
        z = monomial_cochain(cx, t)
        assert not cx.is_cocycle(z)
        with pytest.raises(NotACocycle):
            cx.solve_coboundary(z)


def test_solve_coboundary_on_a_smooth_cocycle_walks_only_the_witness(monkeypatch):
    cx = CechComplex(p1_cubed())
    z = cx.d(monomial_cochain(cx, (0, 1)))
    calls = []
    d = CechComplex.d
    monkeypatch.setattr(CechComplex, "d", lambda self, c: calls.append(c) or d(self, c))
    b = cx.solve_coboundary(z)
    assert calls == [b] and b.level == 1


def test_wrong_contraction_is_a_certificate_error_not_a_noncocycle(monkeypatch):
    cx = CechComplex(projective_plane())
    z = cx.random_cocycle(1, random.Random(1))
    contract = CechComplex._contract

    def doubled(self, z):
        b = contract(self, z)
        return Cochain(self, b.level, {t: v.scale(2) for t, v in b.components.items()})

    monkeypatch.setattr(CechComplex, "_contract", doubled)
    with pytest.raises(CertificateError, match="d\\(b\\) = z"):
        cx.solve_coboundary(z)


def test_search_that_gives_up_on_a_cocycle_is_returned_after_the_walk(monkeypatch):
    cx = CechComplex(weighted_p2_fan())
    z = cx.random_cocycle(1, random.Random(0))
    gave_up = SolverGaveUp(rounds=1, support_sizes=(1,))
    monkeypatch.setattr(cech, "solve_pushforward_system", lambda *args: gave_up)
    calls = []
    d = CechComplex.d
    monkeypatch.setattr(CechComplex, "d", lambda self, c: calls.append(c) or d(self, c))
    assert cx.solve_coboundary(z) is gave_up
    assert calls == [z]  # the walk that found z a cocycle


NON_SMOOTH_LEVEL_1 = [
    os.path.join(os.path.dirname(__file__), "golden", name)
    for name in ("weighted-p2.json", "p1xp1-mod-z2.json")
]


def one_monomial(slot_groups, constraints, rng, extra_points):
    """The kernel sampler corrupted: 1 on the first slot alone.  On a
    level-1 tuple of three or more maximal cones, its differential is 1
    on each triple containing the tuple."""
    slot, group = next(iter(slot_groups.items()))
    return {slot: GroupRingElement.one(group)}


@pytest.mark.parametrize("path", NON_SMOOTH_LEVEL_1, ids=os.path.basename)
def test_a_sampled_cochain_that_is_no_cocycle_is_refused(monkeypatch, path):
    monkeypatch.setattr(cech, "sample_nonzero_solution", one_monomial)
    cx = CechComplex(build_fan(load_fan_file(path)))
    with pytest.raises(CertificateError, match="sampled level-1 cochain is not a cocycle"):
        cx.random_cocycle(1, random.Random(0))


CORRUPT_SAMPLER_SCRIPT = textwrap.dedent(
    """
    import sys
    from kfan import cech, cli
    from kfan.monoids import GroupRingElement

    if __debug__:
        sys.exit("run this under python -O")

    def one_monomial(slot_groups, constraints, rng, extra_points):
        slot, group = next(iter(slot_groups.items()))
        return {slot: GroupRingElement.one(group)}

    cech.sample_nonzero_solution = one_monomial
    for path in sys.argv[1:]:
        argv = ["check-exactness", path, "--level", "1", "--trials", "2"]
        print(cli.main(argv + ["--experimental-nonsmooth"]))
    """
)


def test_a_sampled_cochain_that_is_no_cocycle_exits_1_under_python_O():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPT_SAMPLER_SCRIPT, *NON_SMOOTH_LEVEL_1],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]
    assert proc.stderr.count("sampled level-1 cochain is not a cocycle") == 2


def test_verify_exactness_p1_surjectivity():
    for z, b in exactness_trials(projective_line(), 1, trials=10, seed=1):
        assert isinstance(b, Cochain)
        assert z.complex.d(b) == z


def test_verify_exactness_small_runs():
    for fan in (projective_plane(), p1_times_p1()):
        for level in (1, 2):
            pairs = exactness_trials(fan, level, trials=5, seed=9)
            assert all(isinstance(b, Cochain) for _, b in pairs)


def test_one_exactness_trial_computes_two_differentials(monkeypatch):
    # d(b0) once (the sample z = d(b0)) and d(b) once (the witness
    # check, which proves z a cocycle too): d(z) is never walked
    calls = []
    d = CechComplex.d

    def counting(self, c):
        calls.append(c.level)
        return d(self, c)

    monkeypatch.setattr(CechComplex, "d", counting)
    [(_, b)] = exactness_trials(projective_plane(), 1, trials=1, seed=4)
    assert isinstance(b, Cochain)
    assert calls == [0, 0]


def test_smooth_random_cocycle_starts_at_level_1():
    # level-0 cocycles are global sections, drawn by random_section
    cx = CechComplex(projective_plane())
    with pytest.raises(ValueError, match="random_section"):
        cx.random_cocycle(0, random.Random(0))


# ---------------------------------------------------------------------------
# degree-zero cohomology: global sections


def stalk(ring, i):
    return ring.sheaf.stalk(ring.fan.max_cones[i])


def section(ring, values: dict) -> Section:
    """The global section with these values on the maximal cones by
    index, and zero on the others."""
    comps = {
        cone: values.get(i, GroupRingElement.zero(stalk(ring, i)))
        for i, cone in enumerate(ring.fan.max_cones)
    }
    return Section(ring.sheaf, ring.domain, comps)


def random_member(ring, rng) -> Section:
    return random_section(ring.sheaf, ring.domain, rng)


def test_h0_affine_case_everything_is_a_cocycle():
    ring = H0Ring(affine_plane())
    c = section(ring, {0: GroupRingElement(stalk(ring, 0), {(5, -3): 2})})
    assert ring.contains(c)


def test_h0_p1_membership_is_augmentation_match():
    ring = H0Ring(projective_line())
    q0, q1 = stalk(ring, 0), stalk(ring, 1)
    member = section(
        ring, {0: GroupRingElement(q0, {(4,): 2}), 1: GroupRingElement(q1, {(0,): 1, (1,): 1})}
    )
    ok, witness = ring.membership(member)
    assert ok and witness is None
    non = section(
        ring,
        {0: GroupRingElement(q0, {(2,): 1}),
         1: GroupRingElement(q1, {(0,): 1, (1,): 1, (3,): -3})},
    )
    ok, witness = ring.membership(non)
    assert not ok
    assert witness[0] == (0, 1)


def test_h0_ring_closure():
    rng = random.Random(88)
    ring = H0Ring(projective_plane())
    members = []
    for _ in range(6):
        z = random_member(ring, rng)
        members.append(z)
        assert ring.contains(z)
    for a in members[:3]:
        for b in members[3:]:
            assert ring.contains(ring.multiply(a, b))
            tops = enumerate(ring.fan.max_cones)
            assert ring.contains(section(ring, {i: a.components[c] + b.components[c] for i, c in tops}))


def test_h0_unit_and_restrictions():
    ring = H0Ring(projective_plane())
    one = ring.unit()
    assert ring.contains(one)
    for i, cone in enumerate(ring.fan.max_cones):
        assert one.components[cone] == GroupRingElement.one(stalk(ring, i))


def test_h0_character_tuples_are_members_and_multiply():
    ring = H0Ring(projective_plane())
    for m in [(1, 1), (0, 2), (-3, 1), (2, -2)]:
        c = ring.character(m)
        assert ring.contains(c)
    a = ring.character((1, 0))
    b = ring.character((0, 1))
    prod = ring.multiply(a, b)
    assert ring.contains(prod)
    assert prod == ring.character((1, 1))


@pytest.mark.parametrize(
    "fan", [projective_plane(), hirzebruch(2), weighted_p2_fan()], ids=["p2", "f2", "weighted-p2"]
)
def test_h0_multiply_is_the_ring_of_characters_with_its_unit(fan):
    rng = random.Random(61)
    ring = H0Ring(fan)
    for _ in range(4):
        a, b = ([rng.randint(-3, 3) for _ in range(2)] for _ in range(2))
        product_ab = ring.multiply(ring.character(a), ring.character(b))
        assert product_ab == ring.character([x + y for x, y in zip(a, b)])
    members = [random_member(ring, rng) for _ in range(3)]
    for z in members:
        assert ring.multiply(ring.unit(), z) == z == ring.multiply(z, ring.unit())
    for z in members:
        for y in members:
            assert ring.contains(ring.multiply(z, y))


def test_readme_quick_tour_runs():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    tour = text.split("## Library quick tour", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert namespace["desc"].laurent_rank == 2
    ring, c = namespace["ring"], namespace["c"]
    assert ring.contains(ring.multiply(c, c))
    cx, z, b = namespace["cx"], namespace["z"], namespace["b"]
    assert isinstance(b, Cochain) and not z.is_zero()
    assert cx.d(b) == z


def test_h0_matches_section_check():
    rng = random.Random(314)
    ring = H0Ring(p1_times_p1())
    for _ in range(10):
        values = {}
        for i in range(len(ring.fan.max_cones)):
            q = stalk(ring, i)
            values[i] = GroupRingElement(
                q,
                {
                    tuple(rng.randint(-2, 2) for _ in range(q.coords_len)): rng.randint(-4, 4)
                    for _ in range(rng.randint(1, 2))
                },
            )
        c = section(ring, values)
        assert ring.contains(c) == c.check()


def test_membership_scan_matches_the_differential(monkeypatch):
    # membership compares the components on each pairwise meet, without
    # d; a non-member reports the first pair where d(c) is nonzero
    rng = random.Random(21)
    seen = set()
    for fan in (projective_plane(), hirzebruch(2), blowup_p2()):
        ring = H0Ring(fan)
        cx = CechComplex(fan)
        for trial in range(12):
            if trial % 3:
                z = random_member(ring, rng)
                values = {i: z.components[c] for i, c in enumerate(fan.max_cones)}
            else:
                values = {}
            i = rng.randrange(len(fan.max_cones))
            if trial % 3 != 1:
                extra = GroupRingElement(stalk(ring, i), {(rng.randint(-1, 1),) * 2: 1})
                values[i] = values.get(i, GroupRingElement.zero(stalk(ring, i))) + extra
            c = section(ring, values)
            dc = cx.d(Cochain(cx, 0, {(i,): v for i, v in values.items()}))
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
        ring = H0Ring(fan)
        for _ in range(5):
            z = random_member(ring, rng)
            augs = {v.augmentation() for v in z.components.values()}
            assert len(augs) == 1


def test_h0_unit_restricts_to_unit_on_each_affine_piece():
    for name, fan in smooth_corpus().items():
        ring = H0Ring(fan)
        one = ring.unit()
        for i, cone in enumerate(fan.max_cones):
            assert one.components[cone].terms == {stalk(ring, i).zero(): 1}


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
            pairs = exactness_trials(fan, level, trials=3, seed=trial)
            assert all(isinstance(b, Cochain) for _, b in pairs), (trial, level)
        sheaf = sheaf_a0(fan)
        domain = random_open_subfan(fan, rng)
        section = random_section(sheaf, domain, rng)
        extended = extend_section(section, depth=3)
        assert not isinstance(extended, SolverGaveUp)
        assert extended.restrict(domain) == section


H0_CHECKS_SCRIPT = textwrap.dedent(
    """
    import sys
    from kfan.catalog import projective_plane
    from kfan.cech import H0Ring

    if __debug__:
        sys.exit("run this under python -O")

    ring, other = H0Ring(projective_plane()), H0Ring(projective_plane())
    fan = ring.fan
    local = ring.unit().restrict(fan.subfan(fan.faces_of(fan.max_cones[0])))
    cases = [
        lambda: ring.multiply(other.unit(), ring.unit()),
        lambda: ring.multiply(ring.unit(), other.character((1, 0))),
        lambda: ring.multiply(local, ring.unit()),
        lambda: ring.membership(other.unit()),
        lambda: ring.membership(local),
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


def test_h0_ring_checks_hold_under_python_O():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", H0_CHECKS_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 5


def test_cochains_check_their_tuples_by_shape():
    # p + 1 int indices, strictly increasing, in [0, top_level]; the
    # check lists no level.  (False, True) == (0, 1), but it would be
    # written as [false, true], which cochain_from_jsonable refuses
    cx = CechComplex(projective_plane())
    t = (0, 2)
    one = GroupRingElement(cx.stalk(t), {(1,): 1})
    c = Cochain(cx, 1, {t: one})
    assert c.components == {t: one}
    assert cochain_from_jsonable(cx, json.loads(json.dumps(cochain_to_jsonable(c)))) == c
    top = cx.top_level
    for bad in ((False, True), (1, 0), (0, 0), (-1, 2), (0, top + 1), (0, 1, 2), (0,)):
        with pytest.raises(ValueError, match="not a level-1 tuple"):
            Cochain(cx, 1, {bad: one})
    with pytest.raises(ValueError, match="wrong group"):
        Cochain(cx, 1, {t: GroupRingElement.one(cx.stalk((0,)))})
    assert cx.tuples == {}
