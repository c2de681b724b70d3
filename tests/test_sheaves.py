import glob
import json
import os
import random
import subprocess
import sys
import textwrap

import pytest

from kfan import sheaves
from kfan.catalog import (
    hirzebruch,
    p1_times_p1,
    projective_line,
    projective_plane,
    singular_quadric_cone_fan,
    weighted_p2_fan,
)
from kfan.cech import H0Ring
from kfan.cones import Cone, Fan, Subfan, _certified_walls, zero_cone
from kfan.fanfile import build_fan, load_fan_file
from kfan.intlinalg import (
    CertificateError,
    IntMatrix,
    Lattice,
    QuotientLattice,
    QuotientSurjection,
    canonical_surjection,
    quotient,
)
from kfan.monoids import GroupMismatch, GroupRingElement
from kfan.sheaves import (
    SPARSE_DRAWS,
    FanSheaf,
    Section,
    extend_section,
    random_open_subfan,
    random_section,
    sheaf_a0,
)
from kfan.support_solver import COORD_BOUND, MAX_ATTEMPTS, SolverGaveUp
from split_reference import assemble, top_part
from test_fan_construction import ladder
from test_incidence_plan import count_pushforwards, matrix_of
from test_intlinalg import field_copy
from test_invariance import moved, random_unimodular

Z2 = Lattice(2)


def walls(fan):
    """The pairs of maximal cones that share a ridge, with the ridge,
    as (a, b, ridge), a before b in ``fan.max_cones``, of a fan that
    ``_certified_walls`` certifies complete and simplicial."""
    maximal = fan.max_cones
    return [
        (maximal[i], maximal[j], fan.intersection(maximal[i], maximal[j]))
        for i, j, _ in _certified_walls(fan.lattice.rank, list(maximal))
    ]


def equal_but_distinct_stalks():
    """(sheaf, cone number, a group equal to the stalk there but not it):
    on a non-smooth fan a field-for-field copy of the interned stalk, on
    a smooth fan the stalk of a twin fan built from the same file."""
    fan = weighted_p2_fan()
    sheaf, c = sheaf_a0(fan), fan.max_ids[0]
    cases = [(sheaf, c, field_copy(sheaf.stalk_at(c)))]
    path = os.path.join(os.path.dirname(__file__), os.pardir, "fans", "p2.json")
    fan, twin = (build_fan(load_fan_file(path)) for _ in range(2))
    sheaf, c = sheaf_a0(fan), fan.max_ids[0]
    cases.append((sheaf, c, sheaf_a0(twin).stalk_at(c)))
    return cases


def test_a_section_refuses_a_component_over_an_equal_but_distinct_group():
    for sheaf, c, other in equal_but_distinct_stalks():
        fan = sheaf.fan
        values = {i: GroupRingElement.one(sheaf.stalk_at(i)) for i in fan.max_ids}
        assert Section.by_id(sheaf, fan.full_subfan(), values).values == values
        values[c] = GroupRingElement.one(other)
        with pytest.raises(ValueError, match="lives over the wrong group"):
            Section.by_id(sheaf, fan.full_subfan(), values)


def test_a_restriction_refuses_an_element_over_an_equal_but_distinct_group():
    for sheaf, c, other in equal_but_distinct_stalks():
        ray = min(f for f in sheaf.fan.face_ids[c] if sheaf.fan.cones[f].dim == 1)
        phi = sheaf.restriction(sheaf.fan.cones[c], sheaf.fan.cones[ray])
        assert GroupRingElement.one(sheaf.stalk_at(c)).pushforward(phi).terms == {(0,): 1}
        with pytest.raises(GroupMismatch):
            GroupRingElement.one(other).pushforward(phi)


def test_a0_stalks_on_p1():
    fan = projective_line()
    sheaf = sheaf_a0(fan)
    ranks = sorted(sheaf.stalk(c).free_rank for c in fan.cones)
    assert ranks == [0, 1, 1]


def test_a0_stalk_on_single_smooth_cone():
    fan = Fan.from_max_cones(Z2, [Cone.from_rays(Z2, [(1, 0), (0, 1)])])
    sheaf = sheaf_a0(fan)
    assert sheaf.stalk(fan.max_cones[0]).free_rank == 2
    # looked up by value: an equal cone finds the stalk, a cone outside the fan does not
    assert sheaf.stalk(Cone.from_rays(Z2, [(0, 1), (1, 0)])) is sheaf.stalk(fan.max_cones[0])
    outside = Cone.from_rays(Z2, [(1, 0), (1, 2)])
    with pytest.raises(KeyError):
        sheaf.stalk(outside)
    with pytest.raises(KeyError):
        sheaf.restriction(outside, zero_cone(Z2))


def test_a0_stalk_at_zero_cone_is_rank_zero():
    for fan in (projective_line(), projective_plane(), p1_times_p1()):
        sheaf = sheaf_a0(fan)
        assert sheaf.stalk(zero_cone(fan.lattice)).coords_len == 0


def test_restriction_to_zero_cone_is_augmentation():
    fan = projective_plane()
    sheaf = sheaf_a0(fan)
    z = zero_cone(Z2)
    sigma = fan.max_cones[0]
    x = GroupRingElement(
        sheaf.stalk(sigma), {(1, 2): 3, (0, -1): -1, (0, 0): 4}
    )
    pushed = x.pushforward(sheaf.restriction(sigma, z))
    assert pushed.terms == {(): x.augmentation()}


def test_section_check_on_p1_is_augmentation_match():
    fan = projective_line()
    sheaf = sheaf_a0(fan)
    c0, c1 = fan.max_cones
    q0, q1 = sheaf.stalk(c0), sheaf.stalk(c1)
    good = Section(
        sheaf,
        fan.full_subfan(),
        {
            c0: GroupRingElement(q0, {(2,): 1}),
            c1: GroupRingElement(q1, {(0,): 2, (1,): -1}),
        },
    )
    assert good.check()
    bad = Section(
        sheaf,
        fan.full_subfan(),
        {
            c0: GroupRingElement(q0, {(2,): 1}),
            c1: GroupRingElement(q1, {(0,): 2}),
        },
    )
    assert not bad.check()
    witness = bad.incompatible_pair()
    assert witness is not None and witness[2] == zero_cone(Lattice(1))


def test_constant_sections_are_sections():
    for fan in (projective_plane(), hirzebruch(2)):
        sheaf = sheaf_a0(fan)
        comps = {
            c: GroupRingElement.one(sheaf.stalk(c)).scale(7) for c in fan.max_cones
        }
        assert Section(sheaf, fan.full_subfan(), comps).check()


def test_single_cone_domain_always_compatible():
    fan = projective_plane()
    sheaf = sheaf_a0(fan)
    sigma = fan.max_cones[0]
    dom = fan.star_open(sigma)
    s = Section(
        sheaf, dom, {sigma: GroupRingElement(sheaf.stalk(sigma), {(3, -2): 5})}
    )
    assert s.check()


def test_restrict_section_roundtrip_and_transitivity():
    fan = projective_plane()
    sheaf = sheaf_a0(fan)
    rng = random.Random(4)
    s = random_section(sheaf, fan.full_subfan(), rng)
    assert s.restrict(fan.full_subfan()) == s
    sigma = fan.max_cones[0]
    star = fan.star_open(sigma)
    restricted = s.restrict(star)
    assert restricted.components[sigma] == s.components[sigma]
    ray = next(c for c in fan.faces_of(sigma) if c.dim == 1)
    tiny = fan.star_open(ray)
    assert s.restrict(tiny) == restricted.restrict(tiny)


def pushed_value(section, cone):
    """The component at a cone of the domain pushed forward from the
    first maximal cone of the domain containing it."""
    fan = section.sheaf.fan
    top = next(t for t in section.domain.max_cones() if cone in fan.faces_of(t))
    return section.components[top].pushforward(section.sheaf.restriction(top, cone))


def test_a_component_off_the_domains_maximal_cones_is_refused():
    # over the faces of one cone of P2, a component at another maximal
    # cone, or at a face of the domain that is not maximal in it, is
    # refused, not dropped
    fan = projective_plane()
    sheaf = sheaf_a0(fan)
    first, second = fan.max_cones[:2]
    domain = fan.star_open(first)
    one = {c: GroupRingElement.one(sheaf.stalk(c)) for c in fan.cones}
    for stray in (second, fan.faces_of(first)[1]):
        with pytest.raises(ValueError, match="not a maximal cone of the domain"):
            Section(sheaf, domain, {first: one[first], stray: one[stray]})
    assert Section(sheaf, domain, {first: one[first]}).check()


def test_restrict_matches_the_pushforward_from_a_maximal_cone():
    rng = random.Random(13)
    for fan in (projective_plane(), hirzebruch(2), p1_times_p1(), singular_quadric_cone_fan()):
        sheaf = sheaf_a0(fan)
        for _ in range(6):
            domain = random_open_subfan(fan, rng)
            s = random_section(sheaf, domain, rng)
            for cone in fan.cones:
                if cone in domain:
                    assert s.value_at(fan.index_of(cone)) == pushed_value(s, cone)
            picks = [c for c in domain.max_cones() if rng.random() < 0.5]
            faces = [f for c in picks for f in fan.faces_of(c)]
            smaller = Subfan(fan, [zero_cone(fan.lattice)] + faces)
            restricted = s.restrict(smaller)
            assert restricted.components == {
                c: pushed_value(s, c) for c in smaller.max_cones()
            }
            assert restricted.check()


BENCH_FANS = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "bench", "fans", "*.json"))
)


@pytest.mark.parametrize("path", BENCH_FANS, ids=os.path.basename)
def test_home_table_matches_the_scan(path):
    # value_at looks a cone's maximal cone up in its domain's table, and
    # the contraction of the cover complex in the whole fan's: it must be
    # the first maximal cone of the domain that the scan finds above it
    fan = build_fan(load_fan_file(path))
    sheaf = sheaf_a0(fan)
    rng = random.Random(os.path.basename(path))
    tables = 0
    domains = [random_open_subfan(fan, rng) for _ in range(6)] + [fan.full_subfan()]
    for domain in domains:
        s = random_section(sheaf, domain, rng)
        tops = domain.max_cones()
        for cone in sorted(domain.members, key=lambda c: (c.dim, c.rays)):
            assert s.value_at(fan.index_of(cone)) == pushed_value(s, cone)
        if len(tops) < len(domain.members):
            tables += 1
            # the table is keyed by cone number, and kept by the domain
            home = {c: next(t for t in tops if c in fan.faces_of(t)) for c in domain.members}
            assert domain.home() == {fan.index_of(c): fan.index_of(t) for c, t in home.items()}
            assert domain.home() is domain.home()
    assert tables
    # the whole fan's open set is kept with the fan, and so is its table
    assert fan.full_subfan().home() is fan.full_subfan().home()


def test_restrict_p1_section_to_zero_cone_star():
    fan = projective_line()
    sheaf = sheaf_a0(fan)
    c0, c1 = fan.max_cones
    s = Section(
        sheaf,
        fan.full_subfan(),
        {
            c0: GroupRingElement(sheaf.stalk(c0), {(1,): 2, (0,): 1}),
            c1: GroupRingElement(sheaf.stalk(c1), {(5,): 3}),
        },
    )
    z = zero_cone(Lattice(1))
    tiny = fan.star_open(z)
    r = s.restrict(tiny)
    assert r.components[z].terms == {(): 3}


def test_extend_full_domain_returns_same_section():
    fan = projective_plane()
    sheaf = sheaf_a0(fan)
    s = random_section(sheaf, fan.full_subfan(), random.Random(11))
    assert extend_section(s) is s


def test_extend_from_one_star_on_p1():
    fan = projective_line()
    sheaf = sheaf_a0(fan)
    c0 = fan.max_cones[0]
    dom = fan.star_open(c0)
    s = Section(sheaf, dom, {c0: GroupRingElement(sheaf.stalk(c0), {(3,): 1})})
    ext = extend_section(s, depth=3)
    assert isinstance(ext, Section)
    assert ext.check()
    assert ext.components[c0] == s.components[c0]
    assert ext.components[fan.max_cones[1]].augmentation() == 1


def test_extend_random_sections_on_smooth_fans():
    for fan in (projective_plane(), p1_times_p1(), hirzebruch(1)):
        sheaf = sheaf_a0(fan)
        rng = random.Random(7)
        for _ in range(5):
            dom = random_open_subfan(fan, rng)
            s = random_section(sheaf, dom, rng)
            ext = extend_section(s, depth=3)
            assert isinstance(ext, Section)
            assert ext.check()
            assert ext.restrict(dom) == s


def test_the_search_gives_up_on_a_quadric_cone_section_that_does_not_extend():
    # <m,(1,0)> and <m,(1,2)> have the same parity for every m, so chi^(1)
    # on the first ray and 1 on the second lift to no element of Z[M_sigma]
    fan = singular_quadric_cone_fan()
    sheaf = sheaf_a0(fan)
    rays = {c.rays[0]: c for c in fan.cones if c.dim == 1}
    first, second = rays[(1, 0)], rays[(1, 2)]
    s = Section(
        sheaf,
        fan.subfan([c for c in fan.cones if c.dim <= 1]),
        {
            first: GroupRingElement.character(sheaf.stalk(first), (1, 0)),
            second: GroupRingElement.one(sheaf.stalk(second)),
        },
    )
    assert s.check()
    for depth in (0, 3):
        outcome = extend_section(s, depth=depth)
        assert isinstance(outcome, SolverGaveUp) and outcome.rounds == depth


def test_global_sections_have_constant_augmentation():
    # connectivity through the zero cone forces equal augmentations
    rng = random.Random(3)
    for fan in (projective_plane(), p1_times_p1()):
        sheaf = sheaf_a0(fan)
        for _ in range(5):
            s = random_section(sheaf, fan.full_subfan(), rng)
            augs = {v.augmentation() for v in s.components.values()}
            assert len(augs) == 1


def test_random_section_on_full_p3_never_fails():
    # every pair of maximal cones of P^3 meets in a 2-face, so random
    # pairwise lifts rarely close up; sampling must still give a section
    fan = Fan.from_rays_and_indices(
        Lattice(3),
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
    )
    sheaf = sheaf_a0(fan)
    for seed in range(40):
        s = random_section(sheaf, fan.full_subfan(), random.Random(seed))
        assert s.check()
        assert any(not v.is_zero() for v in s.components.values())


def fallback_sections(sheaf, seed, drawn=lambda rng, domain: None):
    """``random_section`` on the whole fan and on an open subfan, each
    with its expected chi^m: while the draws give no section, the
    fallback's m is the first draw of the section's generator after what
    ``drawn`` takes from it."""
    fan = sheaf.fan
    rank = fan.lattice.rank
    for domain in (fan.full_subfan(), random_open_subfan(fan, random.Random(seed))):
        first = random.Random(seed)
        drawn(first, domain)
        m = [first.randint(-COORD_BOUND, COORD_BOUND) for _ in range(rank)]
        yield domain, m, random_section(sheaf, domain, random.Random(seed))


def assert_character_section(sheaf, domain, m, section):
    assert section.check()
    assert section.values == {
        c: GroupRingElement.character(sheaf.stalk_at(c), m) for c in domain.max_ids()
    }


def test_random_section_falls_back_to_a_character_off_smooth_fans(monkeypatch):
    # no nonzero solution is drawn: chi^m on every maximal cone
    monkeypatch.setattr(sheaves, "sample_nonzero_solution", lambda *args: None)
    sheaf = sheaf_a0(weighted_p2_fan())
    assert not sheaf.smooth
    for seed in (2, 9):
        for domain, m, section in fallback_sections(sheaf, seed):
            assert_character_section(sheaf, domain, m, section)


def test_random_section_falls_back_to_a_character_on_smooth_fans(monkeypatch):
    # every draw's tau-parts are zero, as every monomial drawn is: after
    # MAX_ATTEMPTS draws of SPARSE_DRAWS cones each (or all, on a smaller
    # domain), chi^m on every maximal cone
    draws = []
    monkeypatch.setattr(sheaves, "random_monomial", lambda cone, rng: draws.append(cone) or {})
    sheaf = sheaf_a0(projective_plane())

    def cones_drawn(rng, domain):
        ids = sorted(domain.ids)
        for _ in range(MAX_ATTEMPTS):
            rng.sample(ids, min(SPARSE_DRAWS, len(ids)))

    for seed in (2, 9):
        for domain, m, section in fallback_sections(sheaf, seed, cones_drawn):
            assert_character_section(sheaf, domain, m, section)
            assert len(draws) == MAX_ATTEMPTS * min(SPARSE_DRAWS, len(domain.ids))
            draws.clear()


def one_more_on_the_first(producer):
    """``_projected`` plus 1 on the first cone it builds."""
    built = []

    def off_by_one(*args):
        value = producer(*args)
        built.append(value)
        return value + GroupRingElement.one(value.group) if len(built) == 1 else value

    return off_by_one


def one_more_on_the_first_cone(producer):
    """The sampler's family plus 1 on its first cone."""

    def off_by_one(*args):
        values = producer(*args)
        first = min(values)
        values[first] = values[first] + GroupRingElement.one(values[first].group)
        return values

    return off_by_one


@pytest.mark.parametrize(
    "make, producer, corrupt",
    [
        (projective_plane, "_projected", one_more_on_the_first),
        (weighted_p2_fan, "sample_nonzero_solution", one_more_on_the_first_cone),
    ],
    ids=["smooth", "non-smooth"],
)
def test_a_sampled_family_that_is_no_section_is_refused(monkeypatch, make, producer, corrupt):
    # the producer's family plus 1 on its first cone: at the origin, that
    # cone's augmentation is off by one from every other cone's
    off_by_one = corrupt(getattr(sheaves, producer))

    monkeypatch.setattr(sheaves, producer, off_by_one)
    sheaf = sheaf_a0(make())
    with pytest.raises(CertificateError, match="sampled family is not a section"):
        random_section(sheaf, sheaf.fan.full_subfan(), random.Random(0))


def one_cone_section(fan):
    """A random section on the faces of the fan's first maximal cone."""
    sheaf = sheaf_a0(fan)
    domain = Subfan._trusted(fan, frozenset(fan.face_ids[fan.max_ids[0]]))
    return random_section(sheaf, domain, random.Random(0))


def test_an_extension_that_is_no_section_is_refused(monkeypatch):
    # the first cone outside the domain gets one more: at the origin its
    # augmentation is off by one from the domain's
    section = one_cone_section(projective_plane())
    monkeypatch.setattr(sheaves, "_projected", one_more_on_the_first(sheaves._projected))
    with pytest.raises(CertificateError, match="extension is not a global section"):
        extend_section(section)


def test_an_extension_that_restricts_elsewhere_is_refused(monkeypatch):
    # zero everywhere is a global section, but not one above a nonzero section
    def zero_extension(section):
        sheaf = section.sheaf
        zero = {c: GroupRingElement.zero(sheaf.stalk_at(c)) for c in sheaf.fan.max_ids}
        return Section.by_id(sheaf, sheaf.fan.full_subfan(), zero)

    section = one_cone_section(projective_plane())
    assert any(v.terms for v in section.values.values())
    monkeypatch.setattr(sheaves, "_split_extension", zero_extension)
    with pytest.raises(CertificateError, match="extension does not restrict to the given section"):
        extend_section(section)


def every_meet_is_the_zero_cone(fan, i, j):
    """``Fan.meet_id`` gone wrong: the pair scan of ``first_disagreement``
    then compares augmentations only, where the incidence walk, which
    reads the faces, still sees each true meet."""
    return fan.index_of(zero_cone(fan.lattice))


def test_a_disagreement_that_no_pair_has_is_refused(monkeypatch):
    # x^(1,0) on cone 0 and 1 elsewhere differ on a ray of cone 0, and
    # have the same augmentation
    fan = projective_plane()
    ring = H0Ring(fan)
    values = {c: GroupRingElement.one(ring.sheaf.stalk_at(c)) for c in fan.max_ids}
    first = fan.max_ids[0]
    values[first] = GroupRingElement(ring.sheaf.stalk_at(first), {(1, 0): 1})
    section = Section.by_id(ring.sheaf, ring.domain, values)
    monkeypatch.setattr(Fan, "meet_id", every_meet_is_the_zero_cone)
    with pytest.raises(CertificateError, match="found a disagreement that no pair has"):
        ring.membership(section)


DISAGREEMENT_SCRIPT = textwrap.dedent(
    """
    import sys
    from kfan import cli, cones

    if __debug__:
        sys.exit("run this under python -O")

    def every_meet_is_the_zero_cone(fan, i, j):
        return fan.index_of(cones.zero_cone(fan.lattice))

    cones.Fan.meet_id = every_meet_is_the_zero_cone
    print(cli.main(["k0-global", sys.argv[1], "--element", sys.argv[2]]))
    """
)


def test_a_disagreement_that_no_pair_has_exits_1_under_python_O():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    p2 = os.path.join(os.path.dirname(__file__), os.pardir, "fans", "p2.json")
    element = json.dumps({"0": [[[1, 0], 1]], "1": [[[0, 0], 1]], "2": [[[0, 0], 1]]})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", DISAGREEMENT_SCRIPT, p2, element],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]
    assert "found a disagreement that no pair has" in proc.stderr


# the non-smooth fan files with two or more maximal cones
NON_SMOOTH_COVERS = [
    os.path.join(os.path.dirname(__file__), "golden", name)
    for name in ("weighted-p2.json", "p2-mod-z3.json", "p1xp1-mod-z2.json", "cube.json")
]


def cover_equations_hold(section, cones) -> bool:
    """Does the family satisfy the level-0 equations d(x) = 0 that
    ``cover_system`` states on the cover of its domain by ``cones``, the
    domain's maximal cones in any order?  Each equation is summed term
    by term."""
    _slots, constraints = sheaves.cover_system(section.sheaf, cones, 0, {})
    x = {(i,): section.values[c] for i, c in enumerate(cones)}
    for c in constraints:
        total = GroupRingElement.zero(c.target)
        for s, sign, phi in c.terms:
            pushed = x[s].pushforward(phi)
            total = total + pushed if sign > 0 else total - pushed
        if total != c.rhs:
            return False
    return True


@pytest.mark.parametrize("path", NON_SMOOTH_COVERS, ids=os.path.basename)
def test_a_family_is_a_section_exactly_when_its_cover_equations_hold(path):
    # sampled sections, the same with 1 added on one cone, and random
    # characters cone by cone, on random open subfans, the cover taken
    # in a random order
    fan = build_fan(load_fan_file(path))
    sheaf = sheaf_a0(fan)
    assert not sheaf.smooth
    rng = random.Random(7)
    verdicts = set()
    for _ in range(6):
        domain = random_open_subfan(fan, rng)
        ids = domain.max_ids()
        member = random_section(sheaf, domain, rng).values
        first = ids[0]
        shifted = {**member, first: member[first] + GroupRingElement.one(member[first].group)}
        characters = {
            c: GroupRingElement.character(
                sheaf.stalk_at(c), [rng.randint(-1, 1) for _ in range(fan.lattice.rank)]
            )
            for c in ids
        }
        for values in (member, shifted, characters):
            section = Section.by_id(sheaf, domain, values)
            verdict = section.check()
            assert cover_equations_hold(section, rng.sample(ids, len(ids))) == verdict
            verdicts.add(verdict)
    assert verdicts == {True, False}


def every_fan():
    """Every fan file in fans/ and bench/fans/, and a weighted P2."""
    here = os.path.dirname(__file__)
    paths = glob.glob(os.path.join(here, os.pardir, "fans", "*.json"))
    paths += glob.glob(os.path.join(here, os.pardir, "bench", "fans", "*.json"))
    fans = [(os.path.basename(p), build_fan(load_fan_file(p))) for p in sorted(paths)]
    return fans + [("weighted-p2", weighted_p2_fan())]


@pytest.mark.parametrize("fan", [pytest.param(fan, id=name) for name, fan in every_fan()])
def test_shared_stalks_and_restrictions_are_those_of_each_cone(fan):
    # off smooth fans a restriction is the canonical surjection; on them
    # it is the picker, which the ray charts carry onto it
    sheaf = sheaf_a0(fan)
    for sigma in fan.cones:
        if not sheaf.smooth:
            assert sheaf.stalk(sigma) is sigma.character_quotient()
        for tau in fan.faces_of(sigma):
            phi = sheaf.restriction(sigma, tau)
            fresh = canonical_surjection(sigma.character_quotient(), tau.character_quotient())
            if sheaf.smooth:
                assert isinstance(phi, sheaves.RayRestriction)
                assert phi.source == sheaf.stalk(sigma) and phi.target == sheaf.stalk(tau)
                chart_sigma, chart_tau = sheaf.stalk(sigma).chart()[0], sheaf.stalk(tau).chart()[0]
                assert chart_tau @ fresh.matrix == matrix_of(phi) @ chart_sigma
            else:
                assert phi.source == fresh.source and phi.target == fresh.target
                assert phi.matrix == fresh.matrix and phi.splitting == fresh.splitting


def test_an_interned_stalk_is_checked_against_the_cone_that_takes_it(monkeypatch):
    # the maximal cones of P1 x P1 share one perp lattice (zero), so the
    # second reads the group reduced for the first: its rank must still
    # be checked
    path = os.path.join(os.path.dirname(__file__), os.pardir, "fans", "p1xp1.json")
    fan = build_fan(load_fan_file(path))
    first, second = fan.max_cones[:2]
    assert first.perp_lattice().rows == second.perp_lattice().rows
    group = first.character_quotient()
    assert second.character_quotient() is group
    monkeypatch.setattr(second, "dim", 1)
    with pytest.raises(CertificateError, match="is not free of rank 1"):
        second.character_quotient()


def first_failure_checking_every_chain(sheaf):
    """The reference for the per-object certificate of ``FanSheaf``:
    read every stalk and face pair, then check the identity on every
    cone and functoriality on every chain.  The first failure, or
    None.  Every stalk is free, so a restriction is its matrix."""
    fan = sheaf.fan
    for sigma in fan.cones:
        k = sheaf.stalk(sigma).coords_len
        if matrix_of(sheaf.restriction(sigma, sigma)) != IntMatrix.identity(k):
            return f"restriction of {sigma!r} to itself is not the identity"
    for sigma in fan.cones:
        for tau in fan.faces_of(sigma)[:-1]:
            for rho in fan.faces_of(tau)[:-1]:
                via = matrix_of(sheaf.restriction(tau, rho)) @ matrix_of(sheaf.restriction(sigma, tau))
                if matrix_of(sheaf.restriction(sigma, rho)) != via:
                    return f"restrictions {sigma!r} -> {tau!r} -> {rho!r} are not functorial"
    return None


@pytest.mark.parametrize("fan", [pytest.param(fan, id=name) for name, fan in every_fan()])
def test_every_chain_is_functorial_by_the_reference_loop(fan):
    # in the fan's order and in reverse: whichever cone reads a stalk or
    # a map first, the certified objects satisfy every chain
    for order in (fan.cones, fan.cones[::-1]):
        sheaf = sheaf_a0(fan)
        for sigma in order:
            for tau in fan.faces_of(sigma):
                sheaf.restriction(sigma, tau)
        assert first_failure_checking_every_chain(sheaf) is None


def test_a_stalk_whose_projection_is_not_onto_is_rejected_on_first_read(monkeypatch):
    # free quotients of the right rank whose projection misses half the
    # group: P S = 2 I, so P is not onto and no map from one is certified
    def doubled(ambient, relations):
        q = quotient(ambient, relations)
        section = IntMatrix([[2 * x for x in row] for row in q.section.rows], ncols=q.section.ncols)
        return QuotientLattice(ambient, relations, (), q.free_rank, q.projection, section)

    fan = projective_plane()
    sheaf = sheaf_a0(fan)  # builds nothing
    monkeypatch.setattr("kfan.cones.quotient", doubled)
    ray = next(c for c in fan.cones if c.dim == 1)
    with pytest.raises(CertificateError, match="not onto"):
        sheaf.stalk(ray).chart()


def p1_cubed():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "fans", "p1xp1xp1.json")
    return build_fan(load_fan_file(path))


def fully_read(fan):
    sheaf = sheaf_a0(fan)
    for sigma in fan.cones:
        for tau in fan.faces_of(sigma):
            sheaf.restriction(sigma, tau)
    return sheaf


def negate_memoized(sheaf, sigma, tau):
    # the sheaf keeps its maps by source cone number, then face number
    maps = sheaf._restrictions[sheaf.fan.index_of(sigma)]
    phi = maps[sheaf.fan.index_of(tau)]
    matrix = matrix_of(phi)
    negated = IntMatrix([[-x for x in row] for row in matrix.rows], ncols=matrix.ncols)
    maps[sheaf.fan.index_of(tau)] = QuotientSurjection(phi.source, phi.target, negated)


def test_the_reference_loop_names_a_broken_chain():
    # P1xP1xP1 has chains sigma > tau > rho with rho a ray, so each map
    # of the chain has a nonzero matrix; negating the memoized map
    # sigma -> rho breaks exactly the chains through it
    fan = p1_cubed()
    sheaf = fully_read(fan)
    sigma = fan.max_cones[0]
    tau, rho = next(
        (tau, rho)
        for tau in fan.faces_of(sigma)[:-1]
        for rho in fan.faces_of(tau)[:-1]
        if rho.dim == 1
    )
    negate_memoized(sheaf, sigma, rho)
    assert first_failure_checking_every_chain(sheaf) == (
        f"restrictions {sigma!r} -> {tau!r} -> {rho!r} are not functorial"
    )


@pytest.mark.parametrize(
    "fan", [pytest.param(projective_plane(), id="p2"), pytest.param(p1_cubed(), id="p1xp1xp1")]
)
def test_the_reference_loop_names_a_broken_identity(fan):
    sheaf = fully_read(fan)
    sigma = next(c for c in fan.cones if c.dim == 1)
    negate_memoized(sheaf, sigma, sigma)
    assert first_failure_checking_every_chain(sheaf) == (
        f"restriction of {sigma!r} to itself is not the identity"
    )


def test_p1_cubed_membership_builds_only_the_maps_it_reads(monkeypatch):
    # on a smooth fan each restriction read is one picker, built once
    # per face pair, and no canonical surjection is built
    fan = p1_cubed()
    ring = H0Ring(fan)
    member = ring.character((1, -2, 3))
    built, read = [], set()
    restriction, picker_restriction = FanSheaf.restriction_at, sheaves.RayRestriction

    def refuse(source, target):
        raise AssertionError("a canonical surjection was built on a smooth fan")

    def counted_picker(source, target):
        built.append((source.cone, target.cone))
        return picker_restriction(source, target)

    def recorded(self, i, j):
        read.add((fan.cones[i], fan.cones[j]))
        return restriction(self, i, j)

    monkeypatch.setattr(sheaves, "canonical_surjection", refuse)
    monkeypatch.setattr(sheaves, "RayRestriction", counted_picker)
    monkeypatch.setattr(FanSheaf, "restriction_at", recorded)
    assert ring.membership(member) == (True, None)
    assert len(fan.cones) == 27 and len(walls(fan)) == 12
    # two maximal cones at each wall, one picker per face pair read
    assert len(read) == 24 and {tau for _, tau in read} == {tau for _, _, tau in walls(fan)}
    assert len(built) == len(set(built)) == len(read) and set(built) == read
    assert len(built) < 27


# -- global sections checked by incidences ---------------------------------


def pairwise_disagreement(sheaf, cones, values):
    """The plain scan over all pairs, the reference for
    ``first_disagreement``: the first pair i < j whose values differ on
    their meet."""
    fan = sheaf.fan
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            meet = fan.intersection(cones[i], cones[j])
            a = values[i].pushforward(sheaf.restriction(cones[i], meet))
            b = values[j].pushforward(sheaf.restriction(cones[j], meet))
            if a != b:
                return i, j, meet, b - a
    return None


def first_disagreement(sheaf, cones, values):
    """``sheaves.first_disagreement`` over these cones, called with their
    numbers, with the meet it names read back as a cone."""
    fan = sheaf.fan
    found = sheaves.first_disagreement(sheaf, [fan.index_of(c) for c in cones], values)
    return found and (*found[:2], fan.cones[found[2]], found[3])


def ridge_criterion(fan):
    """Complete by the ridge criterion, in any rank: every maximal cone
    full-dimensional, every ridge in exactly two of them."""
    n = fan.lattice.rank
    return all(c.dim == n for c in fan.max_cones) and all(
        sum(ridge in fan.faces_of(c) for c in fan.max_cones) == 2
        for ridge in fan.cones
        if ridge.dim == n - 1
    )


def complete_fans():
    here = os.path.dirname(__file__)
    paths = glob.glob(os.path.join(here, os.pardir, "fans", "*.json"))
    paths += glob.glob(os.path.join(here, os.pardir, "bench", "fans", "*.json"))
    paths += glob.glob(os.path.join(here, "golden", "*.json"))
    out = []
    for p in sorted(paths):
        with open(p) as f:
            if "lattice_rank" not in json.load(f):
                continue  # a report
        fan = build_fan(load_fan_file(p))
        if ridge_criterion(fan):
            out.append((os.path.relpath(p, os.path.join(here, os.pardir)), fan))
    return out + [("ladder-64", ladder_fan(64))]


def ladder_fan(n):
    return Fan.from_rays_and_indices(*ladder(n))


def with_one_monomial_added(sheaf, comps, rng):
    """The components with one monomial added on one maximal cone: not a
    section when there are two or more maximal cones."""
    cone = rng.choice(sorted(comps, key=lambda c: c.rays))
    m = [rng.randint(-3, 3) for _ in range(sheaf.fan.lattice.rank)]
    return {**comps, cone: comps[cone] + GroupRingElement.character(sheaf.stalk(cone), m)}


def assert_the_scan_matches_the_pairwise_scan(fan, rng):
    sheaf = sheaf_a0(fan)
    orders = [list(fan.max_cones), list(fan.full_subfan().max_cones()), list(fan.max_cones)[::-1]]
    orders.append(rng.sample(orders[0], len(orders[0])))
    verdicts = []
    for _ in range(2):
        member = random_section(sheaf, fan.full_subfan(), rng).components
        for comps in (member, with_one_monomial_added(sheaf, member, rng)):
            for cones in orders:
                values = [comps[c] for c in cones]
                found = first_disagreement(sheaf, cones, values)
                assert found == pairwise_disagreement(sheaf, cones, values)
                verdicts.append(found is None)
    assert set(verdicts) == ({True, False} if len(fan.max_cones) > 1 else {True})


# the complete fans with a maximal cone that is not simplicial, which
# the wall certificate does not cover: the cube's face fan has squares
NOT_SIMPLICIAL = {"tests/golden/cube.json"}


@pytest.mark.parametrize("name,fan", [pytest.param(name, fan, id=name) for name, fan in complete_fans()])
def test_the_wall_scan_matches_the_pairwise_scan_on_complete_fans(name, fan):
    simplicial = all(c.is_simplicial() for c in fan.max_cones)
    assert simplicial == (name not in NOT_SIMPLICIAL)
    if fan.lattice.rank >= 2:
        if simplicial:
            assert walls(fan)
        else:
            assert _certified_walls(fan.lattice.rank, list(fan.max_cones)) is None
    assert_the_scan_matches_the_pairwise_scan(fan, random.Random(len(fan.cones)))


@pytest.mark.parametrize("name", ["ladder-12.json", "p3.json", "p1xp1xp1.json", "bl1p2.json"])
def test_the_wall_scan_matches_the_pairwise_scan_under_gl_n_and_reordering(name):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "fans", name)
    fan = build_fan(load_fan_file(path))
    rng = random.Random(name)
    for _ in range(3):
        other, _ = moved(fan, random_unimodular(fan.lattice.rank, rng), rng)
        assert len(walls(other)) == len(walls(fan))
        assert_the_scan_matches_the_pairwise_scan(other, rng)


def test_a_member_costs_at_most_two_pushforwards_per_incidence(monkeypatch):
    fan = ladder_fan(64)
    sheaf = sheaf_a0(fan)
    section = random_section(sheaf, fan.full_subfan(), random.Random(3))
    incidences = sum(len(fan.faces_of(c)) for c in fan.max_cones)
    calls = count_pushforwards(monkeypatch)
    assert section.check()
    assert 0 < len(calls) <= 2 * incidences == 512
    assert all(isinstance(phi, sheaves.RayRestriction) for phi in calls)
    calls.clear()
    values = [section.components[c] for c in fan.max_cones]
    assert first_disagreement(sheaf, fan.max_cones, values) is None
    assert 0 < len(calls) <= 2 * incidences
    assert all(isinstance(phi, sheaves.RayRestriction) for phi in calls)


@pytest.mark.parametrize("make", [p1_cubed, lambda: ladder_fan(64)], ids=["p1xp1xp1", "ladder-64"])
def test_membership_costs_at_most_two_pushforwards_per_wall(monkeypatch, make):
    # in the fan's order each maximal cone is compared only at the
    # maximal faces it shares with earlier cones: here walls, each read
    # by its two cones; Section.check walks the whole fan in that order
    fan = make()
    ring = H0Ring(fan)
    section = random_section(ring.sheaf, fan.full_subfan(), random.Random(5))
    for decide in (ring.membership, Section.check):
        calls = count_pushforwards(monkeypatch)
        assert decide(section) in ((True, None), True)
        assert 0 < len(calls) <= 2 * len(walls(fan))
        assert all(isinstance(phi, sheaves.RayRestriction) for phi in calls)


def test_the_verdict_does_not_read_the_walls():
    fan = ladder_fan(12)
    sheaf = sheaf_a0(fan)
    rng = random.Random(7)
    member = random_section(sheaf, fan.full_subfan(), rng).components
    cones = fan.max_cones
    for comps in (member, with_one_monomial_added(sheaf, member, rng)):
        values = [comps[c] for c in cones]
        found = first_disagreement(sheaf, cones, values)
        assert found == pairwise_disagreement(sheaf, cones, values)


@pytest.mark.parametrize("name", ["p1xp1xp1.json", "p3.json", "ladder-12.json"])
def test_a_family_that_differs_at_one_wall_only_is_caught(name):
    # adding the ridge's top part (prod over its rays of (x_i - 1)) to one
    # cone at a wall changes its value at that ridge and nowhere below:
    # the walk must compare every maximal shared face, not only the first
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "fans", name)
    fan = build_fan(load_fan_file(path))
    sheaf = sheaf_a0(fan)
    member = random_section(sheaf, fan.full_subfan(), random.Random(name)).components
    for a, b, ridge in walls(fan):
        for cone in (a, b):
            part = top_part({(1,) * len(ridge.rays): 1})
            i, j = fan.index_of(cone), fan.index_of(ridge)
            bump = GroupRingElement(sheaf.stalk(cone), assemble(sheaf, {j: part}, i, [j]))
            comps = {**member, cone: member[cone] + bump}
            for cones in (fan.max_cones, fan.full_subfan().max_cones()):
                values = [comps[c] for c in cones]
                found = first_disagreement(sheaf, cones, values)
                assert found is not None
                assert found == pairwise_disagreement(sheaf, cones, values)
