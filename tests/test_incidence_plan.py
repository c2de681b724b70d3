"""The differential read off the tuples' entries, against the textbook sum.

``reference_d`` is the plain differential: for every tuple t of the next
level, the sum over j of (-1)^j times the pushforward of c_{t minus j}
along the sheaf's restriction from the meet of t minus j onto the meet
of t, one pushforward per (tuple, dropped index).  ``CechComplex.d``
pushes each component once per distinct meet and passes it through
where the meet is its own; both must agree on random cochains (not only
cocycles) at every level below the top.

``reference_disagreement`` is the plain meet-agreement test: push both
values of every pair to their meet and compare.
``sheaves.first_disagreement``, which serves both ``Section.check`` and
H0 membership, must find the same first pair and difference.
"""

import glob
import os
import random
from itertools import combinations, product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kfan.cech import CechComplex, Cochain, H0Ring, LevelOverflow
from kfan.cones import Fan
from kfan.fanfile import build_fan, load_fan_file
from kfan.intlinalg import IntMatrix, Lattice, QuotientSurjection
from kfan.monoids import GroupRingElement
from kfan.sheaves import (
    Section,
    cover_system,
    first_disagreement,
    random_open_subfan,
    random_section,
)
from test_cech import level_tuples
from test_constructive import random_smooth_fans
from test_fan_construction import ladder

HERE = os.path.dirname(__file__)
FAN_FILES = sorted(
    glob.glob(os.path.join(HERE, os.pardir, "fans", "*.json"))
    + glob.glob(os.path.join(HERE, os.pardir, "bench", "fans", "*.json"))
)


def load(path):
    return build_fan(load_fan_file(path))


def bench_fan(name):
    return load(os.path.join(HERE, os.pardir, "bench", "fans", f"{name}.json"))


def weighted_p2():
    """P(1,1,2): complete and not smooth; two of its restrictions are not
    selection maps."""
    rays = [(1, 0), (0, 1), (-1, -2)]
    return Fan.from_rays_and_indices(Lattice(2), rays, [[0, 1], [1, 2], [2, 0]])


def cube_face_fan():
    """The cones over the six square faces of [-1, 1]^3: complete, and
    no maximal cone is simplicial."""
    rays = list(product((1, -1), repeat=3))
    faces = [[i for i, v in enumerate(rays) if v[k] == side] for k in range(3) for side in (1, -1)]
    return Fan.from_rays_and_indices(Lattice(3), rays, faces)


def apart_at_the_origin():
    """Two opposite quadrants and a ray between them: every pair of
    maximal cones meets only at the origin."""
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1), (-1, 1)]
    return Fan.from_rays_and_indices(Lattice(2), rays, [[0, 1], [2, 3], [4]])


FANS = [(os.path.basename(p), lambda p=p: load(p)) for p in FAN_FILES] + [
    ("weighted-p2", weighted_p2),
    ("cube-face-fan", cube_face_fan),
    ("apart-at-the-origin", apart_at_the_origin),
]


def random_element(group, rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        torsion = [rng.randrange(d) for d in group.invariant_factors]
        free = [rng.randint(-2, 2) for _ in range(group.free_rank)]
        terms[tuple(torsion + free)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return GroupRingElement(group, terms)


def random_cochain(cx, level, rng, density):
    """Random components on about ``density`` of the tuples, and on one
    at least."""
    tuples = level_tuples(cx, level)
    picked = {rng.choice(tuples)} | {t for t in tuples if rng.random() < density}
    return Cochain(cx, level, {t: random_element(cx.stalk(t), rng) for t in picked})


def section_of(ring, c):
    """The level-0 cochain c as a family on the whole fan, zero where c
    has no component."""
    comps = {
        cone: c.components.get((i,), GroupRingElement.zero(ring.sheaf.stalk(cone)))
        for i, cone in enumerate(ring.fan.max_cones)
    }
    return Section(ring.sheaf, ring.domain, comps)


def matrix_of(phi) -> IntMatrix:
    """The matrix of a restriction: a picker's columns are the images of
    the unit vectors."""
    if isinstance(phi, QuotientSurjection):
        return phi.matrix
    k = phi.source.coords_len
    columns = [phi.apply(tuple(int(i == j) for i in range(k))) for j in range(k)]
    return IntMatrix(zip(*columns), ncols=k) if columns else IntMatrix.zero(phi.target.coords_len, 0)


def reference_d(cx, c):
    out = {}
    for t in level_tuples(cx, c.level + 1):
        acc = GroupRingElement.zero(cx.stalk(t))
        for j in range(len(t)):
            s = t[:j] + t[j + 1 :]
            if s in c.components:
                restriction = cx.sheaf.restriction(cx.cone_of(s), cx.cone_of(t))
                pushed = c.components[s].pushforward(restriction)
                acc = acc - pushed if j % 2 else acc + pushed
        out[t] = acc
    return Cochain(cx, c.level + 1, out)


@pytest.mark.parametrize("name,make", FANS, ids=[name for name, _ in FANS])
def test_plan_d_matches_the_reference_on_random_cochains(name, make):
    cx = CechComplex(make())
    rng = random.Random(name)
    for level in range(cx.top_level):
        for density in (0.3, 1.0):
            c = random_cochain(cx, level, rng, density)
            assert cx.d(c) == reference_d(cx, c)
    with pytest.raises(LevelOverflow):
        cx.d(Cochain(cx, cx.top_level, {}))


def smooth_fans_of_ranks_2_to_4():
    p4 = os.path.join(HERE, "golden", "p4.json")
    return st.one_of(random_smooth_fans(), st.just(p4).map(load))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fan=smooth_fans_of_ranks_2_to_4(), seed=st.integers(0, 2**32))
def test_walk_signs_and_meets_match_the_reference(fan, seed):
    # the walk over (s, i) takes each coface's sign from the position of
    # i and its meet from the meet of s: random cochains, with the
    # maximal cones in a random order, against the textbook sum
    rng = random.Random(seed)
    shuffled = rng.sample(fan.max_cones, len(fan.max_cones))
    cx = CechComplex(Fan.from_max_cones(fan.lattice, shuffled))
    for level in range(cx.top_level):
        c = random_cochain(cx, level, rng, rng.choice((0.2, 1.0)))
        dc = cx.d(c)
        assert dc == reference_d(cx, c)
        if level + 1 < cx.top_level:
            assert cx.d(dc).is_zero()


@pytest.mark.parametrize("name,make", FANS, ids=[name for name, _ in FANS])
def test_plan_faces_are_the_incidences(name, make):
    # each equation's signed faces come with the sheaf's restrictions;
    # a face with the tuple's own meet reads the identity, the same map
    # as the meet's restriction to itself
    cx = CechComplex(make())
    for level in range(0, min(cx.top_level, 3)):
        slots, constraints = cover_system(cx.sheaf, cx.fan.max_ids, level, {})
        assert list(slots) == list(level_tuples(cx, level))
        assert all(slots[s] is cx.stalk(s) for s in slots)
        assert [c.key for c in constraints] == list(level_tuples(cx, level + 1))
        for c in constraints:
            t, meet = c.key, cx.cone_of(c.key)
            assert c.target is cx.stalk(t)
            assert [(s, sign) for s, sign, _ in c.terms] == [
                (t[:j] + t[j + 1 :], -1 if j % 2 else 1) for j in range(len(t))
            ]
            for s, _, restriction in c.terms:
                assert restriction is cx.sheaf.restriction(cx.cone_of(s), meet)
                if cx.cone_of(s) == meet:
                    assert restriction is cx.sheaf.restriction(meet, meet)
                    assert matrix_of(restriction) == IntMatrix.identity(cx.stalk(t).coords_len)


def test_membership_witness_matches_the_reference():
    rng = random.Random(3)
    for name in ("p1xp1xp1", "ladder-8", "f1"):
        fan = bench_fan(name)
        ring, cx = H0Ring(fan), CechComplex(fan)
        for _ in range(4):
            c = random_cochain(cx, 0, rng, 0.7)
            ok, witness = ring.membership(section_of(ring, c))
            dc = reference_d(cx, c)
            assert ok == dc.is_zero()
            if not ok:
                t = min(dc.components)
                assert witness == (t, dc.components[t])


def count_pushforwards(monkeypatch):
    calls = []
    push = GroupRingElement.pushforward

    def counting(self, phi):
        calls.append(phi)
        return push(self, phi)

    monkeypatch.setattr(GroupRingElement, "pushforward", counting)
    return calls


@pytest.mark.parametrize("name", ["p1xp1xp1", "ladder-12"])
def test_one_d_pushes_each_component_once_per_meet(monkeypatch, name):
    fan = bench_fan(name)
    rng = random.Random(5)
    for level in (1, 2):
        cx = CechComplex(fan)
        for c in (cx.random_cocycle(level, rng), random_cochain(cx, level, rng, 1.0)):
            distinct, naive = set(), 0
            for t in level_tuples(cx, level + 1):
                for j in range(len(t)):
                    s = t[:j] + t[j + 1 :]
                    if s in c.components:
                        naive += 1
                        if cx.cone_of(s) != cx.cone_of(t):
                            distinct.add((s, cx.cone_of(t)))
            calls = count_pushforwards(monkeypatch)
            dc = cx.d(c)
            monkeypatch.undo()
            assert len(calls) == len(distinct) < naive
            assert dc == reference_d(cx, c)
            if name == "ladder-12":
                # only the 12 pairs of neighbours meet in a ray; every
                # triple meets in the origin, as does everything above
                assert len(calls) <= (12 if level == 1 else 0)


def reference_disagreement(sheaf, cones, values, meet_of):
    for i, j in combinations(range(len(cones)), 2):
        meet = meet_of(i, j)
        a = values[i].pushforward(sheaf.restriction(cones[i], meet))
        b = values[j].pushforward(sheaf.restriction(cones[j], meet))
        if a != b:
            return i, j, meet, b - a
    return None


def corrupted(sheaf, comps, rng):
    """The components with a random element added to one of them."""
    cone = rng.choice(sorted(comps, key=lambda c: c.rays))
    return {**comps, cone: comps[cone] + random_element(sheaf.stalk(cone), rng)}


def checked_scan(monkeypatch, sheaf, cones, values):
    """``first_disagreement`` over these cones, checked against the
    reference, and with at most one pushforward per (cone, meet) pair."""
    fan = sheaf.fan

    def meet_of(i, j):
        return fan.intersection(cones[i], cones[j])

    expected = reference_disagreement(sheaf, cones, values, meet_of)
    calls = count_pushforwards(monkeypatch)
    got = first_disagreement(sheaf, [fan.index_of(c) for c in cones], values)
    monkeypatch.undo()
    # the scan names the meet by its cone number
    assert got == (expected and (*expected[:2], fan.index_of(expected[2]), expected[3]))
    pairs = combinations(range(len(cones)), 2)
    assert len(calls) <= len({(k, meet_of(i, j)) for i, j in pairs for k in (i, j)})
    return expected


@pytest.mark.parametrize("name,make", FANS, ids=[name for name, _ in FANS])
def test_first_disagreement_matches_the_reference(monkeypatch, name, make):
    # members, non-members and members with one corrupted component, on
    # the whole fan and on random open subfans: scanned in the domain's
    # order as Section.check reads them, and on the whole fan also in
    # the fan's order as H0 membership reads them
    ring = H0Ring(make())
    fan, sheaf = ring.fan, ring.sheaf
    rng = random.Random(name)
    whole, tops = fan.full_subfan(), fan.max_cones
    families = []
    for m in [(0,) * fan.lattice.rank, tuple(rng.randint(-3, 3) for _ in range(fan.lattice.rank))]:
        families.append((whole, ring.character(m).components))
    for domain in (whole, random_open_subfan(fan, rng), random_open_subfan(fan, rng)):
        families.append((domain, random_section(sheaf, domain, rng).components))
    candidate = random_cochain(CechComplex(fan), 0, rng, 0.7)
    families.append((whole, section_of(ring, candidate).components))
    families += [(domain, corrupted(sheaf, comps, rng)) for domain, comps in families]
    verdicts = set()
    for domain, comps in families:
        cones = domain.max_cones()
        found = checked_scan(monkeypatch, sheaf, cones, [comps[c] for c in cones])
        assert Section(sheaf, domain, comps).incompatible_pair() == (
            found and (cones[found[0]], cones[found[1]], found[2])
        )
        if domain == whole:
            values = [comps[c] for c in tops]
            found = checked_scan(monkeypatch, sheaf, tops, values)
            assert ring.membership(Section(sheaf, whole, comps)) == (
                (True, None) if found is None else (False, (found[:2], found[3]))
            )
            verdicts.add(found is None)
    assert verdicts == ({True, False} if len(tops) > 1 else {True})
    # any list of distinct cones of the fan, faces included, in any order
    section = Section(sheaf, whole, families[2][1])
    cones = rng.sample(fan.cones, rng.randint(2, len(fan.cones)))
    values = [section.value_at(fan.index_of(c)) for c in cones]
    assert checked_scan(monkeypatch, sheaf, cones, values) is None
    k = rng.randrange(len(cones))
    values[k] = values[k] + random_element(sheaf.stalk(cones[k]), rng)
    checked_scan(monkeypatch, sheaf, cones, values)


def test_a_member_on_an_open_subfan_looks_up_no_meet(monkeypatch):
    # the verdict reads the faces of each maximal cone of the domain; no
    # pair of them is met unless the family disagrees somewhere
    fan = Fan.from_rays_and_indices(*ladder(256))
    sheaf = H0Ring(fan).sheaf
    rng = random.Random(11)
    sections = [random_section(sheaf, random_open_subfan(fan, rng), rng) for _ in range(5)]
    calls = []
    meet = Fan.intersection

    def counting(self, a, b):
        calls.append((a, b))
        return meet(self, a, b)

    monkeypatch.setattr(Fan, "intersection", counting)
    for section in sections:
        assert len(section.components) > 1 and section.check()
    assert calls == []
