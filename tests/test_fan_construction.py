"""Fan construction against a reference, call counts and reordering.

``reference_fan`` is the plain construction: every maximal cone builds
its own faces with ``Cone.faces()``, faces are merged by equality, and
each pair of maximal cones is checked with ``Cone.intersection``.
``Fan.from_max_cones`` builds each face once from a shared table and
must give the same cones (rays, facets and dimension), maximal cones
and face lists.
"""

import glob
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kfan.cones import Cone, Fan, NotAFan, zero_cone
from kfan.fanfile import load_fan_file
from kfan.intlinalg import Lattice

Z2, Z3 = Lattice(2), Lattice(3)
HERE = os.path.dirname(__file__)
FAN_FILES = sorted(
    glob.glob(os.path.join(HERE, os.pardir, "fans", "*.json"))
    + glob.glob(os.path.join(HERE, os.pardir, "bench", "fans", "*.json"))
)
SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def reference_fan(lattice, given):
    """(cones, max_cones, faces_of) of the fan of ``given``, or NotAFan."""
    maximal = []
    for c in given:
        if any(c != d and c in d.faces() for d in given):
            continue
        if c not in maximal:
            maximal.append(c)
    for i in range(len(maximal)):
        for j in range(i + 1, len(maximal)):
            meet = maximal[i].intersection(maximal[j])
            if not (meet in maximal[i].faces() and meet in maximal[j].faces()):
                raise NotAFan(i, j)
    collected = {}
    for c in maximal:
        for f in c.faces():
            collected.setdefault(f, f)
    z = zero_cone(lattice)
    collected.setdefault(z, z)
    if not maximal:
        maximal = [collected[z]]
    cones = sorted(collected.values(), key=lambda c: (c.dim, c.rays))
    canon = {c: c for c in cones}
    faces_of = [tuple(canon[f] for f in c.faces()) for c in cones]
    return cones, [canon[c] for c in maximal], faces_of


def tables(cones, max_cones, faces_of):
    """Everything a fan reports, as plain data."""
    return (
        [(c.rays, c.facets, c.dim) for c in cones],
        [c.rays for c in max_cones],
        [[f.rays for f in fs] for fs in faces_of],
    )


def fan_tables(fan):
    return tables(fan.cones, fan.max_cones, [fan.faces_of(c) for c in fan.cones])


def given_cones(lattice, rays, max_cone_indices):
    return [Cone.from_rays(lattice, [rays[i] for i in idxs]) for idxs in max_cone_indices]


def assert_matches_reference(lattice, rays, max_cone_indices):
    # separate instances, so that no face cache is shared between the two
    expected = tables(*reference_fan(lattice, given_cones(lattice, rays, max_cone_indices)))
    fan = Fan.from_max_cones(lattice, given_cones(lattice, rays, max_cone_indices))
    assert fan_tables(fan) == expected
    for c in fan.cones:
        assert all(f is fan.cones[fan.index_of(f)] for f in fan.faces_of(c))
    assert all(c is fan.cones[fan.index_of(c)] for c in fan.max_cones)
    return fan


def load(path):
    ff = load_fan_file(path)
    return Lattice(ff.lattice_rank), ff.rays, ff.max_cones


@pytest.mark.parametrize("path", FAN_FILES, ids=os.path.basename)
def test_fan_files_match_the_reference(path):
    assert_matches_reference(*load(path))


# lower-dimensional maximal cones given with unsorted or redundant rays
# (their facets' lineality part depends on ray order), duplicates, input
# cones that are faces of others, rank 4, and the empty fan
HAND_MADE = [
    (Z3, [(0, 1, 0), (1, 0, 0), (0, 0, 1)], [[0, 1], [2, 1]]),
    (Z3, [(1, 1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2], [3]]),
    (Z2, [(1, 0), (0, 1), (-1, -1)], [[1, 0], [0], [0, 1], [2, 1]]),
    (Lattice(4), [(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 1)], [[0, 1], [2, 1]]),
    # in this order the lineality basis differs from the sorted order's
    (Lattice(4), [(1, -1, -2, 2), (-2, -2, 2, -1), (0, 0, 0, 1)], [[0, 1], [2]]),
    (Z2, [], []),
    (Z2, [], [[]]),
]


@pytest.mark.parametrize("lattice,rays,indices", HAND_MADE, ids=range(len(HAND_MADE)))
def test_hand_made_fans_match_the_reference(lattice, rays, indices):
    assert_matches_reference(lattice, rays, indices)


@st.composite
def blown_up_p1xp1(draw, max_blowups=6):
    """Rays and maximal cones of P1 x P1 blown up at torus-fixed points:
    each blow-up inserts u + v between neighbouring rays u, v."""
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for pos in draw(st.lists(st.integers(0, 63), max_size=max_blowups)):
        i = pos % len(rays)
        a, b = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (a[0] + b[0], a[1] + b[1]))
    k = len(rays)
    return rays, [[i, (i + 1) % k] for i in range(k)]


@SETTINGS
@given(blown_up_p1xp1())
def test_random_smooth_2d_fans_match_the_reference(fan_data):
    fan = assert_matches_reference(Z2, *fan_data)
    assert fan.is_smooth() and fan.is_complete()


def test_overlapping_2d_cones_are_not_a_fan():
    # the quadrants share no ray, but overlap around (2, 1)
    rays = [(1, 0), (0, 1), (1, 1), (1, -1)]
    # the pair indexes the maximal cones, after the ray (a face) is dropped
    for indices in ([[0, 1], [2, 3]], [[0, 1], [0], [2, 3]]):
        with pytest.raises(NotAFan) as ref:
            reference_fan(Z2, given_cones(Z2, rays, indices))
        with pytest.raises(NotAFan) as ei:
            Fan.from_max_cones(Z2, given_cones(Z2, rays, indices))
        assert ei.value.pair == ref.value.pair == (0, 1)


def test_cones_sharing_a_diagonal_of_a_square_are_not_a_fan():
    # the cone over a square and a simplicial cone share the rays
    # (0,0,1), (1,1,1): a diagonal of the square, not a face of it
    rays = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1), (1, -1, 0)]
    square, other = [0, 1, 2, 3], [0, 2, 4]
    assert Cone.from_rays(Z3, [(0, 0, 1), (1, 1, 1)]) not in Cone.from_rays(
        Z3, [rays[i] for i in square]
    ).faces()
    for indices in ([square, other], [other, square]):
        with pytest.raises(NotAFan) as ref:
            reference_fan(Z3, given_cones(Z3, rays, indices))
        with pytest.raises(NotAFan) as ei:
            Fan.from_max_cones(Z3, given_cones(Z3, rays, indices))
        assert ei.value.pair == ref.value.pair == (0, 1)
    # the cone over the diagonal itself is not a face of the square either
    with pytest.raises(NotAFan):
        Fan.from_max_cones(Z3, given_cones(Z3, rays, [square, [0, 2]]))


def count_from_rays(monkeypatch):
    """Record the ray tuple of every ``Cone.from_rays`` call."""
    calls = []
    build = Cone.from_rays.__func__

    def counting(cls, lattice, rays):
        rays = list(rays)
        calls.append(tuple(sorted(rays)))
        return build(cls, lattice, rays)

    monkeypatch.setattr(Cone, "from_rays", classmethod(counting))
    return calls


@pytest.mark.parametrize(
    "lattice,rays,indices",
    [load(p) for p in FAN_FILES] + HAND_MADE,
    ids=[os.path.basename(p) for p in FAN_FILES] + [f"hand-made-{i}" for i in range(len(HAND_MADE))],
)
def test_each_cone_is_built_at_most_once(monkeypatch, lattice, rays, indices):
    given = given_cones(lattice, rays, indices)
    calls = count_from_rays(monkeypatch)
    fan = Fan.from_max_cones(lattice, given)
    assert len(calls) == len(set(calls)) <= len(fan.cones)
    calls.clear()
    fan = Fan.from_rays_and_indices(lattice, rays, indices)
    assert len(calls) <= len(fan.cones) + len(indices)


def permuted(indices, rng):
    """The maximal cones in another order, each with its rays shuffled."""
    out = [rng.sample(list(idxs), len(idxs)) for idxs in indices]
    rng.shuffle(out)
    return out


def cones_and_faces(fan):
    cones, _, faces_of = fan_tables(fan)
    return cones, faces_of


@pytest.mark.parametrize("name", ["p3", "p1xp1xp1"])
def test_reordering_maximal_cones_keeps_cones_and_faces(name):
    lattice, rays, indices = load(os.path.join(HERE, os.pardir, "bench", "fans", f"{name}.json"))
    fan = Fan.from_rays_and_indices(lattice, rays, indices)
    expected = cones_and_faces(fan)
    expected_max = sorted(c.rays for c in fan.max_cones)
    rng = random.Random(name)
    for _ in range(10):
        fan = Fan.from_rays_and_indices(lattice, rays, permuted(indices, rng))
        assert cones_and_faces(fan) == expected
        assert sorted(c.rays for c in fan.max_cones) == expected_max


@SETTINGS
@given(blown_up_p1xp1(), st.randoms(use_true_random=False))
def test_reordering_random_2d_fans_keeps_cones_and_faces(fan_data, rng):
    rays, indices = fan_data
    expected = cones_and_faces(Fan.from_rays_and_indices(Z2, rays, indices))
    assert cones_and_faces(Fan.from_rays_and_indices(Z2, rays, permuted(indices, rng))) == expected
