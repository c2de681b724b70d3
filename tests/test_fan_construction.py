"""Fan construction against a reference, call counts and reordering.

``reference_cone`` is the plain cone construction: two double
descriptions (rays to facets, facets back to rays) and every
cross-check between them, for every input.  ``Cone.from_rays`` takes
that path only for dependent rays; independent ones are certified by
their pairing matrix.  It builds a cone from its sorted extreme rays,
so it must give the cone the reference builds on those, and the same
cone for every order of its rays and with redundant rays added.

``reference_fan`` is the plain fan construction on top of it: every
maximal cone builds its own faces, faces are merged by equality, and
each pair of maximal cones is checked with a double description of
their facets.  ``Fan.from_max_cones`` builds each face once from a
shared table, certifies a complete simplicial fan by its ridges and a
probe point (``_certified_walls``) and checks any other fan pair by
pair (``_check_pairs``), skipping the double description of a pair that
a separating functional certifies.  It must give the same cones (rays,
facets, dimension), maximal cones and face lists, or ``NotAFan`` on the
same pair; and whenever the ridge certificate accepts, the pairwise
check must accept too.
"""

import glob
import json
import math
import os
import random
import sys
from itertools import combinations, permutations, product

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kfan import cli, cones
from kfan.cones import (
    MAX_RANK,
    Cone,
    Fan,
    NotAFan,
    NotStronglyConvex,
    _face_rays,
    dual_ray_generators,
    primitive,
)
from kfan.fanfile import build_fan, dropped_entries, load_fan_file, parse_fan_file
from kfan.intlinalg import CertificateError, IntMatrix, Lattice, dot, rank, vec_add, vec_neg
from test_cech import load_gen_fans

Z2, Z3 = Lattice(2), Lattice(3)
HERE = os.path.dirname(__file__)
FAN_FILES = sorted(
    glob.glob(os.path.join(HERE, os.pardir, "fans", "*.json"))
    + glob.glob(os.path.join(HERE, os.pardir, "bench", "fans", "*.json"))
)
SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def reference_cone(lattice, rays):
    """The cone on ``rays`` by two double descriptions and every
    cross-check between them (rays violating a facet, facets not tight
    on a ridge's worth of rays)."""
    n = lattice.rank
    prim = list(dict.fromkeys(p for p in map(primitive, rays) if p is not None))
    lin, pointed = dual_ray_generators(prim, n)
    facets = pointed + [v for l in lin for v in (l, vec_neg(l))]
    if rank(IntMatrix(facets, ncols=n)) < n:
        raise NotStronglyConvex(f"cone on {prim} contains a line")
    dual_lin, extreme = dual_ray_generators(facets, n)
    if dual_lin:
        raise CertificateError("the facets cut out a line")
    dim = n - len(lin)
    cone = Cone(lattice, extreme, facets, dim, pointed=True)
    if not all(cone.contains(r) for r in prim):
        raise CertificateError("a ray violates a facet")
    for u in cone.facets:
        if vec_neg(u) not in cone.facets:
            tight = [r for r in extreme if dot(u, r) == 0]
            if rank(IntMatrix(tight, ncols=n)) != dim - 1:
                raise CertificateError("a facet is not tight on a ridge")
    return cone


def reference_faces(cone):
    faces = (reference_cone(cone.lattice, t) for t in _face_rays(cone))
    return sorted(faces, key=lambda c: (c.dim, c.rays))


def reference_fan(lattice, given):
    """(cones, max_cones, faces_of) of the fan of ``given``, or NotAFan."""
    faces = {c: reference_faces(c) for c in given}
    maximal = []
    for c in given:
        if any(c != d and c in faces[d] for d in given):
            continue
        if c not in maximal:
            maximal.append(c)
    for i in range(len(maximal)):
        for j in range(i + 1, len(maximal)):
            a, b = maximal[i], maximal[j]
            lin, rays = dual_ray_generators(a.facets + b.facets, lattice.rank)
            if lin:
                raise CertificateError("the meet of two strongly convex cones contains a line")
            meet = reference_cone(lattice, rays)
            if not (meet in faces[a] and meet in faces[b]):
                raise NotAFan(i, j)
    collected = {}
    for c in maximal:
        for f in faces[c]:
            collected.setdefault(f, f)
    z = reference_cone(lattice, [])
    collected.setdefault(z, z)
    if not maximal:
        maximal = [collected[z]]
    cones = sorted(collected.values(), key=lambda c: (c.dim, c.rays))
    canon = {c: c for c in cones}
    faces_of = [tuple(canon[f] for f in reference_faces(c)) for c in cones]
    return cones, [canon[c] for c in maximal], faces_of


def tables(cones, max_cones, faces_of):
    """Everything a fan reports, as plain data, in the fan's order: the
    maximal cones in input order, and each cone's faces in canonical
    (dim, rays) order, as ``reference_faces`` sorts them."""
    return (
        [(c.rays, c.facets, c.dim, c.pointed) for c in cones],
        [c.rays for c in max_cones],
        [[f.rays for f in fs] for fs in faces_of],
    )


def fan_tables(fan):
    return tables(fan.cones, fan.max_cones, [fan.faces_of(c) for c in fan.cones])


def given_cones(lattice, rays, max_cone_indices, build=None):
    build = build or Cone.from_rays
    return [build(lattice, [rays[i] for i in idxs]) for idxs in max_cone_indices]


def reference_given(lattice, rays, max_cone_indices):
    return given_cones(lattice, rays, max_cone_indices, build=reference_cone)


def assert_matches_reference(lattice, rays, max_cone_indices):
    expected = tables(*reference_fan(lattice, reference_given(lattice, rays, max_cone_indices)))
    fan = Fan.from_max_cones(lattice, given_cones(lattice, rays, max_cone_indices))
    assert fan_tables(fan) == expected
    for c in fan.cones:
        assert all(f is fan.cones[fan.index_of(f)] for f in fan.faces_of(c))
    assert all(c is fan.cones[fan.index_of(c)] for c in fan.max_cones)
    return fan


def cone_outcome(build, lattice, rays):
    try:
        cone = build(lattice, rays)
    except NotStronglyConvex:
        return NotStronglyConvex
    return cone.rays, cone.facets, cone.dim, cone.pointed


def reference_on_extreme_rays(lattice, rays):
    """``reference_cone`` on the input as given, for its checks, then on
    the sorted extreme rays it finds."""
    return reference_cone(lattice, reference_cone(lattice, rays).rays)


@st.composite
def ray_lists(draw):
    """Up to n random rays in Z^n, n <= 4, in random order, and as
    drawn no other ray, the sum of two of them (dependent rays) or the
    negative of one (a line)."""
    n = draw(st.integers(1, MAX_RANK))
    rays = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=n))
    extra = draw(st.sampled_from(["none", "sum", "negative"])) if rays else "none"
    if extra != "none":
        a, b = (rays[draw(st.integers(0, len(rays) - 1))] for _ in range(2))
        rays.append(tuple(x + y for x, y in zip(a, b)) if extra == "sum" else vec_neg(a))
    return Lattice(n), draw(st.permutations(rays))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ray_lists())
# full-dimensional simplicial; the square (not simplicial); a redundant
# ray; lower-dimensional, in an order whose lineality basis differs from
# the sorted order's (so the reference on the rays as given finds other
# facets); a line; the zero cone
@example((Z3, [(1, 0, 0), (0, 1, 0), (1, 1, 1)]))
@example((Z3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]))
@example((Z2, [(1, 0), (1, 1), (0, 1)]))
@example((Lattice(4), [(1, -1, -2, 2), (-2, -2, 2, -1)]))
@example((Lattice(4), [(-2, -2, 2, -1), (1, -1, -2, 2), (0, 0, 0, 1)]))
@example((Z2, [(1, 0), (0, 1), (-1, 0)]))
@example((Z3, []))
def test_from_rays_matches_the_two_double_descriptions(data):
    lattice, rays = data
    expected = cone_outcome(reference_on_extreme_rays, lattice, rays)
    assert cone_outcome(Cone.from_rays, lattice, rays) == expected


def cone_data(lattice, rays):
    """What a cone keeps, as plain data, or ``NotStronglyConvex``."""
    try:
        cone = Cone.from_rays(lattice, rays)
    except NotStronglyConvex:
        return NotStronglyConvex
    return cone.rays, cone.facets, cone.dim, cone.perp_lattice().rows, cone.is_smooth()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ray_lists())
# rank 4, lower-dimensional: the two orders of the rays give different
# lineality bases to a construction that keeps the input order
@example((Lattice(4), [(3, 2, 3, -3), (2, -3, 2, 3)]))
@example((Lattice(4), [(1, -1, -2, 2), (-2, -2, 2, -1), (0, 0, 0, 1)]))
def test_a_cone_depends_on_its_ray_set_alone(data):
    # every order of the rays, and the rays with the sum of two of them
    # added, first and last
    lattice, rays = data
    expected = cone_data(lattice, rays)
    for order in permutations(rays):
        assert cone_data(lattice, list(order)) == expected
    for a, b in combinations(rays, 2):
        redundant = tuple(x + y for x, y in zip(a, b))
        assert cone_data(lattice, [redundant] + rays) == expected
        assert cone_data(lattice, rays + [redundant]) == expected


def load(path):
    ff = load_fan_file(path)
    return Lattice(ff.lattice_rank), ff.rays, ff.max_cones


@pytest.mark.parametrize("path", FAN_FILES, ids=os.path.basename)
def test_fan_files_match_the_reference(path):
    assert_matches_reference(*load(path))


# lower-dimensional maximal cones given with unsorted or redundant rays
# (a construction that kept the input order would find other lineality
# parts of their facets), duplicates, input cones that are faces of
# others, rank 4, and the empty fan
HAND_MADE = [
    (Z3, [(0, 1, 0), (1, 0, 0), (0, 0, 1)], [[0, 1], [2, 1]]),
    (Z3, [(1, 1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2], [3]]),
    (Z2, [(1, 0), (0, 1), (-1, -1)], [[1, 0], [0], [0, 1], [2, 1]]),
    (Lattice(4), [(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 1)], [[0, 1], [2, 1]]),
    # in this order the lineality basis differs from the sorted order's
    (Lattice(4), [(1, -1, -2, 2), (-2, -2, 2, -1), (0, 0, 0, 1)], [[0, 1], [2]]),
    (Z2, [], []),
    (Z2, [], [[]]),
    # the face fan of the cube [-1, 1]^3: six square cones, not simplicial
    (
        Z3,
        list(product((1, -1), repeat=3)),
        [[i for i, v in enumerate(product((1, -1), repeat=3)) if v[k] == side]
         for k in range(3) for side in (1, -1)],
    ),
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


@st.composite
def blown_up_3d(draw, max_blowups=3):
    """Rays and maximal cones, in random order, of P3 or P1 x P1 x P1
    after star subdivisions: each adds the sum of two or three rays of a
    maximal cone, and replaces every maximal cone containing them by
    the cones on the new ray and all of that cone's rays but one of
    them.  The fans stay smooth and complete."""
    if draw(st.booleans()):
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
        cones = [list(c) for c in combinations(range(4), 3)]
    else:
        rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        cones = [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    for _ in range(draw(st.integers(0, max_blowups))):
        sigma = draw(st.sampled_from(cones))
        face = set(draw(st.sampled_from([t for k in (2, 3) for t in combinations(sigma, k)])))
        rays.append(tuple(map(sum, zip(*(rays[i] for i in face)))))
        new = len(rays) - 1
        cones = [c for c in cones if not face <= set(c)] + [
            [new if i == r else i for i in c] for c in cones if face <= set(c) for r in face
        ]
    return rays, draw(st.permutations(cones))


@SETTINGS
@given(blown_up_3d())
def test_random_smooth_3d_fans_match_the_reference(fan_data):
    fan = assert_matches_reference(Z3, *fan_data)
    assert fan.is_smooth() and fan.is_complete()


def primitive_by_a_gcd_loop(v):
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return None if g == 0 else tuple(x // g for x in v)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-10**6, 10**6), max_size=MAX_RANK),
    st.sampled_from([1, 2, 3, 12, 10**6]),
)
@example([], 1)
@example([0, 0, 0], 5)
@example([-4, 6, 0], 1)
@example([10**6, -10**6], 1)
@example([0, -7], 1)
def test_primitive_matches_a_gcd_loop(v, scale):
    v = [scale * x for x in v]
    p = primitive(v)
    assert p == primitive_by_a_gcd_loop(v)
    if p is not None:
        assert type(p) is tuple and all(type(x) is int for x in p)
        assert math.gcd(*p) == 1


def test_overlapping_2d_cones_are_not_a_fan():
    # the quadrants share no ray, but overlap around (2, 1)
    rays = [(1, 0), (0, 1), (1, 1), (1, -1)]
    # the pair indexes the maximal cones, after the ray (a face) is dropped
    for indices in ([[0, 1], [2, 3]], [[0, 1], [0], [2, 3]]):
        with pytest.raises(NotAFan) as ref:
            reference_fan(Z2, reference_given(Z2, rays, indices))
        with pytest.raises(NotAFan) as ei:
            Fan.from_max_cones(Z2, given_cones(Z2, rays, indices))
        assert ei.value.pair == ref.value.pair == (0, 1)


def test_cones_sharing_a_diagonal_of_a_square_are_not_a_fan():
    # the cone over a square and a simplicial cone share the rays
    # (0,0,1), (1,1,1): a diagonal of the square, not a face of it
    rays = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1), (1, -1, 0)]
    square, other = [0, 1, 2, 3], [0, 2, 4]
    sq = Cone.from_rays(Z3, [rays[i] for i in square])
    diagonal = Cone.from_rays(Z3, [(0, 0, 1), (1, 1, 1)])
    assert diagonal not in Fan.from_max_cones(Z3, [sq]).faces_of(sq)
    for indices in ([square, other], [other, square]):
        with pytest.raises(NotAFan) as ref:
            reference_fan(Z3, reference_given(Z3, rays, indices))
        with pytest.raises(NotAFan) as ei:
            Fan.from_max_cones(Z3, given_cones(Z3, rays, indices))
        assert ei.value.pair == ref.value.pair == (0, 1)
    # the cone over the diagonal itself is not a face of the square either
    with pytest.raises(NotAFan):
        Fan.from_max_cones(Z3, given_cones(Z3, rays, [square, [0, 2]]))


# a cone over a pyramid on a square, and a simplicial cone meeting it
# along the cone over the square's diagonal (1, 0, 1, 0), (-1, 0, 1, 0)
PYRAMID_MEETS_SIMPLEX = (
    Lattice(4),
    [(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0), (0, 0, 1, -1),
     (0, 1, 1, 1), (0, -1, 1, 1)],
    [[0, 1, 2, 3, 4], [0, 2, 5, 6]],
)


def test_a_simplex_along_the_diagonal_of_a_pyramid_is_not_a_fan(tmp_path, monkeypatch):
    lattice, rays, indices = PYRAMID_MEETS_SIMPLEX
    for order in (indices, indices[::-1]):
        with pytest.raises(NotAFan) as ref:
            reference_fan(lattice, reference_given(lattice, rays, order))
        with pytest.raises(NotAFan) as ei:
            Fan.from_max_cones(lattice, given_cones(lattice, rays, order))
        assert ei.value.pair == ref.value.pair == (0, 1)
    path = tmp_path / "pyramid.json"
    path.write_text(json.dumps({"lattice_rank": 4, "rays": rays, "max_cones": indices}))
    assert cli.run(["info", str(path)]) == 2

    # why _separates asks for u < 0: the simplex's facets that vanish on
    # the diagonal sum to a u that is <= 0 on the pyramid's rays but zero
    # on two more of them, so u <= 0 would accept the diagonal as a face
    def relaxed(facets, shared, other):
        tight = [f for f in facets if not any(dot(f, r) for r in shared)]
        u = tuple(map(sum, zip(*tight)))
        return bool(tight) and all(dot(u, r) <= 0 for r in other if r not in shared)

    monkeypatch.setattr(cones, "_separates", relaxed)
    fan = Fan.from_max_cones(lattice, given_cones(lattice, rays, indices))
    pyramid, simplex = fan.max_cones
    meet = fan.intersection(pyramid, simplex)
    assert meet.rays == ((-1, 0, 1, 0), (1, 0, 1, 0))
    assert meet in fan.faces_of(simplex) and meet not in fan.faces_of(pyramid)


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


def fan_outcome(lattice, rays, indices):
    try:
        return fan_tables(Fan.from_rays_and_indices(lattice, rays, indices))
    except NotAFan as e:
        return NotAFan, e.pair
    except NotStronglyConvex:
        return NotStronglyConvex


def reference_outcome(lattice, rays, indices):
    try:
        return tables(*reference_fan(lattice, reference_given(lattice, rays, indices)))
    except NotAFan as e:
        return NotAFan, e.pair
    except NotStronglyConvex:
        return NotStronglyConvex


@st.composite
def cone_lists(draw):
    """Random rays in Z^2 or Z^3 and random maximal-cone index lists:
    mostly not fans."""
    n = draw(st.sampled_from([2, 3]))
    vec = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
    rays = draw(st.lists(vec, min_size=n + 1, max_size=6, unique=True))
    cone = st.lists(st.integers(0, len(rays) - 1), min_size=n, max_size=n + 1, unique=True)
    return Lattice(n), rays, draw(st.lists(cone, min_size=2, max_size=5))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cone_lists())
def test_random_cone_lists_match_the_reference(data):
    assert fan_outcome(*data) == reference_outcome(*data)


def count_pair_double_descriptions(monkeypatch):
    """Record the double descriptions that the pairwise check
    (``_check_pairs``) runs on a pair of maximal cones."""
    calls = []
    dual = cones.dual_ray_generators

    def counting(vectors, rank):
        if sys._getframe(1).f_code.co_name == "_check_pairs":
            calls.append(vectors)
        return dual(vectors, rank)

    monkeypatch.setattr(cones, "dual_ray_generators", counting)
    return calls


PYRAMID_AND_DIAGONAL = [
    (0, 0, 0, 1), (1, 0, 0, 1), (1, 1, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 1, -2, 2),
]

# pairs that the separating functional cannot certify, so the double
# description decides: (lattice, rays, maximal cones, NotAFan pair or None)
REFUSED = [
    # a's functional (1, 1) is tight on b's ray (1, -1), and b's (0, -1)
    # on a's ray (1, 0); the cones meet in the origin
    (Z2, [(1, 0), (0, 1), (1, -1), (0, -1)], [[0, 1], [2, 3]], None),
    # the cones share the ray (1, 0) and overlap
    (Z2, [(1, 0), (0, 1), (1, 1)], [[0, 1], [0, 2]], (0, 1)),
    (Z3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], [[0, 1, 2], [0, 1, 3]], (0, 1)),
    # a is the cone over a square pyramid, and b meets it in the cone
    # over a diagonal of the base: the base's normal separates b's third
    # ray, but the diagonal is not a face of a (in both orders)
    (Lattice(4), PYRAMID_AND_DIAGONAL, [[0, 1, 2, 3, 4], [0, 2, 5]], (0, 1)),
    (Lattice(4), PYRAMID_AND_DIAGONAL, [[0, 2, 5], [0, 1, 2, 3, 4]], (0, 1)),
]


@pytest.mark.parametrize("lattice,rays,indices,pair", REFUSED, ids=range(len(REFUSED)))
def test_refused_pairs_take_the_double_description(monkeypatch, lattice, rays, indices, pair):
    given = given_cones(lattice, rays, indices)
    calls = count_pair_double_descriptions(monkeypatch)
    expected = reference_outcome(lattice, rays, indices)
    calls.clear()
    if pair is None:
        assert fan_tables(Fan.from_max_cones(lattice, given)) == expected
    else:
        with pytest.raises(NotAFan) as ei:
            Fan.from_max_cones(lattice, given)
        assert (NotAFan, ei.value.pair) == expected == (NotAFan, pair)
    assert len(calls) == 1


def face_table(given):
    return {c.rays: _face_rays(c) for c in given}


@pytest.mark.parametrize("name, most", [("p3", 0), ("p1xp1xp1", 0), ("ladder-12", 65)])
def test_separated_pairs_run_no_double_description(monkeypatch, name, most):
    # the pairwise check itself: these complete fans never reach it
    lattice, rays, indices = load(os.path.join(HERE, os.pardir, "bench", "fans", f"{name}.json"))
    given = given_cones(lattice, rays, indices)
    calls = count_pair_double_descriptions(monkeypatch)
    cones._check_pairs(lattice.rank, given, face_table(given))
    assert len(calls) <= most


def ladder(n):
    data = load_gen_fans().ladder(n)
    return Z2, [tuple(r) for r in data["rays"]], data["max_cones"]


def count_calls(monkeypatch, name):
    """Record the calls of the ``cones`` function ``name``."""
    calls = []
    original = getattr(cones, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cones, name, counting)
    return calls


def test_a_64_cone_ladder_is_built_without_looking_at_pairs(monkeypatch):
    lattice, rays, indices = ladder(64)
    given = given_cones(lattice, rays, indices)
    separations = count_calls(monkeypatch, "_separates")
    descriptions = count_calls(monkeypatch, "dual_ray_generators")
    fan = Fan.from_max_cones(lattice, given)
    assert separations == [] and descriptions == []
    assert len(cones._certified_walls(2, given)) == 64 and fan.is_complete()


def ridge_pairs(fan):
    """The pairs of maximal cones whose rays share a ridge, found from
    the fan's own face lists."""
    pairs = set()
    for a, b in combinations(fan.max_cones, 2):
        meet = fan.intersection(a, b)
        if meet.dim == fan.lattice.rank - 1:
            pairs.add((fan.max_cones.index(a), fan.max_cones.index(b), meet.rays))
    return pairs


COMPLETE_SIMPLICIAL = ["p3", "p1xp1xp1", "ladder-6", "ladder-12", "f1", "bl1p2"]


@pytest.mark.parametrize("name", COMPLETE_SIMPLICIAL)
def test_walls_are_the_pairs_that_share_a_ridge(name):
    fan = Fan.from_rays_and_indices(*load(os.path.join(HERE, os.pardir, "bench", "fans", f"{name}.json")))
    walls = cones._ridge_walls(fan.lattice.rank, list(fan.max_cones))
    # each ridge is the meet of its two cones, found once
    assert set(walls) == ridge_pairs(fan) and len(set(walls)) == len(walls)


@pytest.mark.parametrize("path", FAN_FILES, ids=os.path.basename)
def test_only_complete_simplicial_fans_have_walls(path):
    fan = Fan.from_rays_and_indices(*load(path))
    n = fan.lattice.rank
    simplicial = all(c.dim == n == len(c.rays) for c in fan.max_cones)
    certified = cones._certified_walls(n, list(fan.max_cones)) is not None
    assert certified == (n >= 2 and simplicial and fan.is_complete())


# a 16-ray fan winding twice round the origin: every ray lies in two
# neighbouring cones on opposite sides, but each generic point in two
WINDING = (
    Z2,
    [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
     (2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2), (1, -2), (2, -1)],
    [[i, (i + 1) % 16] for i in range(16)],
)


def test_a_fan_winding_twice_passes_the_ridges_and_fails_the_probe():
    lattice, rays, indices = WINDING
    given = given_cones(lattice, rays, indices)
    # every ray is a ridge of two neighbours on opposite sides, but the
    # probe lies in two cones
    assert len(cones._ridge_walls(2, given)) == 16
    assert cones._probe_count(2, given) == 2
    assert cones._certified_walls(2, given) is None
    with pytest.raises(NotAFan) as ref:
        reference_fan(lattice, reference_given(lattice, rays, indices))
    with pytest.raises(NotAFan) as ei:
        Fan.from_max_cones(lattice, given)
    assert ei.value.pair == ref.value.pair == (0, 7)


def pairwise_fan_outcome(lattice, rays, indices):
    """``fan_outcome`` with the ridge certificate switched off, so that
    every input takes the pairwise check."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cones, "_certified_walls", lambda rank, maximal: None)
        return fan_outcome(lattice, rays, indices)


def bench_fan_data(name):
    return load(os.path.join(HERE, os.pardir, "bench", "fans", f"{name}.json"))


@st.composite
def perturbed_fans(draw):
    """A ladder of 6-20 cones, P^3 or P^1 x P^1 x P^1 with one ray
    replaced, one cone index replaced or two rays swapped."""
    base = draw(st.sampled_from(["ladder", "p3", "p1xp1xp1"]))
    if base == "ladder":
        lattice, rays, indices = ladder(2 * draw(st.integers(3, 10)))
    else:
        lattice, rays, indices = bench_fan_data(base)
    rays, indices = list(rays), [list(c) for c in indices]
    n, k = lattice.rank, len(rays)
    kind = draw(st.sampled_from(["ray", "index", "swap"]))
    if kind == "ray":
        vec = st.tuples(*[st.integers(-3, 3)] * n).filter(any)
        rays[draw(st.integers(0, k - 1))] = draw(vec)
    elif kind == "index":
        cone = draw(st.integers(0, len(indices) - 1))
        indices[cone][draw(st.integers(0, n - 1))] = draw(st.integers(0, k - 1))
    else:
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        rays[i], rays[j] = rays[j], rays[i]
    return lattice, rays, indices


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(perturbed_fans())
@example((Z2, *ladder(8)[1:]))
@example(bench_fan_data("p3"))
@example(bench_fan_data("p1xp1xp1"))
@example(WINDING)
def test_the_ridge_certificate_accepts_only_what_the_pairwise_check_accepts(data):
    # a fan the certificate accepts must come out of the pairwise check
    # with the same tables; anything else takes that check anyway
    assert fan_outcome(*data) == pairwise_fan_outcome(*data)


def is_fan_file(path):
    with open(path, encoding="utf-8") as f:
        return "max_cones" in json.load(f)


# the fan files of fans/ and bench/fans/, and those among the golden files
ENTRY_FILES = FAN_FILES + sorted(
    filter(is_fan_file, glob.glob(os.path.join(HERE, "golden", "*.json")))
)


def reference_dropped_entries(ff, fan):
    """The dropped-entry warnings found from geometry: the walk of
    ``dropped_entries`` before the fan recorded its input numbers.  The
    fan keeps the entries it does not drop, in order, as ``max_ids``: an
    entry is the next maximal cone when that cone's rays are among the
    entry's and the cone contains the entry's other rays; any other entry
    is looked up as the cone on its rays."""
    warnings = []
    kept = []  # the entry of each maximal cone found so far
    max_ids = fan.max_ids
    for i, entry in enumerate(ff.max_cones):
        rays = {ff.rays[x] for x in entry}
        if len(kept) < len(max_ids):
            top = max_ids[len(kept)]
            cone = fan.cones[top]
            if fan.ray_sets[top] <= rays and all(map(cone.contains, rays - fan.ray_sets[top])):
                kept.append(i)
                continue
        c = fan.index_of(Cone.from_rays(fan.lattice, rays))
        why = (f"the same cone as max cone {kept[max_ids.index(c)]}" if c in max_ids
               else "a face of another max cone")
        warnings.append(f"max cone {i} {list(entry)} spans {why}; the fan drops it")
    return warnings


@st.composite
def fan_files_with_dropped_entries(draw):
    """A fan file of ``ENTRY_FILES`` with entries inserted at random
    positions, each built from an entry already there: a repeat with its
    indices reordered, a face of its cone, or the entry with the sum of
    two of its extreme rays, a ray that is not extreme, as a new ray."""
    with open(draw(st.sampled_from(ENTRY_FILES)), encoding="utf-8") as f:
        data = json.load(f)
    lattice, rays, entries = Lattice(data["lattice_rank"]), data["rays"], data["max_cones"]
    index = {primitive(r): i for i, r in reversed(list(enumerate(rays)))}
    for _ in range(draw(st.integers(1, 4))):
        entry = draw(st.sampled_from(entries))
        cone = Cone.from_rays(lattice, [rays[x] for x in entry])
        kind = draw(st.sampled_from(["repeat", "face", "extra ray"]))
        if kind == "face":
            new = [index[r] for r in draw(st.sampled_from(sorted(_face_rays(cone))))]
        elif kind == "extra ray" and len(cone.rays) >= 2:
            a, b = draw(st.lists(st.sampled_from(cone.rays), min_size=2, max_size=2, unique=True))
            rays.append(list(primitive(vec_add(a, b))))
            new = draw(st.permutations(entry + [len(rays) - 1]))
        else:
            new = draw(st.permutations(entry))
        entries.insert(draw(st.integers(0, len(entries))), list(new))
    return data


@SETTINGS
@given(fan_files_with_dropped_entries())
def test_dropped_entry_warnings_match_the_geometry(data):
    # the fan numbers every entry as the cone on its rays, and the
    # warnings read off those numbers are the ones geometry finds
    ff = parse_fan_file(json.dumps(data))
    fan = build_fan(ff)
    for entry, c in zip(ff.max_cones, fan.input_ids, strict=True):
        assert fan.cones[c] == Cone.from_rays(fan.lattice, [ff.rays[x] for x in entry])
    assert dropped_entries(ff, fan) == reference_dropped_entries(ff, fan)
