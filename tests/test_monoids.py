import os
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from kfan import intlinalg, monoids
from kfan.cones import Cone, NotStronglyConvex, zero_cone
from kfan.fanfile import build_fan, load_fan_file
from kfan.intlinalg import (
    CertificateError,
    IntMatrix,
    Lattice,
    canonical_surjection,
    dot,
    in_row_span,
    quotient,
    rank,
    vec_sub,
)
from kfan.monoids import (
    AffineMonoid,
    GroupMismatch,
    GroupRingElement,
    hilbert_basis,
    _parallelepiped_points,
    _pointed_hilbert_basis,
    _pulling_triangulation,
)

Z1, Z2, Z3 = Lattice(1), Lattice(2), Lattice(3)
ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


# ---------------------------------------------------------------------------
# oracles


def box_hilbert_oracle(facets, box):
    """Independent Hilbert-basis oracle for a pointed 2d cone: enumerate
    the cone's lattice points in a box and keep those that are not a sum
    of two nonzero cone points (decompositions of box points stay in a
    slightly larger box, checked per use)."""
    pts = [
        v
        for v in product(range(-box, box + 1), repeat=2)
        if any(v) and all(dot(u, v) >= 0 for u in facets)
    ]
    ptset = set(pts)
    basis = []
    for p in pts:
        if not any(vec_sub(p, q) in ptset for q in pts if q != p):
            basis.append(p)
    return sorted(basis)


def test_hilbert_basis_of_quadrant():
    c = Cone.from_rays(Z2, [(1, 0), (0, 1)])
    assert sorted(hilbert_basis(c)) == [(0, 1), (1, 0)]


def test_hilbert_basis_of_skew_dual_cone_against_parallelepiped_oracle():
    # the dual of <(1,0),(1,2)>: facets x >= 0 and x + 2y >= 0
    dual = Cone.from_rays(Z2, [(1, 0), (1, 2)]).dual()
    assert set(dual.rays) == {(0, 1), (2, -1)}
    oracle = box_hilbert_oracle(dual.facets, 6)
    got = sorted(hilbert_basis(dual))
    expected = [(0, 1), (1, 0), (2, -1)]
    assert got == expected
    # oracle agrees on the small elements it can see
    assert [p for p in oracle if max(abs(x) for x in p) <= 2] == expected


def test_parallelepiped_points_of_skew_simplex():
    pts = _parallelepiped_points([(0, 1), (2, -1)], 2)
    assert pts == [(1, 0)]
    assert _parallelepiped_points([(1, 0), (0, 1)], 2) == []


def test_parallelepiped_points_reduce_a_fixed_number_of_times(monkeypatch):
    # one reduction of the ray matrix gives every point, so the count is
    # the same for 1 point as for 49
    reduce = intlinalg.smith_with_inverses
    calls = []

    def counting(a, **kwargs):
        calls.append(a)
        return reduce(a, **kwargs)

    monkeypatch.setattr(intlinalg, "smith_with_inverses", counting)
    monkeypatch.setattr(monoids, "smith_with_inverses", counting)
    for top in (2, 50):
        calls.clear()
        assert len(_parallelepiped_points([(1, 0), (1, top)], 2)) == top - 1
        assert len(calls) == 1


def fraction_inverse(square):
    """The inverse of a square integer matrix over the rationals, by
    Gauss-Jordan elimination on Fractions, or None when it is singular."""
    d = len(square)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
            for i, row in enumerate(square)]
    for col in range(d):
        pivot = next((i for i in range(col, d) if rows[i][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(d):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return [row[d:] for row in rows]


def parallelepiped_oracle(rays, n):
    """The nonzero lattice points of the half-open parallelepiped of
    linearly independent rays: every point of the box the rays span
    whose exact Fraction coordinates on the rays lie in [0, 1)."""
    d = len(rays)
    # d coordinates on which the rays are independent give the coordinates
    for coords in combinations(range(n), d):
        inverse = fraction_inverse([[rays[j][k] for j in range(d)] for k in coords])
        if inverse is not None:
            break
    lo = [sum(min(0, r[k]) for r in rays) for k in range(n)]
    hi = [sum(max(0, r[k]) for r in rays) for k in range(n)]
    points = []
    for x in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        t = [sum(row[i] * x[k] for i, k in enumerate(coords)) for row in inverse]
        if (
            any(x)
            and all(0 <= tj < 1 for tj in t)
            and all(sum(tj * r[k] for tj, r in zip(t, rays)) == x[k] for k in range(n))
        ):
            points.append(x)
    return points


# entry bounds that keep the box small at each rank while the
# multiplicity still reaches about 60
ENTRY_BOUND = {1: 60, 2: 8, 3: 4, 4: 2}


@st.composite
def independent_rays(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, n))
    b = ENTRY_BOUND[n]
    rays = draw(
        st.lists(st.tuples(*[st.integers(-b, b)] * n), min_size=d, max_size=d, unique=True)
    )
    assume(rank(IntMatrix(rays, ncols=n)) == d)
    return rays, n


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(independent_rays())
# every index torsion: the odometer wraps the last and steps the others
@example(([(2, 0), (0, 2)], 2))
@example(([(2, 0, 0), (0, 2, 0), (0, 0, 2)], 3))
@example(([(2, 0, 0), (0, 6, 0), (1, 1, 3)], 3))
def test_parallelepiped_points_match_the_box_oracle(case):
    rays, n = case
    assert sorted(_parallelepiped_points(rays, n)) == parallelepiped_oracle(rays, n)



def test_a_point_off_its_rays_is_named_with_its_remainders(monkeypatch):
    # the second column of V plus the first: the odometer steps e t off
    # x_a, and the first point that fails e p = sum f_j r_j is named
    reduce = monoids.smith_with_inverses

    def corrupted(a, **kw):
        u, d, v, uinv = reduce(a, **kw)
        return u, d, IntMatrix([[p, p + q] for p, q in v.rows]), uinv

    monkeypatch.setattr(monoids, "smith_with_inverses", corrupted)
    with pytest.raises(CertificateError, match=r"^point \(0, 1\) is not at \[2, 1\] / 7 on the rays$"):
        _parallelepiped_points([(1, 0), (-1, 7)], 2)

def test_hilbert_basis_of_halfplane_splits_lineality():
    half = Cone.from_rays(Z2, [(1, 0)]).dual()
    basis = hilbert_basis(half)
    assert set(basis) == {(1, 0), (0, 1), (0, -1)}


def test_hilbert_basis_of_fulldim_dual_in_rank3():
    c = Cone.from_rays(Z3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert sorted(hilbert_basis(c.dual())) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_hilbert_basis_nonsimplicial_cone_over_square():
    # the cone over the unit square is its own combinatorial dual side;
    # its Hilbert basis is the four rays plus the interior point (1,1,2)
    # of the two parallelepipeds -- reduced: (1,1,2) = sum of two rays,
    # so just the rays remain
    c = Cone.from_rays(Z3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    basis = sorted(hilbert_basis(c))
    assert basis == [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]


def test_hilbert_basis_minimality_on_corpus():
    # removing any basis element must lose some witness lattice point
    for rays in [[(1, 0), (1, 2)], [(1, 0), (1, 3)], [(1, 0), (2, 3)]]:
        dual = Cone.from_rays(Z2, rays).dual()
        basis = hilbert_basis(dual)
        full = AffineMonoid.from_generators(Z2, basis)
        for leave_out in range(len(basis)):
            sub = AffineMonoid.from_generators(
                Z2, [g for i, g in enumerate(basis) if i != leave_out]
            )
            assert not sub.contains(basis[leave_out])
            assert full.contains(basis[leave_out])


# rank 4: the pulling triangulation, no cap and no fallback

Z4 = Lattice(4)
SIGMA = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 2)]
PYRAMID_TIMES_RAY = [(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0), (0, 0, 0, 1)]
P4_CONE = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (-1, -1, -1, -1)]


def sums_of(basis, w, bound):
    """Every nonnegative integer combination of ``basis`` of w-degree at
    most ``bound``, for a grading w that is positive on the basis."""
    reached = {(0,) * len(w)}
    frontier = list(reached)
    while frontier:
        v = frontier.pop()
        for g in basis:
            s = tuple(a + b for a, b in zip(v, g))
            if dot(w, s) <= bound and s not in reached:
                reached.add(s)
                frontier.append(s)
    return reached


def test_from_cone_generates_the_dual_of_a_non_smooth_rank_4_cone():
    # the dual's extreme rays miss (0, 0, 1, 0), a lattice point of the dual
    monoid = AffineMonoid.from_cone(Cone.from_rays(Z4, SIGMA))
    assert monoid.contains((0, 0, 1, 0))


def test_contains_rejects_non_integer_vectors():
    # (-0.9, 0) used to be truncated to (0, 0), a member of every monoid
    quadrant = AffineMonoid.from_cone(Cone.from_rays(Z2, [(1, 0), (0, 1)]))
    with pytest.raises(TypeError):
        quadrant.contains((-0.9, 0))


@pytest.mark.parametrize(
    "rays", [SIGMA, PYRAMID_TIMES_RAY, P4_CONE], ids=["sigma", "pyramid-times-ray", "p4"]
)
def test_rank_4_dual_basis_is_irreducible_and_generates_a_box(rays):
    cone = Cone.from_rays(Z4, rays)
    dual = cone.dual()
    basis = hilbert_basis(dual)
    assert len(set(basis)) == len(basis) and all(dual.contains(g) for g in basis)
    for g in basis:
        assert not any(dual.contains(vec_sub(g, h)) for h in basis if h != g)
    # w pairs positively with every nonzero point of the pointed dual
    w = tuple(map(sum, zip(*cone.rays)))
    box = [v for v in product(range(-2, 3), repeat=4) if dual.contains(v)]
    reached = sums_of(basis, w, max(dot(w, v) for v in box))
    assert all(v in reached for v in box)


def old_star_triangulation(cone):
    """The triangulation before the pulling one: a pointed 3-dimensional
    cone split through its first ray."""
    r0 = cone.rays[0]
    simplices = []
    for u in cone._proper_facets():
        if dot(u, r0) == 0:
            continue
        tight = [r for r in cone.rays if dot(u, r) == 0]
        assert len(tight) == 2
        simplices.append((r0,) + tuple(tight))
    return simplices


def old_pointed_hilbert_basis(cone):
    """The pointed Hilbert basis before the pulling triangulation, for
    pointed dimension <= 3: candidates reduced pairwise."""
    if cone.dim == 0:
        return []
    n = cone.lattice.rank
    simplices = [cone.rays] if len(cone.rays) == cone.dim else old_star_triangulation(cone)
    candidates = set(cone.rays)
    for simplex in simplices:
        candidates.update(_parallelepiped_points(simplex, n))
    return [
        g
        for g in sorted(candidates)
        if not any(
            h != g and any(vec_sub(g, h)) and cone.contains(vec_sub(g, h)) for h in candidates
        )
    ]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=1, max_size=5))
def test_rank_3_basis_matches_the_star_triangulation(rays):
    try:
        cone = Cone.from_rays(Z3, rays)
    except NotStronglyConvex:
        return
    for c in [cone] + ([cone.dual()] if cone.dim == 3 else []):
        assert hilbert_basis(c) == old_pointed_hilbert_basis(c)


def pairwise_hilbert_basis(cone):
    """The pointed Hilbert basis by the pairwise reduction: a candidate
    is dropped when it minus any other candidate is a nonzero point of
    the cone."""
    if cone.dim == 0:
        return []
    candidates = set(cone.rays)
    for simplex in _pulling_triangulation(cone):
        candidates.update(_parallelepiped_points(simplex, cone.lattice.rank))
    return [
        g
        for g in sorted(candidates)
        if not any(h != g and cone.contains(vec_sub(g, h)) for h in candidates)
    ]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.one_of(
        st.lists(st.tuples(*[st.integers(-7, 7)] * 2), min_size=1, max_size=4),
        st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=1, max_size=5),
    )
)
def test_the_reduction_by_degree_matches_the_pairwise_reduction(rays):
    # a basis element below a candidate has at most half its degree, so
    # testing each candidate only against those agrees with testing it
    # against every other candidate
    try:
        cone = Cone.from_rays(Lattice(len(rays[0])), rays)
    except NotStronglyConvex:
        return
    for c in [cone] + ([cone.dual()] if cone.dim == cone.lattice.rank else []):
        assert _pointed_hilbert_basis(c) == pairwise_hilbert_basis(c)


def test_a_cone_of_multiplicity_1000_is_reduced_by_degree(monkeypatch):
    # the dual of the cone on (1, 0) and (-1, 1000): its 1001 basis
    # elements (k, 1) all have degree 1000, so no pair is ever compared
    dual = Cone.from_rays(Z2, [(1, 0), (-1, 1000)]).dual()
    calls = []
    contains = Cone.contains
    monkeypatch.setattr(Cone, "contains", lambda self, v: calls.append(v) or contains(self, v))
    assert hilbert_basis(dual) == [(k, 1) for k in range(1001)]
    assert calls == []


# ---------------------------------------------------------------------------
# affine monoids


def test_monoid_of_quadrant():
    m = AffineMonoid.from_cone(Cone.from_rays(Z2, [(1, 0), (0, 1)]))
    assert set(m.generators) == {(1, 0), (0, 1)}
    assert m.unit_generators.nrows == 0
    assert m.coset_quotient.free_rank == 2


def test_monoid_of_ray_has_units():
    m = AffineMonoid.from_cone(Cone.from_rays(Z2, [(1, 0)]))
    assert m.unit_generators.nrows == 1
    assert in_row_span(IntMatrix([(0, 1)]), m.unit_generators.row(0))
    assert m.coset_quotient.free_rank == 1
    assert m.coset_quotient.invariant_factors == ()


def test_monoid_of_zero_cone_is_the_whole_lattice():
    m = AffineMonoid.from_cone(zero_cone(Z2))
    assert m.coset_quotient.is_zero
    for v in product(range(-2, 3), repeat=2):
        assert m.contains(v)


NON_SMOOTH_FANS = [
    os.path.join(ROOT, *parts)
    for parts in (
        ("fans", "quadric-cone.json"),
        ("tests", "golden", "weighted-p2.json"),
        ("tests", "golden", "simplex-113.json"),
    )
]


@pytest.mark.parametrize("path", NON_SMOOTH_FANS, ids=os.path.basename)
def test_coset_group_of_a_cone_monoid_is_the_character_group(path):
    fan = build_fan(load_fan_file(path))
    assert not fan.is_smooth()
    for c in fan.cones:
        q = AffineMonoid.from_cone(c).coset_quotient
        assert q == c.character_quotient()
        # the same group as the quotient of M by the functionals vanishing on c
        assert q == quotient(c.lattice.dual(), c.perp_lattice())


def test_a_lower_dimensional_dual_reuses_the_cones_character_group():
    # the dual of a ray has the ray's perp lattice as its lineality, so
    # its Hilbert basis reads the group ``character_quotient`` reduced
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "fans", "p1xp1xp1.json")
    fan = build_fan(load_fan_file(path))
    ray = next(c for c in fan.cones if c.dim == 1)
    group = ray.character_quotient()
    built = intlinalg.quotient.cache_info()
    basis = hilbert_basis(ray.dual())
    after = intlinalg.quotient.cache_info()
    assert (after.misses, after.hits) == (built.misses, built.hits + 1)
    assert AffineMonoid.from_cone(ray).coset_quotient is group
    # the basis is the ray's primitive functional and +- the perp lattice
    assert len(basis) == 1 + 2 * len(ray.perp_lattice().rows)


def test_unit_generators_are_units_and_nonunits_are_not():
    rng = random.Random(5150)
    cones = [
        Cone.from_rays(Z2, [(1, 0)]),
        Cone.from_rays(Z2, [(1, 0), (1, 2)]),
        zero_cone(Z2),
        Cone.from_rays(Z3, [(1, 0, 0), (0, 1, 0)]),
    ]
    for c in cones:
        m = AffineMonoid.from_cone(c)
        for u in m.unit_generators.rows:
            assert m.contains(u)
            assert m.contains([-x for x in u])
        nonunits = [g for g in m.generators if not m.unit_group_contains(g)]
        if nonunits:
            for _ in range(20):
                coeffs = [rng.randint(0, 3) for _ in nonunits]
                if not any(coeffs):
                    continue
                g = tuple(
                    sum(k * v[i] for k, v in zip(coeffs, nonunits))
                    for i in range(c.lattice.rank)
                )
                assert m.contains(g)
                assert not m.contains([-x for x in g])


def test_numerical_semigroup_membership():
    m = AffineMonoid.from_generators(Z2, [(2, 0), (3, 0)])
    assert m.contains((0, 0))
    assert not m.contains((1, 0))
    assert m.contains((5, 0))
    # oracle: brute force over small coefficient boxes
    for x in range(0, 13):
        expected = any(2 * a + 3 * b == x for a in range(7) for b in range(5))
        assert m.contains((x, 0)) == expected
    assert not m.contains((2, 1))


@pytest.mark.parametrize("ragged", [[(1, 0), (0,)], [(1, 0), ()], [(0, 0, 0)]])
def test_generator_lengths_are_checked_before_zero_generators_are_dropped(ragged):
    with pytest.raises(ValueError, match="generator length"):
        AffineMonoid.from_generators(Z2, ragged)


def test_generators_of_a_cone_monoid_are_its_hilbert_basis_on_first_read(monkeypatch):
    cone = Cone.from_rays(Z2, [(1, 0), (1, 2)])
    calls = []

    def counting(c):
        calls.append(c)
        return hilbert_basis(c)

    monkeypatch.setattr(monoids, "hilbert_basis", counting)
    m = AffineMonoid.from_cone(cone)
    assert calls == [] and m.coset_quotient.free_rank == 2
    assert m.generators == ((0, 1), (1, 0), (2, -1)) == m.generators
    assert calls == [cone.dual()]


def test_membership_in_quadrant_monoid():
    m = AffineMonoid.from_cone(Cone.from_rays(Z2, [(1, 0), (0, 1)]))
    assert m.contains((0, 0))
    assert m.contains((1, 1))
    assert not m.contains((-1, 2))


def test_membership_with_torsion_units():
    m = AffineMonoid.from_generators(Z2, [(2, 0), (-2, 0)])
    assert all(m.unit_group_contains(g) for g in m.generators)  # a group
    assert m.coset_quotient.invariant_factors == (2,)
    assert m.contains((4, 0))
    assert not m.contains((3, 0))
    assert not m.contains((0, 1))


def test_submonoid_check():
    quadrant = AffineMonoid.from_cone(Cone.from_rays(Z2, [(1, 0), (0, 1)]))
    half = AffineMonoid.from_cone(Cone.from_rays(Z2, [(1, 0)]))
    assert quadrant.is_submonoid_of(half)
    assert not half.is_submonoid_of(quadrant)


# ---------------------------------------------------------------------------
# group rings


def free_group(n):
    return quotient(Lattice(n), IntMatrix([], ncols=n))


def test_group_ring_coefficients_must_be_integers():
    # a coefficient 2.7 used to be truncated to 2
    with pytest.raises(TypeError):
        GroupRingElement(free_group(2), {(1, 2): 2.7})


@pytest.mark.parametrize(
    "key, coeff, error",
    [((1.5, 2), 0, TypeError), ((1, 2, 3), 0, ValueError), ((1, 2), 0.0, TypeError)],
    ids=["fractional-key", "key-of-wrong-length", "float-zero"],
)
def test_a_zero_term_is_checked(key, coeff, error):
    # a zero coefficient used to skip its term unchecked, giving 0
    with pytest.raises(error):
        GroupRingElement(free_group(2), {key: coeff})


def test_multiplying_by_one_is_identity():
    g = free_group(1)
    x = GroupRingElement(g, {(2,): 3, (-1,): 5})
    assert x * GroupRingElement.one(g) == x


def test_laurent_identity():
    g = free_group(1)
    t = GroupRingElement.monomial(g, (1,))
    one = GroupRingElement.one(g)
    assert (t - one) * (t + one) == GroupRingElement(g, {(2,): 1, (0,): -1})


def test_convolution_over_z2():
    g = quotient(Lattice(1), IntMatrix([[2]]))
    assert g.invariant_factors == (2,)
    s = GroupRingElement.monomial(g, (1,))
    one = GroupRingElement.one(g)
    assert (one + s) * (one + s) == GroupRingElement(g, {(0,): 2, (1,): 2})


def test_group_mismatch():
    x = GroupRingElement.one(free_group(1))
    y = GroupRingElement.one(free_group(2))
    with pytest.raises(GroupMismatch):
        x * y
    with pytest.raises(GroupMismatch):
        x + y


def test_augmentation():
    g = free_group(2)
    assert GroupRingElement.monomial(g, (3, 1)).augmentation() == 1
    x = GroupRingElement(g, {(1, 0): 3, (0, 1): -3})
    assert x.augmentation() == 0


def test_augmentation_is_multiplicative():
    rng = random.Random(17)
    g = free_group(2)
    for _ in range(25):
        x = GroupRingElement(
            g, {(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-4, 4) for _ in range(4)}
        )
        y = GroupRingElement(
            g, {(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-4, 4) for _ in range(4)}
        )
        assert (x * y).augmentation() == x.augmentation() * y.augmentation()
        assert (x + y).augmentation() == x.augmentation() + y.augmentation()


def test_pushforward_identity_and_terminal():
    m = free_group(2)
    zero = quotient(Lattice(2), IntMatrix.identity(2))
    x = GroupRingElement(m, {(1, 1): 2, (0, 3): -1})
    ident = canonical_surjection(m, m)
    assert x.pushforward(ident) == x
    term = canonical_surjection(m, zero)
    assert x.pushforward(term) == GroupRingElement(zero, {(): x.augmentation()})


def test_pushforward_merges_coefficients():
    m = free_group(2)
    q = quotient(Lattice(2), IntMatrix([[0, 1]]))
    phi = canonical_surjection(m, q)
    x = GroupRingElement.character(m, (1, 1)) + GroupRingElement.character(m, (1, 2))
    pushed = x.pushforward(phi)
    assert pushed == GroupRingElement.character(q, (1, 0)) * 2


def test_pushforward_is_functorial_and_multiplicative():
    rng = random.Random(23)
    m = free_group(2)
    q1 = quotient(Lattice(2), IntMatrix([[0, 2]]))
    q2 = quotient(Lattice(2), IntMatrix([[0, 2], [1, 0]]))
    a = canonical_surjection(m, q1)
    b = canonical_surjection(q1, q2)
    direct = canonical_surjection(m, q2)
    for _ in range(20):
        terms = {
            (rng.randint(-4, 4), rng.randint(-4, 4)): rng.randint(-3, 3)
            for _ in range(3)
        }
        x = GroupRingElement(m, terms)
        y = GroupRingElement(
            m, {(rng.randint(-4, 4), rng.randint(-4, 4)): rng.randint(-3, 3)}
        )
        assert x.pushforward(a).pushforward(b) == x.pushforward(direct)
        assert (x * y).pushforward(a) == x.pushforward(a) * y.pushforward(a)
    # augmentation = pushforward to the zero quotient, numerically
    zero = quotient(Lattice(2), IntMatrix.identity(2))
    term = canonical_surjection(m, zero)
    x = GroupRingElement(m, {(2, 1): 5, (0, 0): -2})
    assert x.pushforward(term).terms.get((), 0) == x.augmentation()


def test_no_zero_coefficients_stored():
    g = free_group(1)
    x = GroupRingElement(g, {(1,): 1})
    assert (x - x).terms == {}
    assert GroupRingElement(g, {(0,): 0}).terms == {}


# the fast constructors: results equal the public constructor's

SMALL = st.integers(-3, 3)


@st.composite
def relation_matrices(draw, n, max_rows=3):
    rows = draw(st.lists(st.lists(SMALL, min_size=n, max_size=n), max_size=max_rows))
    return IntMatrix(rows, ncols=n)


@st.composite
def group_ring_pairs(draw):
    """Two elements over a random quotient of Z^n (free or with torsion),
    their keys given in raw coordinates."""
    n = draw(st.integers(1, 3))
    g = quotient(Lattice(n), draw(relation_matrices(n)))
    raw = st.dictionaries(
        st.lists(SMALL, min_size=g.coords_len, max_size=g.coords_len).map(tuple),
        SMALL,
        max_size=5,
    )
    return GroupRingElement(g, draw(raw)), GroupRingElement(g, draw(raw))


@st.composite
def pushforward_cases(draw):
    """An element and the canonical surjection onto a coarser quotient
    (source relations plus random extra ones: free or torsion)."""
    n = draw(st.integers(1, 3))
    rel = draw(relation_matrices(n))
    extra = draw(relation_matrices(n, max_rows=2))
    source = quotient(Lattice(n), rel)
    target = quotient(Lattice(n), IntMatrix(rel.rows + extra.rows, ncols=n))
    terms = draw(
        st.dictionaries(
            st.lists(SMALL, min_size=n, max_size=n).map(source.project), SMALL, max_size=6
        )
    )
    return GroupRingElement(source, terms), canonical_surjection(source, target)


FAST_PATH_SETTINGS = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@FAST_PATH_SETTINGS
@given(group_ring_pairs())
def test_sum_and_negation_equal_the_public_constructor(pair):
    x, y = pair
    merged = dict(x.terms)
    for k, v in y.terms.items():
        merged[k] = merged.get(k, 0) + v
    for got, want in (
        (x + y, GroupRingElement(x.group, merged)),
        (-x, GroupRingElement(x.group, {k: -v for k, v in x.terms.items()})),
        (x - x, GroupRingElement.zero(x.group)),
    ):
        assert got == want
        assert list(got.terms.items()) == list(want.terms.items())


@FAST_PATH_SETTINGS
@given(pushforward_cases())
def test_pushforward_equals_the_public_constructor(case):
    x, phi = case
    # raw images, reduced and merged by the public constructor only
    raw = {}
    for coords, coeff in x.terms.items():
        image = phi.matrix.apply(coords)
        raw[image] = raw.get(image, 0) + coeff
    assert x.pushforward(phi) == GroupRingElement(phi.target, raw)

