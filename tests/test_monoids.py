import random
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kfan.cones import Cone, UnsupportedRank, zero_cone
from kfan.intlinalg import (
    IntMatrix,
    Lattice,
    canonical_surjection,
    dot,
    in_row_span,
    quotient,
    vec_sub,
)
from kfan.monoids import (
    AffineMonoid,
    GroupMismatch,
    GroupRingElement,
    hilbert_basis,
    _parallelepiped_points,
)

Z1, Z2, Z3 = Lattice(1), Lattice(2), Lattice(3)


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


def test_hilbert_rank_cap():
    z4 = Lattice(4)
    c = Cone.from_rays(
        z4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 2)]
    )
    with pytest.raises(UnsupportedRank):
        hilbert_basis(c)


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


def test_membership_in_quadrant_monoid():
    m = AffineMonoid.from_cone(Cone.from_rays(Z2, [(1, 0), (0, 1)]))
    assert m.contains((0, 0))
    assert m.contains((1, 1))
    assert not m.contains((-1, 2))


def test_membership_with_torsion_units():
    m = AffineMonoid.from_generators(Z2, [(2, 0), (-2, 0)])
    assert m.is_group()
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

