import random

import pytest

from kfan.cones import Cone, Fan, zero_cone
from kfan.graded import (
    CoefficientNotRankOne,
    CoefficientSpec,
    GradedFreeData,
    KClass,
    coset_decomposition,
    extend_scalars_class,
    hom_rank,
    k0_affine_toric,
    k0_class,
)
from kfan.intlinalg import Lattice
from kfan.monoids import AffineMonoid, GroupRingElement, NotASubmonoid
from test_intlinalg import field_copy

Z1, Z2 = Lattice(1), Lattice(2)
K = CoefficientSpec("k")

QUADRANT = AffineMonoid.from_cone(Cone.from_rays(Z2, [(1, 0), (0, 1)]))
HALFPLANE = AffineMonoid.from_cone(Cone.from_rays(Z2, [(1, 0)]))
NAT = AffineMonoid.from_generators(Z1, [(1,)])


def test_coset_decomposition_trivial_units():
    parts = coset_decomposition([(1, 2), (3, 4), (1, 2)], QUADRANT)
    assert len(parts) == 2
    assert tuple(sorted(sum(parts.values(), ()))) == ((1, 2), (1, 2), (3, 4))


def test_coset_decomposition_halfplane_merges_unit_shifts():
    # U = <(0,1)>: (3,5) and (3,-2) are the same coset
    parts = coset_decomposition([(3, 5), (3, -2), (4, 0)], HALFPLANE)
    assert len(parts) == 2
    sizes = sorted(len(v) for v in parts.values())
    assert sizes == [1, 2]


def test_coset_decomposition_empty():
    assert coset_decomposition([], QUADRANT) == {}


def test_k0_class_of_the_ring_itself():
    data = GradedFreeData(QUADRANT, [(0, 0)])
    cls = k0_class(data, K)
    assert cls.value == GroupRingElement.one(QUADRANT.coset_quotient)


def test_k0_class_unit_shift_collapses():
    # R[A][m] + R[A][m+u] with u a unit has class 2*chi^[m]
    m = (3, 1)
    mu = (3, 7)  # differs by the unit (0, 6)
    data = GradedFreeData(HALFPLANE, [m, mu])
    cls = k0_class(data, K)
    q = HALFPLANE.coset_quotient
    assert cls.value == GroupRingElement.character(q, m) * 2


def test_k0_class_counts_shifts():
    data = GradedFreeData(NAT, [(0,), (1,), (1,)])
    cls = k0_class(data, K)
    q = NAT.coset_quotient
    expected = GroupRingElement.character(q, (0,)) + GroupRingElement.character(q, (1,)) * 2
    assert cls.value == expected


def test_k0_class_requires_rank_one_coefficients():
    weird = CoefficientSpec("R", k0_rank_one=False)
    with pytest.raises(CoefficientNotRankOne):
        k0_class(GradedFreeData(NAT, [(0,)]), weird)


def test_k0_class_invariance_and_additivity_randomized():
    rng = random.Random(42)
    monoids = [QUADRANT, HALFPLANE, NAT]
    for m in monoids:
        n = m.ambient.rank
        units = m.unit_generators
        for _ in range(60):
            shifts = [
                tuple(rng.randint(-5, 5) for _ in range(n))
                for _ in range(rng.randint(0, 4))
            ]
            data = GradedFreeData(m, shifts)
            cls = k0_class(data, K)
            if shifts and units.nrows:
                # translate one shift by a random unit-lattice vector

                i = rng.randrange(len(shifts))
                u = units.row(rng.randrange(units.nrows))
                coeffs = rng.randint(-3, 3)
                moved = list(shifts)
                moved[i] = tuple(a + coeffs * b for a, b in zip(moved[i], u))
                assert k0_class(GradedFreeData(m, moved), K).value == cls.value
            other = [
                tuple(rng.randint(-5, 5) for _ in range(n))
                for _ in range(rng.randint(0, 3))
            ]
            s = GradedFreeData(m, data.shifts + tuple(other))  # the direct sum
            assert (
                k0_class(s, K).value
                == (cls + k0_class(GradedFreeData(m, other), K)).value
            )


def test_hom_rank_equal_shifts():
    assert hom_rank(2, (1, 1), 3, (1, 1), QUADRANT) == 6


def test_hom_rank_zero_when_difference_leaves_monoid():
    assert hom_rank(1, (1,), 1, (0,), NAT) == 0
    assert hom_rank(1, (0,), 1, (1,), NAT) == 1


def test_hom_rank_group_case_matches_coset_rule():
    # over a group, hom rank is nonzero iff the shifts agree mod U
    lattice_monoid = AffineMonoid.from_cone(zero_cone(Z2))
    rng = random.Random(9)
    for _ in range(50):
        s = (rng.randint(-4, 4), rng.randint(-4, 4))
        s2 = (rng.randint(-4, 4), rng.randint(-4, 4))
        assert hom_rank(1, s, 1, s2, lattice_monoid) == 1
    q = HALFPLANE
    # halfplane units: (0, 1); restrict to the unit group only
    group = AffineMonoid.from_generators(Z2, [(0, 1), (0, -1)])
    for _ in range(50):
        s = (rng.randint(-4, 4), rng.randint(-4, 4))
        s2 = (rng.randint(-4, 4), rng.randint(-4, 4))
        expected = 1 if (s[0] == s2[0]) else 0
        assert hom_rank(1, s, 1, s2, group) == expected


def test_extend_scalars_identity():
    data = GradedFreeData(QUADRANT, [(2, 3)])
    cls = k0_class(data, K)
    same = extend_scalars_class(cls, QUADRANT, QUADRANT)
    assert same.value == cls.value


def test_extend_scalars_collapses_cosets():
    cls = k0_class(GradedFreeData(QUADRANT, [(3, 5)]), K)
    moved = extend_scalars_class(cls, QUADRANT, HALFPLANE)
    q = HALFPLANE.coset_quotient
    assert moved.value == GroupRingElement.character(q, (3, 0))


def test_extend_scalars_to_everything_is_augmentation():
    whole = AffineMonoid.from_cone(zero_cone(Z2))
    cls = k0_class(GradedFreeData(QUADRANT, [(1, 2), (3, 4)]), K)
    moved = extend_scalars_class(cls, QUADRANT, whole)
    assert moved.value.terms == {(): 2}


def test_extend_scalars_refuses_a_copy_of_the_source_group():
    # a group is its object: a class over a field-for-field copy of the
    # source's coset group does not live over the source monoid
    cls = k0_class(GradedFreeData(QUADRANT, [(3, 5)]), K)
    copy = field_copy(QUADRANT.coset_quotient)
    moved = KClass(cls.coeff, GroupRingElement(copy, cls.value.terms))
    with pytest.raises(ValueError, match="does not live over the source monoid"):
        extend_scalars_class(moved, QUADRANT, HALFPLANE)


@pytest.mark.parametrize(
    "refused, match",
    [
        (
            lambda: k0_class(GradedFreeData(NAT, [(0,)]), K)
            + k0_class(GradedFreeData(NAT, [(0,)]), CoefficientSpec("Z")),
            "different coefficient rings",
        ),
        (lambda: hom_rank(-1, (0, 0), 1, (0, 0), QUADRANT), "ranks must be nonnegative"),
        # the dual of a ray of Z^2 is a half-plane: it holds a line
        (lambda: k0_affine_toric(Cone.from_rays(Z2, [(1, 0)]).dual(), K), "strongly convex"),
    ],
    ids=["two-coefficient-rings", "negative-rank", "cone-with-a-line"],
)
def test_graded_data_refuses_what_it_cannot_mean(refused, match):
    with pytest.raises(ValueError, match=match):
        refused()


def test_extend_scalars_requires_submonoid():
    cls = k0_class(GradedFreeData(HALFPLANE, [(1, 0)]), K)
    with pytest.raises(NotASubmonoid):
        extend_scalars_class(cls, HALFPLANE, QUADRANT)


def test_naturality_square_on_face_pairs():
    # restriction to a face includes dual monoids the other way around
    rng = random.Random(31)
    sigma = Cone.from_rays(Z2, [(1, 0), (0, 1)])
    for tau in Fan.from_max_cones(Z2, [sigma]).faces_of(sigma):
        a = AffineMonoid.from_cone(sigma)
        a2 = AffineMonoid.from_cone(tau)
        assert a.is_submonoid_of(a2)
        for _ in range(10):
            shifts = [
                (rng.randint(-4, 4), rng.randint(-4, 4))
                for _ in range(rng.randint(1, 3))
            ]
            left = extend_scalars_class(k0_class(GradedFreeData(a, shifts), K), a, a2)
            right = k0_class(GradedFreeData(a2, shifts), K)
            assert left.value == right.value


def test_k0_affine_toric_descriptions():
    smooth = k0_affine_toric(Cone.from_rays(Z2, [(1, 0), (0, 1)]), K)
    assert smooth.laurent_rank == 2
    point = k0_affine_toric(zero_cone(Z2), K)
    assert point.laurent_rank == 0
    singular = k0_affine_toric(Cone.from_rays(Z2, [(1, 0), (1, 2)]), K)
    assert singular.laurent_rank == 2
    assert singular.symbolic(0) == "K_0(k) (x) Z[Z^2]"
    x = singular.element((1, 1))
    assert x.augmentation() == 1
