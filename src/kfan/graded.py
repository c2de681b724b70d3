"""K-classes of graded free modules over monoid rings.

A graded free module over the monoid ring is presented by its multiset
of degree shifts; its class in K_0 lives in the group ring of the
coset quotient M/U(A), so shifting a summand by a unit of the monoid
does not change the class.  Coefficient rings are carried symbolically:
a flag records whether their K_0 is rank-one (the numeric case), and
higher K-groups are never computed, only labelled.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .cones import Cone
from .intlinalg import QuotientLattice, Vec, as_vec, canonical_surjection
from .monoids import AffineMonoid, GroupRingElement, NotASubmonoid


class CoefficientNotRankOne(Exception):
    """Numeric K-class output needs K_0(R) = Z via rank."""


@dataclass(frozen=True)
class CoefficientSpec:
    """A coefficient ring, by name only.  ``k0_rank_one`` asserts that
    its K_0 is Z, detected by rank, which makes K-classes numeric."""

    name: str
    k0_rank_one: bool = True

    def k_symbol(self, q: str | int = "q") -> str:
        return f"K_{q}({self.name})"


@dataclass(frozen=True)
class GradedFreeData:
    """A direct sum of rank-one shifts of the monoid ring: the module
    data is just the multiset of shift degrees (empty = zero module)."""

    monoid: AffineMonoid
    shifts: tuple[Vec, ...]

    def __init__(self, monoid: AffineMonoid, shifts: Sequence[Sequence[int]]):
        shifts = tuple(sorted(as_vec(s) for s in shifts))
        if any(len(s) != monoid.ambient.rank for s in shifts):
            raise ValueError("shift length does not match the lattice rank")
        object.__setattr__(self, "monoid", monoid)
        object.__setattr__(self, "shifts", shifts)


@dataclass(frozen=True)
class KClass:
    """An element of K_0 over a coefficient ring: a group-ring value
    over M/U(A).  Coefficients may go negative for virtual classes."""

    coeff: CoefficientSpec
    value: GroupRingElement

    def __add__(self, other: "KClass") -> "KClass":
        if self.coeff != other.coeff:
            raise ValueError("K-classes over different coefficient rings")
        return KClass(self.coeff, self.value + other.value)

    def is_effective(self) -> bool:
        """All coefficients nonnegative: the class of an actual module."""
        return all(c >= 0 for c in self.value.terms.values())


def coset_decomposition(
    shifts: Sequence[Sequence[int]], monoid: AffineMonoid
) -> dict[Vec, tuple[Vec, ...]]:
    """Partition a shift multiset by image in M/U(A)."""
    q = monoid.coset_quotient
    parts: dict[Vec, list[Vec]] = {}
    for s in shifts:
        parts.setdefault(q.project(s), []).append(as_vec(s))
    return {k: tuple(sorted(v)) for k, v in parts.items()}


def k0_class(data: GradedFreeData, coeff: CoefficientSpec) -> KClass:
    """The K_0 class of a graded free module: one character per shift,
    taken modulo the unit group of the monoid."""
    if not coeff.k0_rank_one:
        raise CoefficientNotRankOne(coeff.name)
    q = data.monoid.coset_quotient
    return KClass(coeff, GroupRingElement(q, Counter(map(q.project, data.shifts))))


def hom_rank(
    p_rank: int,
    s: Sequence[int],
    p2_rank: int,
    s2: Sequence[int],
    monoid: AffineMonoid,
) -> int:
    """Rank of the graded homs between P (x) R[A][s] and P' (x) R[A][s']:
    the full rank p_rank * p2_rank when s' - s lies in the monoid, zero
    otherwise.  When the monoid is a group this degenerates to coset
    equality of s and s'."""
    if p_rank < 0 or p2_rank < 0:
        raise ValueError("ranks must be nonnegative")
    diff = tuple(a - b for a, b in zip(as_vec(s2), as_vec(s)))
    return p_rank * p2_rank if monoid.contains(diff) else 0


def extend_scalars_class(
    x: KClass, source: AffineMonoid, target: AffineMonoid
) -> KClass:
    """Transport a K-class along an inclusion of monoids A <= A' by
    collapsing unit-group cosets: the group-ring pushforward along
    M/U(A) -> M/U(A')."""
    if not source.is_submonoid_of(target):
        raise NotASubmonoid("source monoid is not contained in the target")
    if x.value.group is not source.coset_quotient:
        raise ValueError("class does not live over the source monoid")
    phi = canonical_surjection(source.coset_quotient, target.coset_quotient)
    return KClass(x.coeff, x.value.pushforward(phi))


@dataclass(frozen=True)
class AffineKDescription:
    """The equivariant K-theory of an affine toric piece: for every
    strongly convex cone, smooth or not, it is the coefficient K-theory
    tensored with the group ring of the minimal-orbit character group."""

    coeff: CoefficientSpec
    characters: QuotientLattice

    @property
    def laurent_rank(self) -> int:
        return self.characters.free_rank

    def symbolic(self, q: str | int = "q") -> str:
        return f"{self.coeff.k_symbol(q)} (x) Z[Z^{self.laurent_rank}]"

    def element(self, ambient_vector) -> GroupRingElement:
        """The class of the rank-one module shifted by a character."""
        return GroupRingElement.character(self.characters, ambient_vector)


def k0_affine_toric(cone: Cone, coeff: CoefficientSpec) -> AffineKDescription:
    """K-theory description of the affine toric variety of a strongly
    convex cone; the character group is free of rank dim(cone), with no
    smoothness assumption."""
    if not cone.pointed:
        raise ValueError("affine toric varieties come from strongly convex cones")
    return AffineKDescription(coeff, cone.character_quotient())
