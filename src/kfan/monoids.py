"""Affine monoids, Hilbert bases, and group rings of quotient lattices.

The monoid of interest is the set of lattice points of a rational cone
in the character lattice; its unit group is the lattice of functionals
vanishing on the defining cone, and cosets of the unit group are
identified with normal-form coordinates of the quotient -- no explicit
set of coset representatives is ever materialized.

Group-ring elements are finitely supported integer combinations of
characters chi^q indexed by quotient coordinates, multiplied by
convolution over the group law.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

from .cones import Cone, UnsupportedRank, dual_ray_generators
from .intlinalg import (
    CertificateError,
    IntMatrix,
    Lattice,
    QuotientLattice,
    QuotientSurjection,
    Vec,
    as_vec,
    dot,
    kernel,
    quotient,
    solve,
    vec_neg,
    vec_sub,
)


class GroupMismatch(Exception):
    """Operands live over different groups."""


class NotASubmonoid(Exception):
    pass


def _solve_rational_square(a: IntMatrix, b: Sequence[int]) -> list[Fraction]:
    """Solve a @ x = b exactly over Q; a must be square and invertible."""
    n = a.nrows
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a.rows, b)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [m[i][n] for i in range(n)]


def _parallelepiped_points(rays: Sequence[Vec], n: int) -> list[Vec]:
    """Nonzero lattice points of {sum t_i r_i : 0 <= t_i < 1} for
    linearly independent rays: one representative per class of the
    saturated span modulo the sublattice the rays generate."""
    d = len(rays)
    mat = IntMatrix(rays, ncols=n)
    sat = kernel(kernel(mat))  # basis of Z^n intersected with the ray span
    if sat.nrows != d:
        raise ValueError(f"the rays {list(rays)} are not linearly independent")
    coords = []
    for r in rays:
        c = solve(sat.transpose(), r)
        if c is None:
            raise CertificateError(f"ray {r} is not in the saturation of its own span")
        coords.append(c)
    c_mat = IntMatrix(coords, ncols=d)
    grp = quotient(Lattice(d), c_mat)
    if grp.free_rank != 0:
        raise CertificateError("independent rays generate a sublattice of infinite index")
    points = []
    for torsion in product(*(range(f) for f in grp.invariant_factors)):
        y = grp.lift(torsion)
        x = sat.transpose().apply(y)
        t = _solve_rational_square(c_mat.transpose(), y)
        shift = [math.floor(ti) for ti in t]
        p = tuple(
            xi - sum(s * r[k] for s, r in zip(shift, rays)) for k, xi in enumerate(x)
        )
        py = solve(sat.transpose(), p)
        if py is None:
            raise CertificateError(f"shifted point {p} left the span of the rays")
        tt = _solve_rational_square(c_mat.transpose(), py)
        if not all(0 <= ti < 1 for ti in tt):
            raise CertificateError(f"point {p} is outside the fundamental parallelepiped")
        if any(p):
            points.append(p)
    return points


def _star_triangulation(cone: Cone) -> list[tuple[Vec, ...]]:
    """Split a pointed 3-dim cone into simplicial subcones through its
    first extreme ray."""
    r0 = cone.rays[0]
    simplices = []
    for u in cone._proper_facets():
        if dot(u, r0) == 0:
            continue
        tight = [r for r in cone.rays if dot(u, r) == 0]
        if len(tight) != 2:
            raise CertificateError(
                f"facet {u} of a 3-dimensional cone is tight on {len(tight)} rays"
            )
        simplices.append((r0,) + tuple(tight))
    return simplices


def hilbert_basis(cone: Cone) -> list[Vec]:
    """The unique minimal generating set of the pointed part of the
    cone's lattice-point monoid, plus +- generators of the lineality
    lattice.

    Pointed parts of dimension <= 3 are supported: simplicial cones by
    fundamental-parallelepiped enumeration, non-simplicial ones by a
    star triangulation whose bases are merged and re-minimalized.
    """
    n = cone.lattice.rank
    lin = kernel(IntMatrix(cone.facets, ncols=n))
    if lin.nrows == 0:
        return _pointed_hilbert_basis(cone)
    q = quotient(cone.lattice, lin)
    images = []
    seen = set()
    for r in cone.rays:
        c = q.project(r)
        if any(c) and c not in seen:
            seen.add(c)
            images.append(c)
    pointed_image = Cone.from_rays(Lattice(q.free_rank), images)
    basis = [q.lift(h) for h in _pointed_hilbert_basis(pointed_image)]
    for l in lin.rows:
        basis.append(l)
        basis.append(vec_neg(l))
    return basis


def _pointed_hilbert_basis(cone: Cone) -> list[Vec]:
    d = cone.dim
    if d == 0:
        return []
    if d > 3:
        raise UnsupportedRank(f"Hilbert basis for pointed dimension {d} > 3")
    n = cone.lattice.rank
    rays = cone.rays
    if len(rays) == d:
        simplices = [rays]
    elif d == 3:
        simplices = _star_triangulation(cone)
    else:
        raise CertificateError(f"pointed cone of dimension {d} <= 2 has {len(rays)} rays")
    candidates = set(rays)
    for simplex in simplices:
        candidates.update(_parallelepiped_points(simplex, n))
    basis = []
    for g in sorted(candidates):
        reducible = False
        for h in candidates:
            if h == g:
                continue
            diff = vec_sub(g, h)
            if any(diff) and cone.contains(diff):
                reducible = True
                break
        if not reducible:
            basis.append(g)
    return basis


class AffineMonoid:
    """A finitely generated submonoid of a lattice, with its unit group
    and the quotient that indexes unit-group cosets."""

    __slots__ = ("ambient", "generators", "unit_generators", "coset_quotient")

    def __init__(
        self,
        ambient: Lattice,
        generators: Sequence[Vec],
        unit_generators: IntMatrix,
        coset_quotient: QuotientLattice,
    ):
        self.ambient = ambient
        self.generators = tuple(generators)
        self.unit_generators = unit_generators
        self.coset_quotient = coset_quotient

    @classmethod
    def from_cone(cls, cone: Cone) -> "AffineMonoid":
        """The monoid of lattice points of the dual cone.

        Its units are exactly the functionals vanishing on the cone
        (they and their negatives are both nonnegative on it)."""
        dual = cone.dual()
        units = cone.perp_lattice()
        try:
            gens = hilbert_basis(dual)
        except UnsupportedRank:
            # generating but not minimal; fine for smooth cones, where
            # the dual's extreme rays generate its lattice points
            gens = list(dual.rays)
            for u in units.rows:
                gens.append(u)
                gens.append(vec_neg(u))
        return cls(
            cone.lattice.dual(),
            tuple(dict.fromkeys(as_vec(g) for g in gens)),
            units,
            quotient(cone.lattice.dual(), units),
        )

    @classmethod
    def from_generators(
        cls, ambient: Lattice, generators: Iterable[Sequence[int]]
    ) -> "AffineMonoid":
        gens = [as_vec(g) for g in generators]
        if any(len(g) != ambient.rank for g in gens):  # zero generators too
            raise ValueError("generator length does not match the lattice rank")
        gens = tuple(dict.fromkeys(g for g in gens if any(g)))
        # g is invertible iff -g lies in the rational cone of the
        # generators, iff every facet functional of that cone kills g
        _, pointed_duals = dual_ray_generators(gens, ambient.rank)
        units = [g for g in gens if all(dot(u, g) == 0 for u in pointed_duals)]
        unit_mat = IntMatrix(units, ncols=ambient.rank)
        return cls(ambient, gens, unit_mat, quotient(ambient, unit_mat))

    def unit_group_contains(self, v: Sequence[int]) -> bool:
        return self.coset_quotient.is_relation(v)

    def is_group(self) -> bool:
        return all(self.unit_group_contains(g) for g in self.generators)

    def nonunit_images(self) -> list[Vec]:
        """Distinct nonzero images of the generators in the coset quotient."""
        q = self.coset_quotient
        out = []
        seen = set()
        for g in self.generators:
            c = q.project(g)
            if c != q.zero() and c not in seen:
                seen.add(c)
                out.append(c)
        return out

    def contains(self, v: Sequence[int]) -> bool:
        """Exact membership: is v a nonnegative combination of the
        generators (with units free of charge)?

        Reduces modulo the unit group first, then runs a bounded search
        over the finite fiber cut out by a strictly positive functional
        on the pointed image cone.
        """
        v = as_vec(v)
        if len(v) != self.ambient.rank:
            raise ValueError("vector length does not match the lattice rank")
        q = self.coset_quotient
        target = q.project(v)
        if target == q.zero():
            return True
        images = self.nonunit_images()
        if not images:
            return False
        t = len(q.invariant_factors)
        free = [img[t:] for img in images]
        if not all(any(f) for f in free):
            raise CertificateError("a nonunit generator has a torsion image")
        lin_duals, pointed_duals = dual_ray_generators(free, q.free_rank)
        vfree = target[t:]
        if any(dot(l, vfree) != 0 for l in lin_duals):
            return False
        if any(dot(u, vfree) < 0 for u in pointed_duals):
            return False
        w = tuple(sum(u[i] for u in pointed_duals) for i in range(q.free_rank))
        weights = [dot(w, f) for f in free]
        if not all(x > 0 for x in weights):
            raise CertificateError("the nonunit generators do not span a pointed cone")
        order = sorted(range(len(images)), key=lambda i: -weights[i])

        def search(pos: int, remaining: Vec) -> bool:
            wn = dot(w, remaining[t:])
            if wn == 0:
                return remaining == q.zero()
            if pos == len(order):
                return False
            i = order[pos]
            g = images[i]
            step = weights[i]
            for k in range(wn // step, -1, -1):
                rem = q.sub(remaining, q.scale(k, g))
                if search(pos + 1, rem):
                    return True
            return False

        return search(0, target)

    def is_submonoid_of(self, other: "AffineMonoid") -> bool:
        return all(other.contains(g) for g in self.generators)

    def __repr__(self) -> str:
        return (
            f"AffineMonoid({len(self.generators)} generators, "
            f"units of rank {self.unit_generators.nrows} given)"
        )


class GroupRingElement:
    """A finitely supported integer combination of characters chi^q,
    q in a quotient lattice.  Immutable; zero coefficients are never
    stored.

    The public constructor reduces every key to normal form and merges
    keys that become equal.  ``pushforward``, ``+`` and unary ``-``
    already produce distinct normal-form keys, so they build their
    result through ``_normal``, which only drops zero coefficients.
    """

    __slots__ = ("group", "terms")

    def __init__(self, group: QuotientLattice, terms: dict):
        clean: dict[Vec, int] = {}
        for coords, coeff in terms.items():
            if coeff == 0:
                continue
            key = group.reduce(as_vec(coords))
            clean[key] = clean.get(key, 0) + int(coeff)
        self.group = group
        self.terms = {k: v for k, v in clean.items() if v != 0}

    @classmethod
    def _normal(cls, group: QuotientLattice, terms: dict) -> "GroupRingElement":
        """The element with these terms, whose keys must be distinct
        normal-form coordinates of ``group`` and whose coefficients must
        be ints; only zero coefficients are dropped."""
        self = object.__new__(cls)
        self.group = group
        self.terms = {k: v for k, v in terms.items() if v}
        return self

    @classmethod
    def zero(cls, group: QuotientLattice) -> "GroupRingElement":
        return cls(group, {})

    @classmethod
    def one(cls, group: QuotientLattice) -> "GroupRingElement":
        return cls(group, {group.zero(): 1})

    @classmethod
    def monomial(cls, group: QuotientLattice, coords, coeff: int = 1) -> "GroupRingElement":
        return cls(group, {as_vec(coords): coeff})

    @classmethod
    def character(cls, group: QuotientLattice, ambient_vector) -> "GroupRingElement":
        """chi^[m] for an ambient lattice vector m."""
        return cls(group, {group.project(ambient_vector): 1})

    def _check(self, other: "GroupRingElement") -> None:
        if self.group != other.group:
            raise GroupMismatch("elements live over different groups")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        return GroupRingElement._normal(self.group, terms)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement._normal(self.group, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other) -> "GroupRingElement":
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        terms: dict[Vec, int] = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                k = self.group.add(a, b)
                terms[k] = terms.get(k, 0) + ca * cb
        return GroupRingElement(self.group, terms)

    def __rmul__(self, other) -> "GroupRingElement":
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, k: int) -> "GroupRingElement":
        return GroupRingElement(self.group, {c: k * v for c, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def augmentation(self) -> int:
        """Sum of coefficients: the ring map onto Z."""
        return sum(self.terms.values())

    def pushforward(self, phi: QuotientSurjection) -> "GroupRingElement":
        """Linear extension of chi^q -> chi^{phi(q)}; a ring map."""
        if phi.source != self.group:
            raise GroupMismatch("surjection source does not match the element group")
        terms: dict[Vec, int] = {}
        for coords, coeff in self.terms.items():
            k = phi.apply(coords)
            terms[k] = terms.get(k, 0) + coeff
        return GroupRingElement._normal(phi.target, terms)

    def support(self) -> list[Vec]:
        return sorted(self.terms)

    def items(self) -> list[tuple[Vec, int]]:
        return sorted(self.terms.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupRingElement)
            and self.group == other.group
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.group, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for coords, coeff in self.items():
            bits.append(f"{coeff}*chi^{list(coords)}")
        return " + ".join(bits)
