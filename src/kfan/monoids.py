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

from itertools import accumulate, compress, count, repeat, takewhile
from operator import add, floordiv, index, mod, mul, sub
from typing import Iterable, Sequence

from .cones import Cone, dual_ray_generators
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
    plus_minus,
    quotient,
    smith_with_inverses,
    vec_sub,
)


class GroupMismatch(Exception):
    """Operands live over different groups."""


class NotASubmonoid(Exception):
    pass


def _parallelepiped_points(rays: Sequence[Vec], n: int) -> list[Vec]:
    """Nonzero lattice points of {sum t_j r_j : 0 <= t_j < 1} for
    linearly independent rays: one representative per class of the
    saturated span modulo the sublattice the rays generate, by one
    Smith reduction U R^T V = D of the ray matrix R (Bruns, Ichim,
    *Normaliz: algorithms for affine monoids and rational cones*, 2010).

    The first d columns c_i of U^-1 are a basis of the saturated span,
    and R^T V = U^-1 D says the rays generate the sublattice on the
    d_i c_i.  So the classes are x_a = sum a_i c_i, 0 <= a_i < d_i, with
    ray coordinates t = V (a_i / d_i), integers once scaled by e = d_d.
    The point is x_a minus the floor of t on the rays, checked by the
    identity e p = sum f_j r_j, f = e t mod e, at every point.  The a_i
    step as an odometer: a_i + 1 adds c_i to x_a and e/d_i V_i to e t."""
    d = len(rays)
    _, diagonal, v, uinv = smith_with_inverses(
        IntMatrix(rays, ncols=n).transpose(), keep=("v", "uinv")
    )
    divisors = [diagonal.rows[i][i] for i in range(min(d, n))]
    if len(divisors) < d or not all(divisors):
        raise ValueError(f"the rays {list(rays)} are not linearly independent")
    e = divisors[-1] if divisors else 1
    torsion = [i for i, di in enumerate(divisors) if di > 1]
    # the n coordinates of x_a, then the d of e t, each a list over a: each
    # index steps every entry so far d_i - 1 times, so the last runs fastest
    values = [[0]] * (n + d)
    for i in torsion:
        steps = [row[i] for row in uinv.rows] + [row[i] * (e // divisors[i]) for row in v.rows]
        values = [[t for x in vs for t in accumulate(repeat(s, divisors[i] - 1), initial=x)]
                  for vs, s in zip(values, steps)]
    ets = values[n:]
    for k in range(n):  # x_a's coordinate k becomes the point's, in place
        values[k] = list(map(sub, values[k], _on_rays(rays, k, ets, floordiv, e)))
    del values[n:]
    for k, pk in enumerate(values):
        offsets = map(sub, map(mul, repeat(e), pk), _on_rays(rays, k, ets, mod, e))
        if (i := next(compress(count(), offsets), None)) is not None:
            p = tuple(q[i] for q in values)
            raise CertificateError(f"point {p} is not at {[t[i] % e for t in ets]} / {e} on the rays")
    ets = offsets = None  # the last check's maps hold the e t lists too
    return [p for p in zip(*values) if any(p)]


def _on_rays(rays: Sequence[Vec], k: int, ets: list[list[int]], op, e: int) -> Iterable[int]:
    """sum_j op(e t_j, e) r_j[k] over all points, to be read once."""
    total = repeat(0)
    for r, ts in zip(rays, ets):
        if r[k]:
            total = map(add, total, map(mul, repeat(r[k]), map(op, ts, repeat(e))))
    return total


def _pulling_triangulation(cone: Cone) -> list[tuple[Vec, ...]]:
    """Simplicial cones on rays of the pointed ``cone`` that cover it:
    the cone when simplicial, else its first ray r0 joined to the
    pulling triangulation of each facet u with u.r0 > 0 (De Loera,
    Rambau, Santos, *Triangulations*, 2010, 4.3).  Cover: for x in the
    cone take the largest s >= 0 with y = x - s r0 in it, finite as the
    cone is pointed; y lies on a facet u with u.r0 > 0 (else y - e r0
    stays in the cone for small e > 0), by induction in a simplex of
    it, so x lies in r0 joined to that simplex.  A facet must be the
    (d-1)-dimensional cone on the rays tight on it, and a pointed cone
    of dimension <= 2 simplicial, else ``CertificateError``."""
    d, rays = cone.dim, cone.rays
    if len(rays) == d:
        return [rays]
    if d <= 2:
        raise CertificateError(f"pointed cone of dimension {d} <= 2 has {len(rays)} rays")
    r0 = rays[0]
    simplices = []
    for u in cone._proper_facets():
        if dot(u, r0) > 0:
            tight = tuple(r for r in rays if dot(u, r) == 0)
            facet = Cone.from_rays(cone.lattice, tight)
            if facet.rays != tight or facet.dim != d - 1:
                raise CertificateError(
                    f"facet {u} of the cone on {list(rays)} is not the "
                    f"{d - 1}-dimensional cone on its tight rays {list(tight)}"
                )
            simplices.extend((r0,) + s for s in _pulling_triangulation(facet))
    return simplices


def hilbert_basis(cone: Cone) -> list[Vec]:
    """The unique minimal generating set of the pointed part of the
    cone's lattice-point monoid, plus +- generators of the lineality
    lattice.  Any rank the cones accept, by ``_pointed_hilbert_basis``
    on a ``pointed`` cone, else on the image of the cone modulo its
    lineality.  Found and checked on the first call, kept on the cone
    (a call that raises keeps nothing), and returned as a fresh list.
    """
    if cone._hilbert is None:
        cone._hilbert = tuple(_hilbert_basis(cone))
    return list(cone._hilbert)


def _hilbert_basis(cone: Cone) -> list[Vec]:
    if cone.pointed:
        return _pointed_hilbert_basis(cone)
    lin = kernel(IntMatrix(cone.facets, ncols=cone.lattice.rank))
    q = quotient(cone.lattice, lin)
    pointed_image = Cone.from_rays(Lattice(q.free_rank), _nonzero_images(q, cone.rays))
    basis = [q.lift(h) for h in _pointed_hilbert_basis(pointed_image)]
    return basis + plus_minus(lin.rows)


def _nonzero_images(q: QuotientLattice, vectors: Iterable[Vec]) -> list[Vec]:
    """The distinct nonzero images of ``vectors`` in ``q``, in the order
    they are first reached."""
    return [c for c in dict.fromkeys(map(q.project, vectors)) if any(c)]


def _pointed_hilbert_basis(cone: Cone) -> list[Vec]:
    """The sorted Hilbert basis of a pointed cone.  The rays and the
    parallelepiped points of the simplices of its pulling triangulation
    generate its lattice points, and a candidate g is reducible exactly
    when g - h is a nonzero point of the cone for a basis element h with
    2 w(h) <= w(g), w the sum of the proper facets: w is positive on
    every nonzero point of the pointed cone, and if g = a + b with
    w(a) <= w(b), any basis element h summing into a has w(h) <= w(g) / 2
    and g - h = (a - h) + b.  So the candidates are taken in order of
    degree w, each tested against the basis found so far."""
    if cone.dim == 0:
        return []
    n = cone.lattice.rank
    candidates = set(cone.rays)
    for simplex in _pulling_triangulation(cone):
        candidates.update(_parallelepiped_points(simplex, n))
    w = [sum(col) for col in zip(*cone._proper_facets())]
    graded = sorted((dot(w, g), g) for g in candidates)
    if graded[0][0] <= 0:
        raise CertificateError(f"degree {w} is not positive on {graded[0][1]} of the cone")
    basis = []  # (degree, element), in degree order
    for deg, g in graded:
        below = takewhile(lambda b: 2 * b[0] <= deg, basis)
        if not any(cone.contains(vec_sub(g, h)) for _, h in below):
            basis.append((deg, g))
    return sorted(g for _, g in basis)


class AffineMonoid:
    """A finitely generated submonoid of a lattice, with its unit group
    and the quotient that indexes unit-group cosets; one built
    ``from_cone`` finds its ``generators`` on their first read."""

    __slots__ = ("ambient", "_generators", "_cone", "unit_generators", "coset_quotient")

    def __init__(
        self,
        ambient: Lattice,
        generators: Sequence[Vec] | None,
        unit_generators: IntMatrix,
        coset_quotient: QuotientLattice,
        cone: Cone | None = None,
    ):
        self.ambient = ambient
        self._generators = None if generators is None else tuple(generators)
        self._cone = cone
        self.unit_generators = unit_generators
        self.coset_quotient = coset_quotient

    @classmethod
    def from_cone(cls, cone: Cone) -> "AffineMonoid":
        """The monoid of lattice points of the dual cone, generated by
        its Hilbert basis (``hilbert_basis``) at every rank, smooth or
        not, found on the first read of ``generators``.

        Its units are exactly the functionals vanishing on the cone
        (they and their negatives are both nonnegative on it), so its
        coset group is the cone's ``character_quotient()``."""
        units = cone.perp_lattice()
        return cls(cone.lattice.dual(), None, units, cone.character_quotient(), cone)

    @property
    def generators(self) -> tuple[Vec, ...]:
        if self._generators is None:
            self._generators = tuple(hilbert_basis(self._cone.dual()))
        return self._generators

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

    def nonunit_images(self) -> list[Vec]:
        """Distinct nonzero images of the generators in the coset quotient."""
        return _nonzero_images(self.coset_quotient, self.generators)

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
                rem = q.reduce([a - k * b for a, b in zip(remaining, g)])
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


def push_terms(terms: dict, phi: QuotientSurjection) -> dict:
    """The pushforward of a term dict along phi: ``phi.apply`` on each
    key, coefficients of equal images summed, zeros dropped, in a fresh
    dict.  The one push of the package: the smooth kernels call it on
    bare term dicts, and ``GroupRingElement.pushforward`` wraps it."""
    apply = phi.apply
    out: dict = {}
    for e, k in terms.items():
        key = apply(e)
        out[key] = out.get(key, 0) + k
    return {e: k for e, k in out.items() if k} if 0 in out.values() else out


class GroupRingElement:
    """A finitely supported integer combination of characters chi^q,
    q in a quotient lattice.  Immutable; zero coefficients are never
    stored.

    The public constructor reduces every key to normal form and merges
    keys that become equal.  ``pushforward``, ``+`` and unary ``-``
    already produce distinct normal-form keys in a fresh dict, so they
    build their result through ``_normal``, which only drops zero
    coefficients, in place.
    """

    __slots__ = ("group", "terms")

    def __init__(self, group: QuotientLattice, terms: dict):
        clean: dict[Vec, int] = {}
        for coords, coeff in terms.items():
            key = group.reduce(as_vec(coords))
            clean[key] = clean.get(key, 0) + index(coeff)
        self.group = group
        self.terms = {k: v for k, v in clean.items() if v != 0}

    @classmethod
    def _normal(cls, group: QuotientLattice, terms: dict) -> "GroupRingElement":
        """The element with these terms, whose keys must be distinct
        normal-form coordinates of ``group`` and whose coefficients must
        be ints.  The element takes the dict over, so it must be fresh:
        its zero coefficients are dropped in place."""
        if 0 in terms.values():
            for k in [k for k, v in terms.items() if not v]:
                del terms[k]
        self = object.__new__(cls)
        self.group = group
        self.terms = terms
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
        if self.group is not other.group:
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
        """Linear extension of chi^q -> chi^{phi(q)}; a ring map, through
        ``push_terms``."""
        if phi.source is not self.group:
            raise GroupMismatch("surjection source does not match the element group")
        return GroupRingElement._normal(phi.target, push_terms(self.terms, phi))

    def support(self) -> list[Vec]:
        return sorted(self.terms)

    def items(self) -> list[tuple[Vec, int]]:
        return sorted(self.terms.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupRingElement)
            and self.group is other.group
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
