"""Strongly convex rational polyhedral cones and fans.

A cone carries both descriptions -- primitive extreme rays and integer
facet inequalities -- since faces want the inequality side and duals
want the generator side.  It is built from its sorted extreme rays, so
two cones equal under ``==`` have the same facets and
``perp_lattice()``.  Both descriptions are certified by checks that
raise ``CertificateError``, so they hold under ``python -O``: on
independent rays by a pairing matrix (``_simplicial_facets``), after
``_ray_reduction`` (a determinant at full rank, else one Smith
reduction) has also decided smoothness; on dependent rays by a second
double description (``Cone.from_rays``), whose candidate normals are
closed-form minors (``intlinalg.normal_vector``) at the ranks supported
here (<= 4).  A
face of a simplicial cone is certified on first use (``Cone._face``).
A cone keeps its dual, and the dual the Hilbert basis
``monoids.hilbert_basis`` found for it; its character group is the one
``intlinalg.quotient`` keeps per perp lattice.

A fan is a finite face-closed collection of cones meeting in common
faces, certified by its ridges and one probe point when it is complete
and simplicial (``_certified_walls``), else pair by pair
(``_check_pairs``).  It lists each cone's faces once (``_face_rays``),
builds each distinct face once, and numbers its cones in canonical
order.  Its tables and its subfans, the open sets of the poset topology
used by the sheaf layer, hold cone numbers, and a ``Cone`` handed in is
found by its ray set (``Fan.find``), so no ``Cone`` is hashed.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from operator import mul
from typing import Iterable, Sequence

from .intlinalg import (
    CertificateError,
    IntMatrix,
    Lattice,
    QuotientLattice,
    Vec,
    as_vec,
    det,
    dot,
    kernel,
    normal_vector,
    plus_minus,
    primitive,
    quotient,
    rank as matrix_rank,
    smith_kernel,
    vec_neg,
)

MAX_RANK = 4


class NotStronglyConvex(Exception):
    """The generated cone contains a line."""


class NotAFan(Exception):
    """Two cones intersect in something that is not a common face."""

    def __init__(self, i: int, j: int, message: str = ""):
        self.pair = (i, j)
        super().__init__(message or f"cones {i} and {j} do not intersect in a common face")


class ConeNotInFan(Exception):
    pass


class UnsupportedRank(Exception):
    pass


class DomainNotOpen(Exception):
    """A subfan member set is not downward closed under the face order."""


def _unique_primitives(vectors: Iterable[Sequence[int]]) -> list[Vec]:
    """The distinct primitive vectors of the nonzero ``vectors``, in the
    order they are first reached."""
    return [p for p in dict.fromkeys(primitive(as_vec(v)) for v in vectors) if p is not None]


def dual_ray_generators(
    vectors: Sequence[Sequence[int]], rank: int
) -> tuple[list[Vec], list[Vec]]:
    """Generators of {u : u.v >= 0 for all given v}.

    Returns (lineality_basis, pointed_rays): the dual cone is the span
    of +-lineality_basis plus nonnegative combinations of pointed_rays.
    The lineality is the kernel of the input vectors, taken only when
    their rank d is below the ambient rank.  Every extreme ray of the
    pointed part is cut out by a rank-(d-1) subset of the input vectors
    inside their span, so enumerating (d-1)-subsets finds them all:
    such a subset stacked on the lineality basis is (rank-1) x rank, and
    its normal vector (``normal_vector``) is the candidate ray, kept
    with the sign that is nonnegative on every input.
    """
    vecs = _unique_primitives(vectors)
    mat = IntMatrix(vecs, ncols=rank)
    d = matrix_rank(mat)
    lin = kernel(mat) if d < rank else IntMatrix([], ncols=rank)
    if lin.nrows != rank - d:
        raise CertificateError(f"rank {d} and kernel rank {lin.nrows} disagree in Z^{rank}")
    if d == 0:
        return list(lin.rows), []
    pointed: set[Vec] = set()
    for subset in combinations(vecs, d - 1):
        u = normal_vector(IntMatrix._trusted(subset + lin.rows, rank))
        if u is None:
            continue
        if all(dot(u, w) >= 0 for w in vecs):
            pointed.add(u)
        elif all(dot(u, w) <= 0 for w in vecs):
            pointed.add(vec_neg(u))
    return list(lin.rows), sorted(pointed)


class Cone:
    """A rational polyhedral cone with rays and facet inequalities.

    Cones built by ``from_rays`` are strongly convex; duals of
    lower-dimensional cones contain lines and store them as opposite
    ray pairs, with ``pointed`` False.  Immutable; equality and hashing
    go by the sorted primitive ray set.  ``facets`` None makes a face
    of a certified simplicial cone (``_face``), whose facets are found
    on their first read.
    """

    __slots__ = ("lattice", "rays", "_facets", "dim", "pointed", "_perp", "_smooth", "_dual",
                 "_hilbert")

    def __init__(self, lattice: Lattice, rays, facets, dim: int, pointed: bool):
        self.lattice = lattice
        self.rays = tuple(sorted(map(as_vec, rays)))
        self._facets = None if facets is None else tuple(sorted(map(as_vec, facets)))
        self.dim = dim
        self.pointed = pointed
        self._perp = self._smooth = self._dual = self._hilbert = None

    @classmethod
    def from_rays(cls, lattice: Lattice, rays: Iterable[Sequence[int]]) -> "Cone":
        """The cone generated by ``rays``, built from their sorted
        primitive vectors.  When some of them are not extreme, the cone
        they generate is certified and then built again from its sorted
        extreme rays, so the result depends on the cone alone."""
        n = lattice.rank
        if n > MAX_RANK:
            raise UnsupportedRank(f"ambient rank {n} > {MAX_RANK}")
        prim = sorted(_unique_primitives(rays))
        if any(len(r) != n for r in prim):
            raise ValueError("ray length does not match the lattice rank")
        reduction = _ray_reduction(tuple(prim), n)
        if reduction is not None:
            return cls._simplicial(lattice, prim, *reduction)
        lin, pnt = dual_ray_generators(prim, n)
        facets = pnt + plus_minus(lin)
        if matrix_rank(IntMatrix(facets, ncols=n)) < n:
            raise NotStronglyConvex(f"cone on {prim} contains a line")
        dual_lin, extreme = dual_ray_generators(facets, n)
        if dual_lin:
            raise CertificateError(f"the facets of the cone on {prim} cut out a line")
        dim = n - len(lin)
        cone = cls(lattice, extreme, facets, dim, pointed=True)
        # cross-checks between the two descriptions
        for r in prim:
            if not cone.contains(r):
                raise CertificateError(f"ray {r} violates a facet of the cone on {prim}")
        for u in cone._proper_facets():
            tight = [r for r in extreme if dot(u, r) == 0]
            if matrix_rank(IntMatrix(tight, ncols=n)) != dim - 1:
                raise CertificateError(
                    f"facet {u} of the cone on {prim} is not tight on rank {dim - 1}"
                )
        # rays of the facets among the input rays: the facets cut out the cone on prim
        stray = set(cone.rays).difference(prim)
        if stray:
            raise CertificateError(f"ray {min(stray)} of the cone on {prim} is not one of its rays")
        if cone.rays != tuple(prim):
            return cls.from_rays(lattice, cone.rays)
        return cone

    @classmethod
    def _simplicial(cls, lattice: Lattice, prim: list, perp: IntMatrix, smooth: bool) -> "Cone":
        """The cone on linearly independent primitive rays, in sorted
        order, certified by dot products instead of a second double
        description (``_simplicial_facets``).  The reduction that found
        the rays independent (``_ray_reduction``) also gave their
        lineality ``perp`` and decided ``smooth``, and the cone keeps
        both: the lineality is its ``perp_lattice()``."""
        cone = cls._face(lattice, tuple(prim))
        cone._facets = _simplicial_facets(prim, perp.rows, lattice.rank)
        cone._smooth = smooth
        cone._perp = perp
        return cone

    @classmethod
    def _face(cls, lattice: Lattice, rays: tuple[Vec, ...]) -> "Cone":
        """The face on ``rays``, a sorted tuple of some of the rays of a
        certified simplicial cone: they are independent and primitive by
        that cone's certificate, so nothing is checked or reduced here.
        The one Smith reduction runs on the first call of
        ``perp_lattice()`` or ``is_smooth()``, and the facets are found
        and certified on the first read of ``facets``."""
        cone = object.__new__(cls)
        cone.lattice, cone.rays, cone.dim, cone.pointed = lattice, rays, len(rays), True
        cone._facets = cone._perp = cone._smooth = cone._dual = cone._hilbert = None
        return cone

    @property
    def facets(self) -> tuple[Vec, ...]:
        """The sorted integer inequalities cutting out the cone; for a
        face built by ``_face``, found and certified on the first read."""
        if self._facets is None:
            lin = self.perp_lattice().rows
            self._facets = _simplicial_facets(self.rays, lin, self.lattice.rank)
        return self._facets

    def _proper_facets(self) -> list[Vec]:
        fs = set(self.facets)
        return [u for u in self.facets if vec_neg(u) not in fs]

    def contains(self, v: Sequence[int]) -> bool:
        return all(dot(u, v) >= 0 for u in self.facets)

    def dual(self) -> "Cone":
        """The dual cone, in the dual lattice, built on the first call
        and kept, so every reader shares it and the Hilbert basis that
        ``monoids.hilbert_basis`` keeps on it.

        Not strongly convex unless this cone is full-dimensional; the
        lineality shows up as opposite ray pairs.
        """
        if self._dual is None:
            n = self.lattice.rank
            dim = matrix_rank(IntMatrix(self.facets, ncols=n))
            self._dual = Cone(
                self.lattice.dual(),
                rays=self.facets,
                facets=self.rays,
                dim=dim,
                pointed=(self.dim == n),
            )
        return self._dual

    def intersection(self, other: "Cone") -> "Cone":
        if self.lattice != other.lattice:
            raise ValueError("cones live in different lattices")
        n = self.lattice.rank
        lin, rays = dual_ray_generators(self.facets + other.facets, n)
        if lin:
            raise CertificateError("the meet of two strongly convex cones contains a line")
        return Cone.from_rays(self.lattice, rays)

    def perp_lattice(self) -> IntMatrix:
        """Generators of the functionals vanishing on the cone: the
        kernel of the matrix of ``rays``.  Found on the first call, by
        the reduction that also decides ``is_smooth()`` on independent
        rays (``_ray_reduction``), and kept."""
        if self._perp is None:
            if self.is_simplicial():
                self._perp, self._smooth = _ray_reduction(self.rays, self.lattice.rank)
            else:
                self._perp = kernel(IntMatrix(self.rays, ncols=self.lattice.rank))
        return self._perp

    def character_quotient(self) -> QuotientLattice:
        """M modulo the functionals vanishing on the cone: the character
        group of the minimal orbit of the affine toric variety, the one
        group ``quotient`` keeps for the cone's perp lattice.  Checked on
        every call: free of rank dim, and its projection onto (P S = I
        for its section S)."""
        q = quotient(Lattice(self.lattice.rank), self.perp_lattice())
        if q.projection @ q.section != IntMatrix.identity(q.coords_len):
            raise CertificateError(
                f"the projection onto the character group of {self!r} is not onto"
            )
        if not (q.is_free and q.free_rank == self.dim):
            raise CertificateError(
                f"character group of {self!r} is not free of rank {self.dim}"
            )
        return q

    def is_simplicial(self) -> bool:
        return len(self.rays) == self.dim

    def is_smooth(self) -> bool:
        """Do the rays extend to a basis of the lattice?  Decided once
        per cone, on independent rays by the reduction that finds the
        lineality (``perp_lattice()``) or, at full rank, by |det| = 1."""
        if self._smooth is None:
            if self.is_simplicial():
                self.perp_lattice()
            else:
                self._smooth = False
        return self._smooth

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Cone)
            and self.rays == other.rays
            and self.lattice == other.lattice
        )

    def __hash__(self) -> int:
        return hash((self.lattice, self.rays))

    def __repr__(self) -> str:
        return f"Cone(rays={[list(r) for r in self.rays]})"


def _order(cone: Cone) -> tuple:
    """The canonical order of cones: by dimension, then by rays."""
    return (cone.dim, cone.rays)


def _ray_reduction(rays: tuple[Vec, ...], n: int) -> tuple[IntMatrix, bool] | None:
    """The kernel of the matrix of ``rays`` in Z^n and whether the rays
    extend to a basis of Z^n, or None when they are linearly dependent.
    Below full rank one Smith reduction decides all three
    (``smith_kernel``): the rays are independent exactly when no
    diagonal entry is 0, and extend to a basis exactly when every one
    is 1.  At full rank the kernel is zero, and the rays are independent
    when det != 0 and a basis when |det| = 1, so no reduction runs."""
    if len(rays) > n:
        return None
    mat = IntMatrix._trusted(rays, n)
    if len(rays) < n:
        perp, diagonal = smith_kernel(mat)
        return (perp, all(x == 1 for x in diagonal)) if all(diagonal) else None
    d = det(mat)
    return (IntMatrix._trusted((), n), abs(d) == 1) if d else None


def _simplicial_facets(prim: Sequence[Vec], lin: tuple[Vec, ...], n: int) -> tuple[Vec, ...]:
    """The sorted facets of the cone on linearly independent primitive
    rays r_1..r_d (``prim``, in sorted order) with lineality basis L
    (``lin``, a kernel basis of the rays), certified by dot products.

    The facets are +-L and the normals u_i of the rays without r_i
    stacked on L, signed so that u_i.r_i > 0: the subsets the double
    description enumerates for these rays, so the facets are the ones
    it finds.  The check: the pairing matrix (u_i.r_j) is diagonal with
    a positive diagonal, each u_i vanishes on L, and L vanishes on the
    rays.  Then the r_j and L form a basis of Q^n, and writing x in it
    shows that {x : u_i.x >= 0, L.x = 0} is exactly cone(r_j); each u_i
    is tight on the d - 1 independent rays r_j, j != i; and the u_i
    with L span Q^n, so the cone contains no line.  A failure raises
    ``CertificateError``.
    """
    on = tuple(prim)
    d = len(on)
    if len(lin) != n - d:
        raise CertificateError(f"rank {d} and kernel rank {len(lin)} disagree in Z^{n}")
    facets = []
    for i in range(d):
        u = normal_vector(IntMatrix._trusted(on[:i] + on[i + 1:] + lin, n))
        if u is None:
            raise CertificateError(f"the rays {list(on)} and their lineality are dependent")
        pairing = [sum(map(mul, u, r)) for r in on]
        if pairing[i] < 0:
            u = vec_neg(u)
        if (
            not pairing[i]
            or pairing.count(0) != d - 1
            or (lin and any(sum(map(mul, u, l)) for l in lin))
        ):
            raise CertificateError(f"facet {u} of the cone on {list(on)} fails the pairing check")
        facets.append(u)
    if lin and any(sum(map(mul, l, r)) for l in lin for r in on):
        raise CertificateError(f"the lineality of the cone on {list(on)} meets its rays")
    return tuple(sorted(facets + plus_minus(lin)))


def _face_rays(cone: Cone) -> list[tuple[Vec, ...]] | set[tuple[Vec, ...]]:
    """The faces of a strongly convex cone, each as its sorted ray tuple.

    A face is the set of points tight on some set of proper facets, and
    it is spanned by the cone's rays tight on them; closing the full ray
    tuple under "keep the rays tight on one more facet" reaches the
    tight rays of every set of facets, the empty tuple (the zero cone)
    included, as a set.  On independent rays every subset spans a face,
    so a simplicial cone lists its subsets and reads no facet: by size,
    then lexicographically, which is the canonical order (``_order``),
    as the rays are sorted and a face's dimension is its number of rays.
    """
    if not cone.pointed:
        raise ValueError("face enumeration needs a strongly convex cone")
    if cone.is_simplicial():
        rays = cone.rays
        return [t for k in range(len(rays) + 1) for t in combinations(rays, k)]
    faces = {cone.rays}
    for u in cone._proper_facets():
        faces |= {tuple(r for r in f if dot(u, r) == 0) for f in faces}
    return faces


def _separates(facets: list[Vec], shared: tuple[Vec, ...], rays: tuple[Vec, ...]) -> bool:
    """Does the sum u of the ``facets`` of a cone a that vanish on
    ``shared`` weigh every one of ``rays`` outside ``shared`` negatively?

    ``shared`` must be the ray tuple of a face of a, and ``facets`` a's
    proper facets.  Then u >= 0 on a, and u is zero on a exactly on
    cone(shared).  If u < 0 on every other ray of a cone b, a point of
    both cones is a combination of b's rays with u >= 0 on it, so it
    uses the shared rays only: a meets b in cone(shared), which is a
    face of b too, the one where -u >= 0 on b vanishes.  This is the
    separation lemma (Fulton, Introduction to Toric Varieties, 1.2;
    Cox-Little-Schenck, Lemma 1.2.13).  It must be strict: u <= 0
    still makes the meet cone(shared), but u may vanish on more rays of
    b than the shared ones, and then cone(shared) need not be a face of
    b (a simplicial cone along the diagonal of a pyramid's square base).
    """
    tight = [f for f in facets if not any(dot(f, r) for r in shared)]
    if not tight:
        return False  # no functional to try: the double description decides
    u = tuple(map(sum, zip(*tight)))
    return all(dot(u, r) < 0 for r in rays if r not in shared)


def _check_pairs(rank: int, maximal: list[Cone], face_rays: dict) -> None:
    """Raise ``NotAFan(i, j)`` for the first pair i < j of ``maximal``
    that does not meet in a common face; ``face_rays`` maps each cone's
    rays to its face tuples.  When the rays the pair shares span a face
    of one cone and a sum of its facets separates the other's remaining
    rays (``_separates``), the meet is that face, and a face of the
    other cone too.  Otherwise one double description of the pair's
    facets gives the meet's rays, which must be the ray tuple of a face
    of each; it would accept every pair the separation accepts, so
    ``NotAFan`` names the same pair either way."""
    proper = {c.rays: c._proper_facets() for c in maximal}
    for i, a in enumerate(maximal):
        for j in range(i + 1, len(maximal)):
            b = maximal[j]
            inside = set(b.rays)
            shared = tuple(r for r in a.rays if r in inside)
            if (
                shared in face_rays[a.rays] and _separates(proper[a.rays], shared, b.rays)
            ) or (
                shared in face_rays[b.rays] and _separates(proper[b.rays], shared, a.rays)
            ):
                continue
            lin, rays = dual_ray_generators(a.facets + b.facets, rank)
            meet = tuple(rays)
            if lin or meet not in face_rays[a.rays] or meet not in face_rays[b.rays]:
                raise NotAFan(i, j)


def _certified_walls(rank: int, maximal: list[Cone]) -> list | None:
    """The walls (i, j, ridge), i < j, of the cones in ``maximal`` when
    they are certified to form a complete simplicial fan without
    looking at pairs of cones; None when the certificate does not apply.

    It applies when rank n >= 2 and
    (a) every cone has dimension n and n rays, and each of its facets
        is nonzero on exactly one of its rays;
    (b) every ridge, the rays of a cone a without one ray r, is a ridge
        of exactly two of the cones, a and b, and b's ray off the ridge
        is negative on a's facet that is positive on r: a and b lie on
        opposite sides of the ridge's hyperplane.  That facet is one of
        a's certified facets, so a ridge costs one dot product;
    (c) the probe w = (1, B, .., B^(n-1)), with B = 2 max |facet entry|
        + 1, lies in the interior of exactly one cone.  No facet u
        vanishes on w: if u's last nonzero entry is u_k, then |u_k B^k|
        >= B^k, and the earlier terms sum to at most (B^k - 1)/2 in
        size.

    These are the pseudomanifold property and a point covered once,
    which characterise the triangulations of a vector configuration
    (De Loera, Rambau and Santos, *Triangulations*, Springer 2010,
    section 4.5).  The degree argument, for a cone tau that is a face
    of one of the cones: its star (the cones containing it) maps to
    full-dimensional simplicial cones in V = R^n / span(tau), of
    dimension k, and each ridge containing tau is again a facet of
    exactly two of them, on opposite sides.  For k >= 2, count the
    cones of the star whose interior holds a point of V on no cone's
    boundary.  Off the faces of codimension 2, whose complement in V is
    connected, the count changes only across a ridge, and there it
    loses the cone on one side and gains the one on the other: the
    count is constant, and positive, since the star is not empty.  So
    the star covers a neighbourhood of every point x in the relative
    interior of tau (for k = 1 by the two sides, for k = 0 trivially).
    For tau = 0 the count is 1, by (c): the cones cover R^n with
    disjoint interiors.  If x lies in cones a and b, with x in the
    relative interior of the face tau of a, a point of b's interior near
    x is covered twice unless b contains tau; so x lies in the cone on
    the rays a and b share, which is a face of both.

    Conversely every complete simplicial fan of rank >= 2 passes, so
    the certificate applies to exactly these fans.
    """
    if rank < 2:
        return None
    walls = _ridge_walls(rank, maximal)
    if walls is None or _probe_count(rank, maximal) != 1:
        return None
    return walls


def _ridge_walls(rank: int, maximal: list[Cone]) -> list | None:
    """Conditions (a) and (b) of ``_certified_walls``: the pairs (i, j,
    ridge) of cones that share each ridge, or None."""
    sides: dict = {}  # ridge -> [(cone index, ray off the ridge, facet positive on it)]
    for i, a in enumerate(maximal):
        rays, facets = a.rays, a.facets
        if a.dim != rank or len(rays) != rank or len(facets) != rank:
            return None
        for u in facets:
            off = [r for r in rays if sum(map(mul, u, r))]
            if len(off) != 1:
                return None
            k = rays.index(off[0])
            sides.setdefault(rays[:k] + rays[k + 1:], []).append((i, off[0], u))
    walls = []
    for ridge, found in sides.items():
        if len(found) != 2:
            return None
        (i, _, u), (j, r, _) = found
        if sum(map(mul, u, r)) >= 0:
            return None
        walls.append((i, j, ridge))
    return walls


def _probe_count(rank: int, maximal: list[Cone]) -> int:
    """How many of the cones hold the probe w of ``_certified_walls`` in
    their interior: (1, B, .., B^(rank-1)), B = 2 max |facet entry| + 1."""
    base = 2 * max((abs(x) for a in maximal for u in a.facets for x in u), default=0) + 1
    w = tuple(base**k for k in range(rank))
    return sum(all(sum(map(mul, u, w)) > 0 for u in a.facets) for a in maximal)


def zero_cone(lattice: Lattice) -> Cone:
    return Cone.from_rays(lattice, [])


class Fan:
    """A finite face-closed collection of strongly convex cones whose
    pairwise intersections are common faces.

    ``max_ids`` keeps the order the maximal cones were given in; the
    alternating signs of the cover complex depend on it, so it is fixed
    for the fan's lifetime.  ``cones`` is canonically sorted, the zero
    cone always present, and a cone's number is its place there:
    ``max_ids``, ``face_ids`` (each cone's faces), ``ray_sets`` and
    ``_by_rays`` (a ray set's cone) hold numbers, ``max_cones`` is a
    view of ``max_ids``, and the methods that take a ``Cone`` find it by
    its rays (``find``).  Whether the fan is complete is one ridge count
    (``is_complete``).  ``sheaf`` is the fan's one structure sheaf, set
    by ``sheaves.sheaf_a0`` on first use.
    """

    __slots__ = ("lattice", "cones", "max_ids", "face_ids", "ray_sets", "_by_rays", "_full",
                 "sheaf")

    def __init__(self, lattice: Lattice, cones, max_cones, face_ids):
        self.lattice = lattice
        self.cones = cones
        self.face_ids = face_ids
        self.ray_sets = tuple(frozenset(c.rays) for c in cones)
        self._by_rays = {rays: i for i, rays in enumerate(self.ray_sets)}
        self.max_ids = tuple(map(self.find, max_cones))
        self._full = Subfan._trusted(self, frozenset(range(len(cones))))
        self.sheaf = None

    @classmethod
    def from_max_cones(cls, lattice: Lattice, max_cones: Iterable[Cone]) -> "Fan":
        """The fan of the given cones and all their faces.

        Input cones that repeat another or are a proper face of another
        are dropped; the rest keep their order as ``max_cones``.  Every
        pair of maximal cones must meet in a common face (else
        ``NotAFan``).  A complete simplicial fan of rank >= 2 is
        certified by its ridges and one probe point
        (``_certified_walls``), in time linear in the number of maximal
        cones.  Anything else, and anything that fails that certificate, is
        checked pair by pair (``_check_pairs``), so a ``NotAFan`` always
        names the pair that check finds.

        The fan trusts the certificates of its input cones: every
        maximal cone is kept as given.  Each other distinct face is
        built once from its sorted ray tuple, and is shared by every
        maximal cone that has it: by ``Cone._face``, certified on first
        use, when the first maximal cone that has it is simplicial,
        else by ``Cone.from_rays``.  Each maximal cone lists its faces
        once (``_face_rays``), and each cone's ``face_ids`` entry is
        its faces' numbers, sorted: the canonical order.
        """
        if lattice.rank > MAX_RANK:
            raise UnsupportedRank(f"ambient rank {lattice.rank} > {MAX_RANK}")
        distinct: dict[tuple, Cone] = {}
        for c in max_cones:
            if c.lattice != lattice:
                raise ValueError("cone lattice does not match the fan lattice")
            distinct.setdefault(c.rays, c)
        face_rays = {rays: _face_rays(c) for rays, c in distinct.items()}
        proper = {t for rays, fs in face_rays.items() for t in fs if t != rays}
        maximal = [c for rays, c in distinct.items() if rays not in proper]
        if _certified_walls(lattice.rank, maximal) is None:
            _check_pairs(lattice.rank, maximal, {c.rays: set(face_rays[c.rays]) for c in maximal})
        built = {c.rays: c for c in maximal}
        for c in maximal:
            make = Cone._face if c.is_simplicial() else Cone.from_rays
            for t in face_rays[c.rays]:
                if t not in built:
                    built[t] = make(lattice, t)
        if not maximal:
            built[()] = zero_cone(lattice)
        cones = tuple(sorted(built.values(), key=_order))
        number = {c.rays: i for i, c in enumerate(cones)}.__getitem__
        face_ids = tuple(tuple(sorted(map(number, _face_rays(c)))) for c in cones)
        return cls(lattice, cones, tuple(maximal) or (built[()],), face_ids)

    @classmethod
    def from_rays_and_indices(
        cls,
        lattice: Lattice,
        rays: Sequence[Sequence[int]],
        max_cone_indices: Sequence[Sequence[int]],
    ) -> "Fan":
        rays = [as_vec(r) for r in rays]
        cones = []
        for idxs in max_cone_indices:
            for i in idxs:
                if not 0 <= i < len(rays):
                    raise ValueError(f"ray index {i} out of range")
            cones.append(Cone.from_rays(lattice, [rays[i] for i in idxs]))
        return cls.from_max_cones(lattice, cones)

    @property
    def max_cones(self) -> tuple[Cone, ...]:
        """The maximal cones, in ``max_ids`` order."""
        return tuple(map(self.cones.__getitem__, self.max_ids))

    def find(self, cone: Cone) -> int | None:
        """The number of ``cone`` in the fan, or None: the one lookup of a
        ``Cone``, by its ray set in ``_by_rays`` and then by equality,
        lattice included."""
        i = self._by_rays.get(frozenset(cone.rays))
        return i if i is not None and self.cones[i] == cone else None

    def index_of(self, cone: Cone) -> int:
        i = self.find(cone)
        if i is None:
            raise ConeNotInFan(repr(cone))
        return i

    def faces_of(self, cone: Cone) -> tuple[Cone, ...]:
        return tuple(map(self.cones.__getitem__, self.face_ids[self.index_of(cone)]))

    def meet_id(self, i: int, j: int) -> int:
        """The number of the meet of cones i and j, looked up by shared rays.

        The fan was validated at construction, so the meet is a common
        face of both cones; a face of a strongly convex cone is spanned
        by the rays of the cone that it contains, so the meet is the
        fan's cone on the rays the two share.
        """
        return self._by_rays[self.ray_sets[i] & self.ray_sets[j]]

    def intersection(self, a: Cone, b: Cone) -> Cone:
        return self.cones[self.meet_id(self.index_of(a), self.index_of(b))]

    def star_open(self, sigma: Cone) -> "Subfan":
        """The smallest open set containing sigma: sigma and its faces.
        Tested API, no library caller."""
        return Subfan._trusted(self, frozenset(self.face_ids[self.index_of(sigma)]))

    def full_subfan(self) -> "Subfan":
        """The whole fan as an open set, built once with the fan."""
        return self._full

    def subfan(self, members: Iterable[Cone]) -> "Subfan":
        return Subfan(self, members)

    def is_smooth(self) -> bool:
        return all(c.is_smooth() for c in self.max_cones)

    def is_complete(self) -> bool:
        """Does the fan cover R^n?  Exactly when every maximal cone has
        dimension n and every (n-1)-dimensional cone, a ridge, lies in
        exactly two maximal cones: one count, at every rank.  For n <= 1
        this is direct (the one ridge of rank 1 is the zero cone).  For
        n >= 2, two maximal cones that share a ridge meet in it, so they
        lie on opposite sides of it, and the number of maximal cones
        holding a point does not change across a ridge; off the cones of
        dimension <= n - 2, whose complement is connected, it is
        constant and positive (the argument of ``_certified_walls``).
        Conversely, a complete fan has one maximal cone on each side of
        a ridge, each holding it, as their interiors are disjoint."""
        n, cones = self.lattice.rank, self.cones
        if any(c.dim != n for c in self.max_cones):
            return False
        count = Counter(r for c in self.max_ids for r in self.face_ids[c] if cones[r].dim == n - 1)
        return all(k == 2 for k in count.values())

    def __repr__(self) -> str:
        return f"Fan({len(self.cones)} cones, {len(self.max_ids)} maximal)"


class Subfan:
    """A downward-closed set of cones of a fan: an open set of the
    poset topology, kept as the cone numbers ``ids``.  Open sets of one
    fan compare, unite and intersect by their numbers.  On the fan's
    kept whole open set, ``_walk`` holds the comparisons that
    ``sheaves.first_disagreement`` lists for ``max_ids``, once read."""

    __slots__ = ("parent", "ids", "_max_ids", "_home", "_walk")

    def __init__(self, parent: Fan, members: Iterable[Cone]):
        self.parent = parent
        self.ids = frozenset(map(parent.index_of, members))
        for c in self.ids:
            for f in parent.face_ids[c]:
                if f not in self.ids:
                    raise DomainNotOpen(f"missing face {parent.cones[f]!r} of {parent.cones[c]!r}")
        self._max_ids = self._home = self._walk = None

    @classmethod
    def _trusted(cls, parent: Fan, ids: frozenset) -> "Subfan":
        """Wrap cone numbers of the fan closed under faces, unchecked."""
        self = object.__new__(cls)
        self.parent = parent
        self.ids = ids
        self._max_ids = self._home = self._walk = None
        return self

    @property
    def members(self) -> frozenset:
        return frozenset(map(self.parent.cones.__getitem__, self.ids))

    def max_ids(self) -> tuple[int, ...]:
        """The numbers of the members that are not proper faces of other
        members: for the whole fan ``parent.max_ids`` itself, in the
        fan's order; for any other open set found on the first call, in
        increasing order, which is (dim, rays) order, and kept (the
        members never change)."""
        if self._max_ids is None:
            parent = self.parent
            if self.is_full():
                self._max_ids = parent.max_ids
            else:
                proper = {f for c in self.ids for f in parent.face_ids[c] if f != c}
                self._max_ids = tuple(sorted(self.ids - proper))
        return self._max_ids

    def home(self) -> dict:
        """Cone number -> the number of the first maximal cone of the set,
        in ``max_ids`` order, that contains it: built on the first call
        and kept, so on the fan's kept whole open set one table serves
        every reader."""
        if self._home is None:
            face_ids, home = self.parent.face_ids, {}
            for top in self.max_ids():
                for tau in face_ids[top]:
                    home.setdefault(tau, top)
            self._home = home
        return self._home

    def max_cones(self) -> tuple[Cone, ...]:
        """The cones of ``max_ids``."""
        return tuple(map(self.parent.cones.__getitem__, self.max_ids()))

    def __contains__(self, cone: Cone) -> bool:
        return self.parent.find(cone) in self.ids

    def __le__(self, other: "Subfan") -> bool:
        return self.ids <= other.ids

    def union(self, other: "Subfan") -> "Subfan":
        return Subfan._trusted(self.parent, self.ids | other.ids)

    def intersection(self, other: "Subfan") -> "Subfan":
        return Subfan._trusted(self.parent, self.ids & other.ids)

    def is_full(self) -> bool:
        # the members are distinct cones of the fan
        return len(self.ids) == len(self.parent.cones)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subfan) and self.parent is other.parent and self.ids == other.ids

    def __hash__(self) -> int:
        return hash((id(self.parent), self.ids))

    def __repr__(self) -> str:
        return f"Subfan({len(self.ids)} cones)"
