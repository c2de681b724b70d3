"""The cover complex of a fan: alternating-sign differentials on tuples
of maximal cones, degree-zero cohomology as the global equivariant K_0
ring, and random cocycles with checked preimages, from which the
``check-exactness`` command runs its trials.

Degree-zero cohomology is the ring of global sections of ``sheaf_a0``
(``H0Ring``, whose elements are ``kfan.sheaves.Section``s on the whole
fan): a level-0 cochain is a cocycle exactly when its components agree
on every pairwise meet, which ``kfan.sheaves.first_disagreement`` asks.

Level p holds one slot per strictly increasing (p+1)-tuple of
maximal-cone indices, valued in the stalk at the tuple's meet, the one
group object the sheaf keeps for that cone: a component must live over
that object, not over an equal copy.  No level is listed: a tuple is
checked by its shape, and a cochain keeps only its support.  The
differential is the alternating signed sum of restrictions over the
fixed order of the maximal cones (only level zero is forced by the
geometry), and d . d = 0 by telescoping.  It walks the pairs (s, i) of
a cochain's support and the indices outside s: t = s + {i} takes the
sign of i's position, its meet is the fan's cone on the rays of s's meet
in maximal cone i, and each component is pushed once per distinct meet.
Meets are kept by cone number, and the anchors a_tau below are read off
the fan's one ``Subfan.home`` table, so no lookup hashes a ``Cone``.

On a smooth fan values are in ray coordinates, restricted by the
sheaf's pickers, and the complex splits per cone: Z[M_sigma] is the sum
of summands A_tau over the faces tau of sigma
(``kfan.sheaves.split_rays``), so the complex is the sum over the cones
tau of the complexes of full simplices on S_tau, the maximal cones
containing tau, with coefficients A_tau.  Each is exact in positive
levels, contracted onto a_tau = min S_tau, and ``solve_coboundary``
returns the contraction b once d(b) = z, which proves z a cocycle.
``random_cocycle`` draws sparse cocycles z = d(b0), with b0 one random
monomial on each of ``SPARSE_TUPLES`` random tuples one level down: d
and the contraction are linear, so a dense z would test them no better.
Only ``kfan.report`` reads the character groups' coordinates.  On
non-smooth fans cocycles are random kernel elements of d, preimages are
searched for by the expanding-support solver, and a ``SolverGaveUp``
there is a search failure, never a counterexample.  Both take their
equations d(x) = rhs on the maximal cones from ``kfan.sheaves.cover_system``,
which states a section's compatibility too, and list no level.
"""

from __future__ import annotations

import random
from typing import Sequence

from .cones import Cone, Fan
from .intlinalg import CertificateError, QuotientLattice
from .monoids import GroupRingElement
from .sheaves import (
    RayStalk,
    Section,
    accumulate,
    assemble_rays,
    cover_system,
    first_disagreement,
    random_monomial,
    sheaf_a0,
    split_rays,
)
from .support_solver import (
    MAX_ATTEMPTS,
    SolverGaveUp,
    sample_nonzero_solution,
    solve_pushforward_system,
)

# tuples of b0 in a smooth fan's random cocycle z = d(b0)
SPARSE_TUPLES = 3


class LevelOverflow(Exception):
    """No differential out of the top level."""


class NotACocycle(Exception):
    pass


class CechComplex:
    """The maximal-cone cover of a fan: a tuple's meet and stalk are
    found when first asked for, and a tuple is checked by its shape, so
    no level is listed."""

    __slots__ = ("fan", "sheaf", "top_level", "tuples", "_meets", "_max_rays")

    def __init__(self, fan: Fan):
        self.fan = fan
        self.sheaf = sheaf_a0(fan)
        self.top_level = len(fan.max_cones) - 1
        # no level is listed: always empty, kept for the benchmark's
        # ``cech.tuples`` counter, which reads it (ROADMAP item 1 retires it)
        self.tuples = {}
        self._meets = {(i,): cone for i, cone in enumerate(fan.max_ids)}  # tuple -> cone number
        self._max_rays = [fan.ray_sets[cone] for cone in fan.max_ids]

    def cone_of(self, t: tuple) -> Cone:
        return self.fan.cones[self.meet_id(t)]

    def meet_id(self, t: tuple) -> int:
        """The number of the meet of the tuple's cones, kept: ``Fan.meet_id``
        of t[:-1]'s meet and cone t[-1]."""
        cone = self._meets.get(t)
        if cone is None:
            if len(t) < 2 or not t[-2] < t[-1] <= self.top_level:
                raise KeyError(t)
            fan = self.fan
            cone = self._meets[t] = fan.meet_id(self.meet_id(t[:-1]), fan.max_ids[t[-1]])
        return cone

    def is_level_tuple(self, t: tuple, level: int) -> bool:
        """Is t a level-``level`` tuple by its shape: level + 1 int
        indices, strictly increasing, in [0, top_level]?  No level is
        listed."""
        return (
            len(t) == level + 1 > 0
            and all(type(i) is int for i in t)  # bools are ints, but not indices
            and 0 <= t[0]
            and t[-1] <= self.top_level
            and all(a < b for a, b in zip(t, t[1:]))
        )

    def stalk(self, t: tuple) -> "RayStalk | QuotientLattice":
        return self.sheaf.stalk_at(self.meet_id(t))

    def d(self, c: "Cochain") -> "Cochain":
        """The alternating-sign differential, walked over the pairs (s, i)
        of c's support and the indices outside s (see the module)."""
        if c.level >= self.top_level:
            raise LevelOverflow(f"level {c.level} is the top of the complex")
        fan, max_rays, restriction = self.fan, self._max_rays, self.sheaf.restriction_at
        sums: dict = {}  # coface t -> (its stalk, its summed terms), while they do not cancel
        for s, comp in c.components.items():
            meet = self.meet_id(s)
            rays = fan.ray_sets[meet]
            pushed = {rays: (self.sheaf.stalk_at(meet), comp.terms)}  # shared rays -> c_s there
            for j, (lo, hi) in enumerate(zip((-1,) + s, s + (len(max_rays),))):
                head, tail, sign = s[:j], s[j:], -1 if j % 2 else 1
                for i in range(lo + 1, hi):  # i takes position j in t
                    shared = rays & max_rays[i]
                    found = pushed.get(shared)
                    if found is None:
                        image = comp.pushforward(restriction(meet, fan._by_rays[shared]))
                        found = pushed[shared] = image.group, image.terms
                    t = head + (i,) + tail
                    acc = sums.get(t)
                    if acc is None:
                        group, terms = found
                        terms = dict(terms) if sign > 0 else {e: -v for e, v in terms.items()}
                        sums[t] = group, terms
                    else:
                        accumulate(acc[1], found[1], sign)
                        if not acc[1]:
                            del sums[t]
        comps = {t: GroupRingElement._normal(group, acc) for t, (group, acc) in sums.items()}
        return Cochain._trusted(self, c.level + 1, comps)

    def is_cocycle(self, c: "Cochain") -> bool:
        """Is d(c) zero?  Every top-level cochain is."""
        return c.level >= self.top_level or self.d(c).is_zero()

    def solve_coboundary(self, z: "Cochain", depth: int = 3) -> "Cochain | SolverGaveUp":
        """A cochain b with d(b) = z, checked exactly: the certificate,
        which also proves z a cocycle, as d . d = 0.  On a smooth fan b is
        the contraction (``_contract``) and ``depth`` is ignored; on a
        non-smooth fan the expanding-support solver searches to the given
        depth.  Only without such a b is d(z) walked, to name the failure:
        ``NotACocycle``, else the search's ``SolverGaveUp`` (a search
        failure, never a counterexample), else ``CertificateError``."""
        if z.level < 1:
            raise ValueError("coboundaries live above level zero")
        if self.sheaf.smooth:
            b = self._contract(z)
        else:
            system = cover_system(self.sheaf, self.fan.max_ids, z.level - 1, z.components)
            b = solve_pushforward_system(*system, depth)
            if not isinstance(b, SolverGaveUp):
                b = Cochain(self, z.level - 1, b[0])
        if isinstance(b, SolverGaveUp) or self.d(b) != z:
            if not self.is_cocycle(z):
                raise NotACocycle("the right-hand side has nonzero differential")
            if isinstance(b, Cochain):
                raise CertificateError(f"witness fails d(b) = z at level {z.level}")
        return b

    def _contract(self, z: "Cochain") -> "Cochain":
        """A preimage of the cocycle z on a smooth fan: b_K is the sum of
        iota(z^tau_{(a_tau) K}) over the cones tau with a_tau < K in S_tau.
        The caller checks d(b) = z, which holds exactly for cocycles."""
        fan = self.fan
        home = fan.full_subfan().home()  # tau -> the cone number of a_tau
        b: dict = {}
        anchored: dict = {}  # (meet, a) -> the faces tau of the meet with a_tau = a
        for t, value in z.components.items():
            cone = self.meet_id(t)
            faces = anchored.get((cone, t[0]))
            if faces is None:
                a = fan.max_ids[t[0]]
                faces = [tau for tau in fan.face_ids[cone] if home[tau] == a]
                anchored[cone, t[0]] = faces
            parts = split_rays(self.sheaf, value, cone, faces)
            above = assemble_rays(self.sheaf, parts, self.meet_id(t[1:]), faces)
            accumulate(b.setdefault(t[1:], {}), above, 1)
        return self._from_rays(z.level - 1, b)

    def _from_rays(self, level: int, terms: dict) -> "Cochain":
        """The cochain with these fresh ray-coordinate term dicts."""
        comps = {t: GroupRingElement._normal(self.stalk(t), v) for t, v in terms.items()}
        return Cochain._trusted(self, level, comps)

    def random_cocycle(self, level: int, rng: random.Random) -> "Cochain":
        """A random nonzero cocycle.  On a smooth fan z = d(b0), b0 one
        random monomial on each of ``SPARSE_TUPLES`` random tuples one
        level down, redrawn while z is zero (level-0 cocycles are global
        sections: ``random_section``).  Otherwise a random nonzero kernel
        element of d (``sample_nonzero_solution``), re-checked."""
        if level > self.top_level:
            raise LevelOverflow(f"no level {level} in this complex")
        if self.sheaf.smooth:
            if level < 1:
                raise ValueError("level-0 cocycles are global sections: use random_section")
            for _ in range(MAX_ATTEMPTS):
                b0: dict = {}
                for _ in range(SPARSE_TUPLES):
                    s = tuple(sorted(rng.sample(range(self.top_level + 1), level)))
                    accumulate(b0.setdefault(s, {}), random_monomial(self.cone_of(s), rng), 1)
                z = self.d(self._from_rays(level - 1, b0))
                if not z.is_zero():
                    break
        else:
            system = cover_system(self.sheaf, self.fan.max_ids, level, {})
            found = sample_nonzero_solution(*system, rng, 3)
            z = Cochain(self, level, found or {})
            if not self.is_cocycle(z):
                raise CertificateError(f"sampled level-{level} cochain is not a cocycle")
        if z.is_zero():
            raise RuntimeError("could not sample a nonzero cocycle")
        return z


class Cochain:
    """Finitely supported components on the level's tuples.  A tuple is
    checked by its shape (``CechComplex.is_level_tuple``); no level is
    listed."""

    __slots__ = ("complex", "level", "components")

    def __init__(self, complex: CechComplex, level: int, components: dict):
        if level < 0 or level > complex.top_level:
            raise LevelOverflow(f"no level {level} in this complex")
        comps = {}
        for t, val in components.items():
            t = tuple(t)
            if not complex.is_level_tuple(t, level):
                raise ValueError(f"{t} is not a level-{level} tuple")
            if val.group is not complex.stalk(t):
                raise ValueError(f"component at {t} lives over the wrong group")
            if not val.is_zero():
                comps[t] = val
        self.complex = complex
        self.level = level
        self.components = comps

    @classmethod
    def _trusted(cls, complex: CechComplex, level: int, components: dict) -> "Cochain":
        """A cochain the complex built itself: only zero components drop."""
        self = object.__new__(cls)
        self.complex = complex
        self.level = level
        self.components = {t: v for t, v in components.items() if v.terms}
        return self

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.complex is other.complex
            and self.level == other.level
            and self.components == other.components
        )

    def __repr__(self) -> str:
        return f"Cochain(level={self.level}, support={sorted(self.components)})"


class H0Ring:
    """Degree-zero cohomology of the cover complex as the global
    sections of ``sheaf_a0`` on the whole fan, with componentwise ring
    structure.  For smooth fans this is the global
    equivariant K_0; membership is meaningful for any fan.  No cover
    complex is built."""

    def __init__(self, fan: Fan):
        self.fan = fan
        self.sheaf = sheaf_a0(fan)
        self.domain = fan.full_subfan()

    def _check(self, section: Section) -> None:
        if section.sheaf is not self.sheaf or not section.domain.is_full():
            raise ValueError("not a global section of this ring's sheaf")

    # kept by name: bench/tracing.TARGETS wraps it as cech.membership
    def membership(self, section: Section):
        """(True, None) for members; (False, ((i, j), difference))
        otherwise, for the first index pair i < j of maximal cones whose
        components differ on their meet, the difference being
        value_j - value_i there: the first nonzero component of the
        cover differential.  Decided by ``first_disagreement`` over
        ``fan.max_ids`` in the fan's order, so the pair is the
        complex's."""
        self._check(section)
        cones = self.fan.max_ids
        found = first_disagreement(self.sheaf, cones, [section.values[c] for c in cones])
        if found is None:
            return True, None
        i, j, _, difference = found
        return False, ((i, j), difference)

    def contains(self, section: Section) -> bool:
        return self.membership(section)[0]

    def _on_every_piece(self, make) -> Section:
        values = {c: make(self.sheaf.stalk_at(c)) for c in self.fan.max_ids}
        return Section.by_id(self.sheaf, self.domain, values)

    def unit(self) -> Section:
        return self._on_every_piece(GroupRingElement.one)

    def character(self, m: Sequence[int]) -> Section:
        """The member chi^[m] on every piece, for a character m of the
        big torus; a section by functoriality of the quotients."""
        return self._on_every_piece(lambda q: GroupRingElement.character(q, m))

    def multiply(self, a: Section, b: Section) -> Section:
        self._check(a)
        self._check(b)
        values = {c: a.values[c] * b.values[c] for c in self.fan.max_ids}
        return Section.by_id(self.sheaf, self.domain, values)
