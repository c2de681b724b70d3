"""The cover complex of a fan: alternating-sign differentials on tuples
of maximal cones, degree-zero cohomology as the global equivariant K_0
ring, and randomized exactness verification.

Degree-zero cohomology is the ring of global sections of ``sheaf_a0``
(``H0Ring``, whose elements are ``kfan.sheaves.Section``s on the whole
fan): a level-0 cochain is a cocycle exactly when its components agree
on every pairwise meet, which ``kfan.sheaves.first_disagreement`` asks
as a section's check does.  So H0 builds no ``CechComplex``, lists no
level and reads no incidence plan.

Level p holds one group-ring slot per strictly increasing (p+1)-tuple
of maximal-cone indices, valued in the character group of the tuple's
intersection cone.  The differential takes the standard alternating
signed sum of pushforwards; only the level-zero formula is forced by
the geometry (difference of the two restrictions), the higher signs are
the usual simplicial convention over the fixed ordering of the maximal
cones, and d . d = 0 holds by telescoping.

The differential reads each level's incidence plan (``incidence_plan``):
every tuple's meet and its signed faces, with the restriction left out
(None) where a face has the tuple's own meet, since the sheaf certifies
a cone's restriction to itself as the identity.  So one d pushes each
nonzero component once per distinct meet it restricts to and passes it
through unchanged elsewhere; on a ladder most meets are the origin, and
most faces are identities.  The solver's equations read the same plan.

For smooth fans the complex splits per cone.  In ray coordinates
Z[M_sigma] is the sum of summands A_tau over the faces tau of sigma
(``kfan.sheaves.split_rays``), and restriction keeps those of the
smaller cone's faces.  So the complex is the sum over the cones tau of
the complexes of full simplices on S_tau, the maximal cones containing
tau, with coefficients A_tau; each is exact in positive levels,
contracted onto a_tau = min S_tau.  ``random_cocycle`` draws per tau
and ``solve_coboundary`` returns the contraction.  On non-smooth fans
cocycles are random kernel elements of the whole system d(z) = 0,
preimages are searched for by the expanding-support solver, and a
``SolverGaveUp`` there is a search failure, never a counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

from .cones import Cone, Fan
from .intlinalg import QuotientLattice
from .monoids import GroupRingElement
from .sheaves import (
    Section,
    accumulate,
    assemble_rays,
    first_disagreement,
    from_ray_terms,
    pad_rays,
    random_part,
    ray_terms,
    sheaf_a0,
    split_rays,
)
from .support_solver import (
    MAX_ATTEMPTS,
    CertificateError,
    Constraint,
    SolverGaveUp,
    sample_nonzero_solution,
    solve_pushforward_system,
)


class LevelOverflow(Exception):
    """No differential out of the top level."""


class NotACocycle(Exception):
    pass


class CechComplex:
    """Tuples, stalks and incidence surjections for the maximal-cone
    cover of a fan.  Nothing is built up front: a level's tuples, and its
    incidence plan, are listed, and a tuple's meet found, when first
    read."""

    __slots__ = (
        "fan", "sheaf", "top_level", "tuples", "_tuple_sets", "_plans", "_cone_of", "stars"
    )

    def __init__(self, fan: Fan):
        self.fan = fan
        self.sheaf = sheaf_a0(fan)
        self.top_level = len(fan.max_cones) - 1
        self.tuples = {}  # level -> its tuples, listed on first read
        self._tuple_sets = {}  # level -> the same tuples as a set, listed with them
        self._plans = {}  # level -> its incidence plan, listed on first read
        self._cone_of = {(i,): cone for i, cone in enumerate(fan.max_cones)}
        self.stars = {}  # cone tau -> S_tau, the maximal cones containing it, increasing
        for i, sigma in enumerate(fan.max_cones):
            for tau in fan.faces_of(sigma):
                self.stars.setdefault(tau, []).append(i)

    def level_tuples(self, p: int) -> tuple:
        """The strictly increasing (p+1)-tuples of maximal-cone indices,
        in lexicographic order, listed on first read and kept."""
        if p not in self.tuples:
            if not 0 <= p <= self.top_level:
                raise LevelOverflow(f"no level {p} in this complex")
            tuples = tuple(combinations(range(self.top_level + 1), p + 1))
            self.tuples[p] = tuples
            self._tuple_sets[p] = frozenset(tuples)
        return self.tuples[p]

    def tuple_set(self, p: int) -> frozenset:
        """The tuples of level p as a set, listed with ``level_tuples``."""
        self.level_tuples(p)
        return self._tuple_sets[p]

    def cone_of(self, t: tuple) -> Cone:
        """The meet of the tuple's maximal cones, found on first ask from
        the meet of the tuple without its last index, and kept."""
        cone = self._cone_of.get(t)
        if cone is None:
            if len(t) < 2 or not t[-2] < t[-1] <= self.top_level:
                raise KeyError(t)
            cone = self.fan.intersection(self.cone_of(t[:-1]), self.fan.max_cones[t[-1]])
            self._cone_of[t] = cone
        return cone

    def stalk(self, t: tuple) -> QuotientLattice:
        return self.sheaf.stalk(self.cone_of(t))

    def incidence(self, t: tuple, j: int):
        """Dropping index j from tuple t maps the bigger intersection
        onto the smaller one: the sheaf's restriction between them."""
        s = t[:j] + t[j + 1 :]
        return self.sheaf.restriction(self.cone_of(s), self.cone_of(t))

    def incidence_plan(self, p: int) -> dict:
        """Tuple t of level p >= 1 -> (t's meet, its signed faces), in the
        order of ``level_tuples``, listed on first read and kept.  A face
        is (s, (-1)^j, restriction) for s = t without its j-th index; the
        restriction is None when s has the same meet as t, where
        ``FanSheaf`` certifies it as the identity."""
        plan = self._plans.get(p)
        if plan is None:
            plan = {}
            for t in self.level_tuples(p):
                meet = self.cone_of(t)
                faces = []
                for j in range(p + 1):
                    s = t[:j] + t[j + 1 :]
                    same = self.cone_of(s) == meet
                    faces.append((s, -1 if j % 2 else 1, None if same else self.incidence(t, j)))
                plan[t] = (meet, tuple(faces))
            self._plans[p] = plan
        return plan

    def zero_cochain(self, level: int) -> "Cochain":
        return Cochain(self, level, {})

    def cochain(self, level: int, components: dict) -> "Cochain":
        return Cochain(self, level, components)

    def d(self, c: "Cochain") -> "Cochain":
        """The alternating-sign differential, read off the incidence plan:
        each nonzero component is pushed once to each meet it restricts
        to, and passed through unchanged where the meet is its own."""
        if c.level >= self.top_level:
            raise LevelOverflow(f"level {c.level} is the top of the complex")
        pushed: dict = {}  # (face s, meet) -> the terms of c_s pushed to the meet
        comps = {}
        for t, (meet, faces) in self.incidence_plan(c.level + 1).items():
            acc: dict = {}
            for s, sign, restriction in faces:
                comp = c.components.get(s)
                if comp is None:
                    continue
                if restriction is None:
                    terms = comp.terms
                else:
                    terms = pushed.get((s, meet))
                    if terms is None:
                        terms = pushed[s, meet] = comp.pushforward(restriction).terms
                accumulate(acc, terms, sign)
            if acc:
                comps[t] = GroupRingElement._normal(self.sheaf.stalk(meet), acc)
        return Cochain(self, c.level + 1, comps)

    def is_cocycle(self, c: "Cochain") -> bool:
        """Is d(c) zero?  Decided once per cochain of this complex: a
        cochain never changes, so the answer is kept on it."""
        if c.level >= self.top_level:
            return True
        if c.complex is not self:
            return self.d(c).is_zero()
        if c._cocycle is None:
            c._cocycle = self.d(c).is_zero()
        return c._cocycle

    def solve_coboundary(self, z: "Cochain", depth: int = 3) -> "Cochain | SolverGaveUp":
        """A cochain b with d(b) = z, re-verified exactly.  On a smooth fan
        b is the contraction (``_contract``) and ``depth`` is ignored.  On
        a non-smooth fan the expanding-support solver searches to the
        given depth, and a ``SolverGaveUp`` is a search failure, never a
        counterexample to exactness."""
        if z.level < 1:
            raise ValueError("coboundaries live above level zero")
        if not self.is_cocycle(z):
            raise NotACocycle("the right-hand side has nonzero differential")
        if self.fan.is_smooth():
            b = self._contract(z)
        else:
            slot_groups = {s: self.stalk(s) for s in self.level_tuples(z.level - 1)}
            constraints = self._d_constraints(z.level - 1, z.components)
            outcome = solve_pushforward_system(slot_groups, constraints, depth)
            if isinstance(outcome, SolverGaveUp):
                return outcome
            b = Cochain(self, z.level - 1, outcome[0])
        if self.d(b) != z:
            raise CertificateError(f"witness fails d(b) = z at level {z.level}")
        return b

    def _contract(self, z: "Cochain") -> "Cochain":
        """A preimage of the cocycle z on a smooth fan: b_K is the sum of
        iota(z^tau_{(a_tau) K}) over the cones tau with a_tau < K in S_tau.
        The caller re-checks d(b) = z."""
        b: dict = {}
        for t, value in z.components.items():
            cone = self.cone_of(t)
            faces = [tau for tau in self.fan.faces_of(cone) if self.stars[tau][0] == t[0]]
            parts = split_rays(ray_terms(cone, value), cone, faces)
            accumulate(b.setdefault(t[1:], {}), assemble_rays(parts, self.cone_of(t[1:])), 1)
        return self._from_rays(z.level - 1, b)

    def _from_rays(self, level: int, terms: dict) -> "Cochain":
        comps = {t: from_ray_terms(self.stalk(t), self.cone_of(t), v) for t, v in terms.items()}
        return Cochain(self, level, comps)

    def _d_constraints(self, level: int, rhs: dict) -> list[Constraint]:
        """The equations d(x) = rhs for an unknown level-``level``
        cochain x: one per tuple of the next level, over its faces in the
        incidence plan; ``rhs`` maps tuples to components."""
        if level >= self.top_level:
            return []
        constraints = []
        for t, (meet, faces) in self.incidence_plan(level + 1).items():
            target = self.sheaf.stalk(meet)
            identity = self.sheaf.restriction(meet, meet)
            terms = tuple((s, sign, identity if r is None else r) for s, sign, r in faces)
            value = rhs.get(t, GroupRingElement.zero(target))
            constraints.append(Constraint(key=t, target=target, terms=terms, rhs=value))
        return constraints

    def random_cocycle(self, level: int, rng: random.Random) -> "Cochain":
        """A random nonzero cocycle, re-checked.  On a smooth fan, per cone
        tau: random values b_K in A_tau (``random_part``) on the tuples
        (a_tau) K, and z_I = sum over j of (-1)^j b_{I minus i_j} on the
        others; redrawn while zero.  Otherwise a random nonzero kernel
        element of d (``sample_nonzero_solution``)."""
        if level > self.top_level:
            raise LevelOverflow(f"no level {level} in this complex")
        if self.fan.is_smooth():
            for _ in range(MAX_ATTEMPTS):
                comps: dict = {}
                for tau, star in self.stars.items():
                    b = {k: random_part(tau, rng) for k in combinations(star[1:], level)}
                    for t in combinations(star, level + 1):
                        value: dict = {}
                        for j in range(len(t)):
                            accumulate(value, b.get(t[:j] + t[j + 1 :], {}), -1 if j % 2 else 1)
                        padded = pad_rays(value, tau, self.cone_of(t))
                        accumulate(comps.setdefault(t, {}), padded, 1)
                z = self._from_rays(level, comps)
                if not z.is_zero():
                    break
        else:
            slots = {t: self.stalk(t) for t in self.level_tuples(level)}
            found = sample_nonzero_solution(slots, self._d_constraints(level, {}), rng, 3)
            z = Cochain(self, level, found or {})
        if z.is_zero():
            raise RuntimeError("could not sample a nonzero cocycle")
        if not self.is_cocycle(z):
            raise CertificateError(f"sampled level-{level} cochain is not a cocycle")
        return z


class Cochain:
    """Finitely supported components on the level's tuples."""

    __slots__ = ("complex", "level", "components", "_cocycle")

    def __init__(self, complex: CechComplex, level: int, components: dict):
        if level < 0 or level > complex.top_level:
            raise LevelOverflow(f"no level {level} in this complex")
        valid = complex.tuple_set(level)
        comps = {}
        for t, val in components.items():
            t = tuple(t)
            if t not in valid:
                raise ValueError(f"{t} is not a level-{level} tuple")
            if val.group != complex.stalk(t):
                raise ValueError(f"component at {t} lives over the wrong group")
            if not val.is_zero():
                comps[t] = val
        self.complex = complex
        self.level = level
        self.components = comps
        self._cocycle = None  # is d(self) zero?  Set by CechComplex.is_cocycle

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
        ``fan.max_cones`` in the fan's order, not the (dim, rays) order
        of ``Section.incompatible_pair``, so the pair is the complex's."""
        self._check(section)
        cones = self.fan.max_cones
        values = [section.components[c] for c in cones]
        found = first_disagreement(self.sheaf, cones, values)
        if found is None:
            return True, None
        i, j, _, difference = found
        return False, ((i, j), difference)

    def contains(self, section: Section) -> bool:
        return self.membership(section)[0]

    def _on_every_piece(self, make) -> Section:
        comps = {c: make(self.sheaf.stalk(c)) for c in self.fan.max_cones}
        return Section(self.sheaf, self.domain, comps)

    def unit(self) -> Section:
        return self._on_every_piece(GroupRingElement.one)

    def character(self, m: Sequence[int]) -> Section:
        """The member chi^[m] on every piece, for a character m of the
        big torus; a section by functoriality of the quotients."""
        return self._on_every_piece(lambda q: GroupRingElement.character(q, m))

    def multiply(self, a: Section, b: Section) -> Section:
        self._check(a)
        self._check(b)
        comps = {c: a.components[c] * b.components[c] for c in self.fan.max_cones}
        return Section(self.sheaf, self.domain, comps)


@dataclass
class ExactnessTrial:
    index: int
    cocycle_support: int
    solved: bool
    witness_support: int | None
    gave_up: SolverGaveUp | None


@dataclass
class ExactnessReport:
    level: int
    trials: int
    solved: int
    resolutions: list[ExactnessTrial] = field(default_factory=list)
    witnesses: list[tuple] = field(default_factory=list)

    @property
    def all_solved(self) -> bool:
        return self.solved == self.trials


def verify_exactness(
    fan: Fan,
    level: int,
    trials: int,
    depth: int,
    seed: int,
) -> ExactnessReport:
    """Sample random cocycles at the given level and solve each one back
    to a coboundary, re-verifying every witness exactly.  Exactness is
    proved only for smooth fans; on a non-smooth one the trials search,
    and a trial that gives up is a search failure, never a counterexample.

    Also re-checks d(d(.)) = 0 on the way: each sampled cocycle is
    verified to be killed by the differential before solving.
    """
    if level < 1:
        raise ValueError("exactness questions start at level 1")
    complex = CechComplex(fan)
    if level > complex.top_level:
        raise LevelOverflow(f"fan cover has no level {level}")
    rng = random.Random(seed)
    report = ExactnessReport(level=level, trials=trials, solved=0)
    for i in range(trials):
        z = complex.random_cocycle(level, rng)
        outcome = complex.solve_coboundary(z, depth=depth)
        solved = not isinstance(outcome, SolverGaveUp)
        report.resolutions.append(
            ExactnessTrial(
                index=i,
                cocycle_support=sum(len(v.terms) for v in z.components.values()),
                solved=solved,
                witness_support=(
                    sum(len(v.terms) for v in outcome.components.values()) if solved else None
                ),
                gave_up=None if solved else outcome,
            )
        )
        if solved:
            report.solved += 1
            report.witnesses.append((z, outcome))
    return report
