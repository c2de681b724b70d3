"""Sheaves on the poset topology of a fan.

A sheaf here is the contravariant-functor data: a stalk group for every
cone and a quotient surjection for every face pair, functorial along
chains.  Sections over an open subfan are stored on its maximal cones;
compatibility over pairwise meets pins the whole limit.

The sheaf of interest assigns to each cone the group ring of its
minimal-orbit character group; for smooth fans it is flasque, i.e.
every section of every open subfan extends to a global one, and the
extension is searched for by the expanding-support integer solver.
"""

from __future__ import annotations

import random

from .cones import Cone, Fan, Subfan
from .intlinalg import (
    CertificateError,
    QuotientLattice,
    QuotientSurjection,
    canonical_surjection,
    compose,
    identity_surjection,
)
from .monoids import GroupRingElement
from .support_solver import (
    Constraint,
    SolverGaveUp,
    sample_nonzero_solution,
    solve_pushforward_system,
)


class NotSmoothFan(Exception):
    """The requested operation is only guaranteed for smooth fans."""


class FanSheaf:
    """Stalks indexed by cones, restriction surjections indexed by face
    pairs (bigger cone -> smaller cone), functoriality checked at
    construction."""

    __slots__ = ("fan", "_stalks", "_restrictions")

    def __init__(self, fan: Fan, stalks: dict, restrictions: dict):
        self.fan = fan
        self._stalks = stalks
        self._restrictions = restrictions
        for sigma in fan.cones:
            if not self.restriction(sigma, sigma).maps_equal(
                identity_surjection(self.stalk(sigma))
            ):
                raise CertificateError(f"restriction of {sigma!r} to itself is not the identity")
        for sigma in fan.cones:
            for tau in fan.faces_of(sigma):
                for rho in fan.faces_of(tau):
                    direct = self.restriction(sigma, rho)
                    via = compose(self.restriction(tau, rho), self.restriction(sigma, tau))
                    if not direct.maps_equal(via):
                        raise CertificateError(
                            f"restrictions {sigma!r} -> {tau!r} -> {rho!r} are not functorial"
                        )

    def stalk(self, sigma: Cone) -> QuotientLattice:
        return self._stalks[self.fan.canonical(sigma)]

    def restriction(self, sigma: Cone, tau: Cone) -> QuotientSurjection:
        """The map from the stalk at sigma to the stalk at a face tau."""
        key = (self.fan.canonical(sigma), self.fan.canonical(tau))
        return self._restrictions[key]


def sheaf_a0(fan: Fan) -> FanSheaf:
    """The structure sheaf of this package: cone -> Z[M_sigma], face
    inclusion -> pushforward along the canonical character surjection."""
    stalks = {c: c.character_quotient() for c in fan.cones}
    restrictions = {}
    for sigma in fan.cones:
        for tau in fan.faces_of(sigma):
            restrictions[(sigma, tau)] = canonical_surjection(
                stalks[sigma], stalks[tau]
            )
    return FanSheaf(fan, stalks, restrictions)


class Section:
    """A compatible-in-waiting family over the maximal cones of an open
    subfan; ``check`` decides whether it actually is a section."""

    __slots__ = ("sheaf", "domain", "components")

    def __init__(self, sheaf: FanSheaf, domain: Subfan, components: dict):
        if domain.parent is not sheaf.fan:
            raise ValueError("domain belongs to a different fan")
        self.sheaf = sheaf
        self.domain = domain
        max_cones = domain.max_cones()
        comps = {}
        for c in max_cones:
            if c not in components:
                raise ValueError(f"missing component at {c!r}")
            val = components[c]
            if val.group != sheaf.stalk(c):
                raise ValueError(f"component at {c!r} lives over the wrong group")
            comps[c] = val
        self.components = comps

    def incompatible_pair(self):
        """The first pair of maximal cones whose components disagree on
        the meet, or None; checking the meet suffices because smaller
        common faces factor through it."""
        cones = self.domain.max_cones()
        fan = self.sheaf.fan
        for i in range(len(cones)):
            for j in range(i + 1, len(cones)):
                meet = fan.intersection(cones[i], cones[j])
                a = self.components[cones[i]].pushforward(
                    self.sheaf.restriction(cones[i], meet)
                )
                b = self.components[cones[j]].pushforward(
                    self.sheaf.restriction(cones[j], meet)
                )
                if a != b:
                    return cones[i], cones[j], meet
        return None

    def check(self) -> bool:
        return self.incompatible_pair() is None

    def value_at(self, cone: Cone) -> GroupRingElement:
        """The component at any cone of the domain, derived by pushing
        forward from a maximal cone containing it."""
        fan = self.sheaf.fan
        cone = fan.canonical(cone)
        if cone not in self.domain:
            raise ValueError("cone outside the section's domain")
        for top in self.domain.max_cones():
            if fan.is_face(cone, top):
                return self.components[top].pushforward(
                    self.sheaf.restriction(top, cone)
                )
        raise AssertionError("open sets contain a maximal cone above each member")

    def restrict(self, smaller: Subfan) -> "Section":
        if not smaller <= self.domain:
            raise ValueError("not a subset of the section's domain")
        comps = {c: self.value_at(c) for c in smaller.max_cones()}
        return Section(self.sheaf, smaller, comps)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Section)
            and self.sheaf is other.sheaf
            and self.domain == other.domain
            and self.components == other.components
        )

    def __repr__(self) -> str:
        return f"Section(on {len(self.components)} maximal cones)"


def extend_section(
    section: Section, depth: int = 3, allow_nonsmooth: bool = False
) -> Section | SolverGaveUp:
    """Search for a global section restricting to the given one.

    For smooth fans the sheaf is flasque, so an extension exists; the
    solver looks for one over splitting-generated supports and a
    ``SolverGaveUp`` outcome is a search failure, never a proof of
    nonexistence.  Non-smooth fans are refused unless explicitly
    allowed, since nothing guarantees an extension exists there.
    """
    sheaf = section.sheaf
    fan = sheaf.fan
    if not fan.is_smooth() and not allow_nonsmooth:
        raise NotSmoothFan("extension is only guaranteed over smooth fans")
    if section.domain.is_full():
        return section

    maxes = fan.max_cones
    slot_groups = {i: sheaf.stalk(c) for i, c in enumerate(maxes)}
    constraints = _compatibility_constraints(sheaf, maxes)
    for lam in section.domain.max_cones():
        for i, top in enumerate(maxes):
            if fan.is_face(lam, top):
                constraints.append(
                    Constraint(
                        key=("restrict", fan.index_of(lam), i),
                        target=sheaf.stalk(lam),
                        terms=((i, 1, sheaf.restriction(top, lam)),),
                        rhs=section.components[lam],
                    )
                )
    outcome = solve_pushforward_system(slot_groups, constraints, depth)
    if isinstance(outcome, SolverGaveUp):
        return outcome
    solution, _rounds = outcome
    comps = {c: solution[i] for i, c in enumerate(maxes)}
    extended = Section(sheaf, fan.full_subfan(), comps)
    if not extended.check():
        raise CertificateError("solver witness is not a global section")
    if extended.restrict(section.domain) != section:
        raise CertificateError("solver witness does not restrict to the given section")
    return extended


def _compatibility_constraints(sheaf: FanSheaf, cones: list) -> list[Constraint]:
    """x_i and x_j agree on the meet of cones[i] and cones[j], for every
    pair; slot i stands for cones[i]."""
    fan = sheaf.fan
    constraints = []
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            meet = fan.intersection(cones[i], cones[j])
            constraints.append(
                Constraint(
                    key=("compat", i, j),
                    target=sheaf.stalk(meet),
                    terms=(
                        (i, 1, sheaf.restriction(cones[i], meet)),
                        (j, -1, sheaf.restriction(cones[j], meet)),
                    ),
                    rhs=GroupRingElement.zero(sheaf.stalk(meet)),
                )
            )
    return constraints


def random_open_subfan(fan: Fan, rng: random.Random) -> Subfan:
    """A random nonempty open subfan: the union of the stars of a
    random subset of cones."""
    picks = [c for c in fan.cones if rng.random() < 0.5]
    if not picks:
        picks = [fan.cones[rng.randrange(len(fan.cones))]]
    members = set()
    for c in picks:
        members.update(fan.faces_of(c))
    return Subfan(fan, members)


def random_section(
    sheaf: FanSheaf,
    domain: Subfan,
    rng: random.Random,
    max_points: int = 3,
    coord_bound: int = 3,
    coeff_bound: int = 5,
    max_attempts: int = 50,
) -> Section:
    """Sample a genuine section: a random nonzero solution of the
    pairwise compatibility equations over random supports on the
    domain's maximal cones (see ``sample_nonzero_solution``).

    Where every pair of maximal cones meets in a big face (the full P^3
    fan, say) random lifts rarely close up into a compatible family; if
    no draw succeeds, the section is the character chi^m on every cone,
    for a random m, which is always a nonzero section of ``sheaf_a0``."""
    cones = domain.max_cones()
    found = sample_nonzero_solution(
        {i: sheaf.stalk(c) for i, c in enumerate(cones)},
        _compatibility_constraints(sheaf, cones),
        rng,
        max_points=max_points,
        extra_points=2,
        coord_bound=coord_bound,
        coeff_bound=coeff_bound,
        max_attempts=max_attempts,
    )
    if found is not None:
        comps = {c: found[i] for i, c in enumerate(cones)}
    else:
        m = [rng.randint(-coord_bound, coord_bound) for _ in range(sheaf.fan.lattice.rank)]
        comps = {c: GroupRingElement.character(sheaf.stalk(c), m) for c in cones}
    section = Section(sheaf, domain, comps)
    if not section.check():
        raise CertificateError("sampled family is not a section")
    return section
