"""Sheaves on the poset topology of a fan.

A sheaf here is the contravariant-functor data: a stalk group for every
cone and a quotient surjection for every face pair, functorial along
chains.  Sections over an open subfan are stored on its maximal cones;
compatibility over pairwise meets pins the whole limit.

The sheaf of interest, ``sheaf_a0``, assigns to each cone sigma the
group ring Z[M_sigma] of its minimal-orbit character group.  For smooth
fans it is flasque, and the witnesses are built, not searched for.  A
smooth cone with rays v_1..v_k has ray coordinates m -> (<m,v_1>, ..,
<m,v_k>) on M_sigma (``Cone.ray_chart``), in which restriction to a
face keeps the coordinates of the face's rays.  Compatible data f_tau
on the proper faces of sigma then lift in closed form, by
inclusion-exclusion, to

    F = sum over tau < sigma of (-1)^(dim sigma - 1 - dim tau) iota_tau(f_tau),

where iota_tau pads zeros at the rays tau lacks; F restricts to f_T on
every proper face T (``lift``).  A section over an open subfan extends
by lifting onto the missing cones in order of dimension.  Elements are
converted into ray coordinates and back at the boundary; stalks keep
their normal-form coordinates.  On non-smooth fans, allowed only on
request, the extension is still searched for by the expanding-support
solver, and a ``SolverGaveUp`` there is a search failure, never a proof
that no extension exists.
"""

from __future__ import annotations

import random

from .cones import Cone, Fan, Subfan
from .intlinalg import (
    CertificateError,
    Vec,
    QuotientLattice,
    QuotientSurjection,
    canonical_surjection,
    compose,
    identity_surjection,
)
from .monoids import GroupRingElement
from .support_solver import (
    COORD_BOUND,
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
        return self._stalks[sigma]

    def restriction(self, sigma: Cone, tau: Cone) -> QuotientSurjection:
        """The map from the stalk at sigma to the stalk at a face tau."""
        return self._restrictions[sigma, tau]


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


def ray_terms(cone: Cone, element: GroupRingElement) -> dict[Vec, int]:
    """The terms of an element of Z[M_cone] in the cone's ray
    coordinates (the cone must be smooth)."""
    chart, _ = cone.ray_chart()
    return {chart.apply(c): k for c, k in element.terms.items()}


def from_ray_terms(group: QuotientLattice, cone: Cone, terms: dict) -> GroupRingElement:
    """The element of ``group``, the stalk at ``cone``, whose terms in
    the cone's ray coordinates are ``terms``."""
    _, inverse = cone.ray_chart()
    return GroupRingElement(group, {inverse.apply(e): k for e, k in terms.items()})


def _positions(face: Cone, cone: Cone) -> tuple[int, ...]:
    """Where each ray of a face sits among the rays of the cone."""
    where = {r: i for i, r in enumerate(cone.rays)}
    return tuple(where[r] for r in face.rays)


def restrict_rays(terms: dict, cone: Cone, face: Cone) -> dict:
    """Restriction to a face, in ray coordinates: keep the coordinates
    of the face's rays."""
    idx = _positions(face, cone)
    out: dict = {}
    for e, k in terms.items():
        key = tuple(e[i] for i in idx)
        out[key] = out.get(key, 0) + k
    return {e: k for e, k in out.items() if k}


def pad_rays(terms: dict, face: Cone, cone: Cone) -> dict:
    """iota: from a face's ray coordinates to the cone's, with zeros at
    the rays the face lacks.  A right inverse of ``restrict_rays``."""
    idx = _positions(face, cone)
    width = len(cone.rays)
    out = {}
    for e, k in terms.items():
        v = [0] * width
        for i, x in zip(idx, e):
            v[i] = x
        out[tuple(v)] = k
    return out


def accumulate(acc: dict, terms: dict, sign: int) -> None:
    """acc += sign * terms, for term dicts; zero coefficients dropped."""
    for e, k in terms.items():
        total = acc.get(e, 0) + sign * k
        if total:
            acc[e] = total
        else:
            acc.pop(e, None)


def _lift_rays(sigma: Cone, faces, values: dict) -> dict:
    """The closed-form lift in ray coordinates: the signed sum of the
    padded values over the proper faces of sigma."""
    out: dict = {}
    for tau in faces:
        sign = -1 if (sigma.dim - 1 - tau.dim) % 2 else 1
        accumulate(out, pad_rays(values[tau], tau, sigma), sign)
    return out


def lift(sheaf: FanSheaf, sigma: Cone, boundary: dict) -> GroupRingElement:
    """The closed-form lift to a smooth cone of ``sheaf_a0`` data on its
    proper faces.

    ``boundary`` maps every proper face tau of sigma to an element of
    Z[M_tau]; when the data are compatible under restriction, the lift
    F = sum of (-1)^(dim sigma - 1 - dim tau) iota_tau(f_tau) restricts
    to f_T on every proper face T.  (Restricted to T, the terms of the
    faces tau meeting T in a given face rho of T carry signs that sum to
    1 when rho = T and to 0 otherwise.)
    """
    fan = sheaf.fan
    sigma = fan.canonical(sigma)
    faces = [tau for tau in fan.faces_of(sigma) if tau is not sigma]
    values = {tau: ray_terms(tau, boundary[tau]) for tau in faces}
    return from_ray_terms(sheaf.stalk(sigma), sigma, _lift_rays(sigma, faces, values))


def extend_section(
    section: Section, depth: int = 3, allow_nonsmooth: bool = False
) -> Section | SolverGaveUp:
    """A global section restricting to the given one.

    On a smooth fan the extension is constructed: the section's values
    on the domain are taken into ray coordinates, each missing cone is
    added in order of dimension by the closed-form lift of the values
    on its proper faces, and ``depth`` is ignored.  Non-smooth fans are
    refused unless explicitly allowed, since nothing guarantees an
    extension exists there; when allowed, the expanding-support solver
    searches to the given depth, and a ``SolverGaveUp`` outcome is a
    search failure, never a proof of nonexistence.  Either way the
    extension is re-checked: it must be a section and restrict to the
    given one.
    """
    sheaf = section.sheaf
    fan = sheaf.fan
    smooth = fan.is_smooth()
    if not smooth and not allow_nonsmooth:
        raise NotSmoothFan("extension is only guaranteed over smooth fans")
    if section.domain.is_full():
        return section

    if smooth:
        extended = _construct_extension(section)
    else:
        extended = _search_extension(section, depth)
        if isinstance(extended, SolverGaveUp):
            return extended
    if not extended.check():
        raise CertificateError("extension is not a global section")
    if extended.restrict(section.domain) != section:
        raise CertificateError("extension does not restrict to the given section")
    return extended


def _construct_extension(section: Section) -> Section:
    """Lift onto the cones outside the domain in order of dimension."""
    sheaf = section.sheaf
    fan = sheaf.fan
    values: dict = {}
    for top in section.domain.max_cones():
        terms = ray_terms(top, section.components[top])
        for tau in fan.faces_of(top):
            if tau not in values:
                values[tau] = restrict_rays(terms, top, tau)
    for sigma in fan.cones:  # sorted by dimension
        if sigma not in values:
            faces = [tau for tau in fan.faces_of(sigma) if tau is not sigma]
            values[sigma] = _lift_rays(sigma, faces, values)
    comps = {c: from_ray_terms(sheaf.stalk(c), c, values[c]) for c in fan.max_cones}
    return Section(sheaf, fan.full_subfan(), comps)


def _search_extension(section: Section, depth: int) -> Section | SolverGaveUp:
    """The expanding-support search, for fans without the closed form."""
    sheaf = section.sheaf
    fan = sheaf.fan
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
    return Section(sheaf, fan.full_subfan(), {c: solution[i] for i, c in enumerate(maxes)})


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
        extra_points=2,
    )
    if found is not None:
        comps = {c: found[i] for i, c in enumerate(cones)}
    else:
        m = [rng.randint(-COORD_BOUND, COORD_BOUND) for _ in range(sheaf.fan.lattice.rank)]
        comps = {c: GroupRingElement.character(sheaf.stalk(c), m) for c in cones}
    section = Section(sheaf, domain, comps)
    if not section.check():
        raise CertificateError("sampled family is not a section")
    return section
