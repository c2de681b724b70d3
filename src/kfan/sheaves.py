"""Sheaves on the poset topology of a fan.

A sheaf here is the contravariant-functor data: a stalk group for every
cone and a quotient surjection for every face pair, functorial along
chains.  Sections over an open subfan are stored on its maximal cones;
compatibility over pairwise meets pins the whole limit.

The sheaf of interest, ``sheaf_a0``, assigns to each cone sigma the
group ring Z[M_sigma] of its minimal-orbit character group.  A smooth
cone with rays v_1..v_k has ray coordinates m -> (<m,v_1>, .., <m,v_k>)
on M_sigma (``Cone.ray_chart``), in which restriction to a face keeps
the coordinates of the face's rays, and Z[M_sigma] is the sum over the
faces tau of sigma of A_tau, the tensor product over the rays of tau of
(1 - x_i) Z[x_i^+-1]: the tau-part of an element is its restriction to
tau under the projector prod (1 - eps_i), eps_i setting x_i = 1
(``split_rays``), and the parts sum back by zero-padding
(``assemble_rays``).  So on a smooth fan ``sheaf_a0`` is the sum over
the cones tau of the constant sheaf A_tau on star(tau), and it is
flasque: a section extends by zero tau-parts on the cones outside its
domain.  Elements are converted into ray coordinates and back at the
boundary.  On non-smooth fans the extension is searched for by the
expanding-support solver, and a ``SolverGaveUp`` there is a search
failure, never a proof that no extension exists.

Whether values on maximal cones agree on their pairwise meets is asked
in one place, ``first_disagreement``: by ``Section.check`` here and by
H0 membership in ``kfan.cech``, whose ring elements are the sections on
the whole fan, scanned there in the fan's order of maximal cones.
"""

from __future__ import annotations

import random
from itertools import product

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
    COEFF_BOUND,
    COORD_BOUND,
    MAX_ATTEMPTS,
    Constraint,
    SolverGaveUp,
    sample_nonzero_solution,
    solve_pushforward_system,
)


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
        for sigma in fan.cones:  # [:-1] drops the cone itself: identities are checked above
            for tau in fan.faces_of(sigma)[:-1]:
                for rho in fan.faces_of(tau)[:-1]:
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


def first_disagreement(sheaf: FanSheaf, cones, values):
    """The first pair i < j, in the order of ``cones``, whose values
    differ on the meet of cones i and j: (i, j, meet, value_j - value_i)
    there, or None if every pair agrees.  Each value is pushed at most
    once to each meet."""
    fan = sheaf.fan
    pushed: dict = {}

    def at(i: int, meet: Cone) -> GroupRingElement:
        value = pushed.get((i, meet))
        if value is None:
            value = pushed[i, meet] = values[i].pushforward(sheaf.restriction(cones[i], meet))
        return value

    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            meet = fan.intersection(cones[i], cones[j])
            a, b = at(i, meet), at(j, meet)
            if a != b:
                return i, j, meet, b - a
    return None


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
        the meet, with the meet, or None; checking the meet suffices
        because smaller common faces factor through it."""
        cones = self.domain.max_cones()
        values = [self.components[c] for c in cones]
        found = first_disagreement(self.sheaf, cones, values)
        return found and (cones[found[0]], cones[found[1]], found[2])

    def check(self) -> bool:
        return self.incompatible_pair() is None

    def value_at(self, cone: Cone) -> GroupRingElement:
        """The component at any cone of the domain: its own at a maximal
        cone of the domain (whose restriction to itself ``FanSheaf``
        certifies as the identity), else pushed forward from a maximal
        cone containing it."""
        fan = self.sheaf.fan
        cone = fan.canonical(cone)
        if cone not in self.domain:
            raise ValueError("cone outside the section's domain")
        own = self.components.get(cone)
        if own is not None:
            return own
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
    """The element of the stalk ``group`` at ``cone`` with these terms in ray
    coordinates; the unimodular chart gives distinct normal-form keys."""
    _, inverse = cone.ray_chart()
    return GroupRingElement._normal(group, {inverse.apply(e): k for e, k in terms.items()})


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


def _top_part(terms: dict) -> dict:
    """The projector prod (1 - eps_i) on ray-coordinate terms: x^e goes
    to prod (x_i^e_i - 1), which is 0 when some e_i is."""
    out: dict = {}
    for e, k in terms.items():
        for keep in product((1, 0), repeat=len(e)) if 0 not in e else ():
            key = tuple(x * kept for x, kept in zip(e, keep))
            out[key] = out.get(key, 0) + (k if (len(e) - sum(keep)) % 2 == 0 else -k)
    return {e: k for e, k in out.items() if k}


def split_rays(terms: dict, cone: Cone, faces) -> dict:
    """The nonzero tau-parts, in tau's ray coordinates, of an element in
    the cone's: restrict to each face tau, then project onto A_tau."""
    parts = {tau: _top_part(restrict_rays(terms, cone, tau)) for tau in faces}
    return {tau: part for tau, part in parts.items() if part}


def assemble_rays(parts: dict, cone: Cone) -> dict:
    """The sum of the zero-padded tau-parts over the faces tau of the
    cone that have one: the inverse of ``split_rays`` over all faces."""
    out: dict = {}
    rays = set(cone.rays)
    for tau, part in parts.items():
        if rays.issuperset(tau.rays):
            accumulate(out, pad_rays(part, tau, cone), 1)
    return out


def random_part(tau: Cone, rng: random.Random) -> dict:
    """The A_tau-part of a random monomial: coordinates in
    [-COORD_BOUND, COORD_BOUND], coefficient in [-COEFF_BOUND, COEFF_BOUND]."""
    e = tuple(rng.randint(-COORD_BOUND, COORD_BOUND) for _ in tau.rays)
    return _top_part({e: rng.randint(-COEFF_BOUND, COEFF_BOUND)})


def extend_section(section: Section, depth: int = 3) -> Section | SolverGaveUp:
    """A global section restricting to the given one, re-checked as
    both.  On a smooth fan it is built (``_split_extension``) and
    ``depth`` is ignored.  On a non-smooth fan nothing guarantees an
    extension: the expanding-support solver searches to the given
    depth, and a ``SolverGaveUp`` is a search failure, never a proof of
    nonexistence."""
    if section.domain.is_full():
        return section
    if section.sheaf.fan.is_smooth():
        extended = _split_extension(section)
    else:
        extended = _search_extension(section, depth)
        if isinstance(extended, SolverGaveUp):
            return extended
    if not extended.check():
        raise CertificateError("extension is not a global section")
    if extended.restrict(section.domain) != section:
        raise CertificateError("extension does not restrict to the given section")
    return extended


def _split_extension(section: Section) -> Section:
    """The section on its domain; elsewhere its tau-parts, assembled with
    zero parts for the cones outside the domain."""
    sheaf = section.sheaf
    parts: dict = {}
    for top, value in section.components.items():
        faces = [tau for tau in sheaf.fan.faces_of(top) if tau not in parts]
        parts.update(split_rays(ray_terms(top, value), top, faces))
    outside = [c for c in sheaf.fan.max_cones if c not in section.components]
    comps = {**section.components, **_assembled(sheaf, parts, outside)}
    return Section(sheaf, sheaf.fan.full_subfan(), comps)


def _assembled(sheaf: FanSheaf, parts: dict, cones) -> dict:
    return {c: from_ray_terms(sheaf.stalk(c), c, assemble_rays(parts, c)) for c in cones}


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
    """A random nonzero section, re-checked.  On a smooth fan, a random
    tau-part (``random_part``) for each cone tau of the domain, redrawn
    while all zero; otherwise a random nonzero solution of the pairwise
    compatibility equations (``sample_nonzero_solution``).  Failing that,
    chi^m on every cone for a random m."""
    fan = sheaf.fan
    cones = domain.max_cones()
    comps = None
    if fan.is_smooth():
        for _ in range(MAX_ATTEMPTS):
            parts = {tau: random_part(tau, rng) for tau in fan.cones if tau in domain}
            if any(parts.values()):
                comps = _assembled(sheaf, parts, cones)
                break
    else:
        slots = {i: sheaf.stalk(c) for i, c in enumerate(cones)}
        found = sample_nonzero_solution(slots, _compatibility_constraints(sheaf, cones), rng, 2)
        comps = found and {c: found[i] for i, c in enumerate(cones)}
    if not comps:
        m = [rng.randint(-COORD_BOUND, COORD_BOUND) for _ in range(fan.lattice.rank)]
        comps = {c: GroupRingElement.character(sheaf.stalk(c), m) for c in cones}
    section = Section(sheaf, domain, comps)
    if not section.check():
        raise CertificateError("sampled family is not a section")
    return section
