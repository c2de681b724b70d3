"""Sheaves on the poset topology of a fan.

A sheaf here is the contravariant-functor data: a stalk group for every
cone and a quotient surjection for every face pair, functorial along
chains.  Sections over an open subfan are stored on its maximal cones,
and compatibility over pairwise meets pins the whole limit.

The sheaf of interest, ``sheaf_a0``, assigns to each cone sigma the
group ring Z[M_sigma] of its minimal-orbit character group.  A smooth
cone with rays v_1..v_k has ray coordinates m -> (<m,v_1>, .., <m,v_k>)
on M_sigma (``FanSheaf.chart``), in which restriction to a face keeps
the coordinates of the face's rays, and Z[M_sigma] is the sum over the
faces tau of sigma of A_tau, the tensor product over the rays of tau of
(1 - x_i) Z[x_i^+-1]: the tau-part of an element is its restriction to
tau under the projector prod (1 - eps_i), eps_i setting x_i = 1
(``split_rays``), and the parts sum back by zero-padding
(``assemble_rays``).  These coordinate maps run as compiled pickers
(``intlinalg.picker``): restriction and padding read their positions
from the cones' sorted rays, and the projector reads one table of sign
patterns per width, built once up to ``MAX_RANK``.  So on a smooth fan
``sheaf_a0`` is the sum over the cones tau of the constant sheaf A_tau
on star(tau), and it is flasque: a section extends by zero tau-parts on
the cones outside its domain.  Elements are converted into ray
coordinates and back at the boundary, by the sheaf that owns the charts
(``FanSheaf.to_rays``, ``FanSheaf.from_rays``).  On non-smooth fans the
extension is searched for by the expanding-support solver, and a
``SolverGaveUp`` there is a search failure, never a proof that no
extension exists.

``sheaf_a0`` builds nothing up front: a stalk is built on its first
read, interned by the cone's perp rows (a character group is the
quotient by the perp lattice, a function of those rows), so each
distinct perp lattice takes one quotient, shared by the cones that have
it, whether a cone's stalk or its ray chart (built from the stalk) is
read first; a restriction is built on its first read, one certified
map per distinct pair of stalks, shared by every face pair between
them.  A command reads few of them: a member of H0 on P1 x P1 x P1
reads the maps of its walls only.  The certificate is per object
(``FanSheaf``): each distinct stalk's projection is checked onto where
it is built and each distinct map commutes with the projections, and
identity and functoriality on every chain follow from those; a map's
splitting is no part of it.

Whether values on maximal cones agree on their meets is asked in one
place, ``first_disagreement``: by ``Section.check`` here and by H0
membership in ``kfan.cech``, whose ring elements are the sections on
the whole fan.  Both scan the maximal cones of the domain
(``Subfan.max_cones``), on the whole fan in the fan's order.  On
every fan and open subfan it walks each cone's faces once, largest
first, and compares values only at the maximal faces a cone shares with
earlier cones, where it meets the last earlier cone containing them
exactly, so a member costs time linear in the incidences (the families
agreeing on every meet, Vezzosi-Vistoli, Invent. Math. 2003;
Anderson-Payne, "Operational K-theory", Doc. Math. 2015); only a
disagreement takes the scan over all pairs, to name the first pair.
"""

from __future__ import annotations

import random
from itertools import product

from .cones import MAX_RANK, Cone, Fan, Subfan
from .intlinalg import (
    CertificateError,
    IntMatrix,
    Vec,
    QuotientLattice,
    QuotientSurjection,
    adjugate,
    canonical_surjection,
    det,
    picker,
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
    """The structure sheaf ``sheaf_a0`` of a fan, built on demand: the
    stalk at a cone sigma is Z[M_sigma], M_sigma = M / (sigma^perp), and
    the restriction from sigma to a face tau is the pushforward along
    the canonical surjection M_sigma -> M_tau.

    ``stalk(sigma)`` keeps sigma's character group from its first read,
    interned by perp rows in the sheaf's own table: one quotient per
    distinct perp lattice, shared by the cones that have it, each
    checked free of rank dim.  ``chart(sigma)`` builds a smooth cone's
    ray coordinates from its stalk, and ``to_rays`` and ``from_rays``
    convert through them.
    ``restriction(sigma, tau)`` builds one ``canonical_surjection`` per
    distinct pair of stalks on its first read, shared by every face
    pair between them: at most 27 maps for the 125 face pairs of
    P1 x P1 x P1.  A cone outside the fan, or a pair that is not a face
    pair, raises ``KeyError``.  Nothing is kept beyond this sheaf.

    The certificate is per object, not per chain.  Write pi_sigma for
    the projection M -> M_sigma of the stalk's quotient; each distinct
    stalk is checked once for P S = I (its projection times its
    section) where ``Cone.character_quotient`` builds it, so pi_sigma
    is onto.  Each distinct map phi_sigma,tau is checked by
    ``canonical_surjection``: the source relations lie in the target's,
    and phi pi_sigma = pi_tau on the basis of M.  The splitting leaves
    the map's certificate: it is checked on its first read, where the
    non-smooth search lifts.  Identity and functoriality follow:

    - phi_sigma,sigma pi_sigma = pi_sigma and pi_sigma is onto, so
      phi_sigma,sigma is the identity;
    - for faces rho <= tau <= sigma, phi_tau,rho phi_sigma,tau pi_sigma =
      phi_tau,rho pi_tau = pi_rho = phi_sigma,rho pi_sigma, and pi_sigma
      is onto, so phi_tau,rho phi_sigma,tau = phi_sigma,rho.

    So every cone and chain that a command reads is as certified as if
    all of them had been checked up front."""

    __slots__ = ("fan", "_interned", "_stalks", "_charts", "_maps", "_restrictions")

    def __init__(self, fan: Fan):
        self.fan = fan
        self._interned: dict = {}  # perp rows -> the stalk of the first cone read with them
        self._stalks: dict = {}  # cone -> its stalk
        self._charts: dict = {}  # smooth cone -> its ray chart
        self._maps: dict = {}  # (id of source stalk, id of target stalk) -> the shared map
        self._restrictions: dict = {}  # (cone, face) -> its map

    def stalk(self, sigma: Cone) -> QuotientLattice:
        """The character group M_sigma of a cone of the fan: the group
        interned for its perp rows, checked free of rank dim, or else
        built and checked by ``Cone.character_quotient``."""
        q = self._stalks.get(sigma)
        if q is None:
            cone = self.fan.canonical(sigma)
            rows = cone.perp_lattice().rows
            q = self._interned.get(rows)
            if q is None:
                q = self._interned[rows] = cone.character_quotient()
            elif q.free_rank != cone.dim:
                raise CertificateError(f"the stalk of {cone!r} is not free of rank {cone.dim}")
            self._stalks[sigma] = q
        return q

    def chart(self, sigma: Cone) -> tuple[IntMatrix, IntMatrix]:
        """The ray chart of a smooth cone of the fan: with rays v_1..v_k
        (in ``rays`` order), m -> (<m,v_1>, .., <m,v_k>) maps M_sigma
        onto Z^k, and restriction to a face keeps the coordinates of the
        face's rays.  Returns (T, T^-1): T = R * section takes the
        stalk's coordinates to ray coordinates (R the ray matrix), and
        T^-1 = det(T) * adj(T) by cofactors.  Built once per cone, from
        its stalk, and checked: det T = +-1, T * projection = R and
        T * T^-1 = I."""
        chart = self._charts.get(sigma)
        if chart is None:
            q = self.stalk(sigma)
            if not sigma.is_smooth():
                raise ValueError(f"{sigma!r} is not smooth: its rays give no chart")
            k = len(sigma.rays)
            ray_matrix = IntMatrix._trusted(sigma.rays, sigma.lattice.rank)
            t = ray_matrix @ q.section
            e = det(t)
            if e not in (1, -1):
                raise CertificateError(f"ray map of {sigma!r} is not unimodular")
            t_inv = IntMatrix._trusted(tuple(tuple(e * x for x in r) for r in adjugate(t).rows), k)
            if t @ q.projection != ray_matrix or t @ t_inv != IntMatrix.identity(k):
                raise CertificateError(f"ray chart of {sigma!r} fails its cross-check")
            chart = self._charts[sigma] = (t, t_inv)
        return chart

    def to_rays(self, sigma: Cone, x: GroupRingElement) -> dict[Vec, int]:
        """An element of the stalk at a smooth cone, in ray coordinates."""
        chart = self.chart(sigma)[0]
        return {chart.apply(c): k for c, k in x.terms.items()}

    def from_rays(self, sigma: Cone, terms: dict) -> GroupRingElement:
        """The element of the stalk at a smooth cone with these terms in
        ray coordinates (distinct keys: the chart is unimodular)."""
        inverse = self.chart(sigma)[1]
        keys = {inverse.apply(e): k for e, k in terms.items()}
        return GroupRingElement._normal(self.stalk(sigma), keys)

    def restriction(self, sigma: Cone, tau: Cone) -> QuotientSurjection:
        """The map from the stalk at sigma to the stalk at a face tau."""
        phi = self._restrictions.get((sigma, tau))
        if phi is None:
            if tau not in self.fan._faces_of[self.fan._index[sigma]]:
                raise KeyError((sigma, tau))
            source, target = self.stalk(sigma), self.stalk(tau)
            phi = self._maps.get((id(source), id(target)))
            if phi is None:
                phi = self._maps[id(source), id(target)] = canonical_surjection(source, target)
            self._restrictions[sigma, tau] = phi
        return phi


def sheaf_a0(fan: Fan) -> FanSheaf:
    """The structure sheaf of this package: cone -> Z[M_sigma], face
    inclusion -> pushforward along the canonical character surjection,
    each stalk and map built and certified on its first read
    (``FanSheaf``)."""
    return FanSheaf(fan)


def first_disagreement(sheaf: FanSheaf, cones, values):
    """The first pair i < j, in the order of ``cones`` (distinct cones
    of the fan), whose values differ on the meet of cones i and j:
    (i, j, meet, value_j - value_i) there, or None if every pair agrees.
    Each value is pushed at most once to each meet.

    The verdict walks the cones in list order and the faces of each,
    largest first.  Cone i is compared only at its faces tau that an
    earlier cone contains and that lie in no larger face so compared:
    walked largest first, these are the maximal faces of cone i shared
    with earlier cones.  There it is compared with h, the last earlier
    cone containing tau, and the two meet exactly in tau: their meet is
    a face of cone i shared with h that contains tau, and tau is
    maximal among those.

    If every comparison agrees, so does every pair.  Take a meet mu and
    the cones of the list that contain it.  Each of them but the first
    has mu in a compared face nu, since an earlier cone contains mu, and
    was compared at nu with an earlier cone containing nu, hence mu;
    restriction to mu factors through nu (``FanSheaf`` certifies
    functoriality), so each agrees on mu with an earlier one, and all of
    them with the first.  A disagreement runs the scan over all pairs,
    reusing the pushes made so far, to name the first pair."""
    fan = sheaf.fan
    pushed: dict = {}

    def at(i: int, meet: Cone) -> GroupRingElement:
        value = pushed.get((i, meet))
        if value is None:
            value = pushed[i, meet] = values[i].pushforward(sheaf.restriction(cones[i], meet))
        return value

    def agrees() -> bool:
        last: dict = {}  # face -> the last index so far whose cone contains it
        for i, sigma in enumerate(cones):
            compared: list = []  # ray sets of the faces of cone i compared so far
            for tau in reversed(fan.faces_of(sigma)):
                h = last.get(tau)
                last[tau] = i
                if h is None:
                    continue
                rays = frozenset(tau.rays)
                if any(rays <= nu for nu in compared):
                    continue
                compared.append(rays)
                if at(h, tau) != at(i, tau):
                    return False
        return True

    if agrees():
        return None
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            meet = fan.intersection(cones[i], cones[j])
            a, b = at(i, meet), at(j, meet)
            if a != b:
                return i, j, meet, b - a
    raise CertificateError("the incidence walk found a disagreement that no pair has")


class Section:
    """A compatible-in-waiting family over the maximal cones of an open
    subfan; ``check`` decides whether it actually is a section."""

    __slots__ = ("sheaf", "domain", "components", "_home")

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
        self._home = None  # cone of the domain -> the first maximal cone containing it

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
        certifies as the identity), else pushed forward from the first
        maximal cone of the domain containing it, looked up in a table
        built on the first call and kept (the domain never changes)."""
        fan = self.sheaf.fan
        cone = fan.canonical(cone)
        if cone not in self.domain:
            raise ValueError("cone outside the section's domain")
        own = self.components.get(cone)
        if own is not None:
            return own
        if self._home is None:
            self._home = {}
            for top in self.domain.max_cones():
                for tau in fan.faces_of(top):
                    self._home.setdefault(tau, top)
        top = self._home[cone]  # an open set has a maximal cone above each member
        return self.components[top].pushforward(self.sheaf.restriction(top, cone))

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


def _positions(face: Cone, cone: Cone) -> tuple[int, ...]:
    """Where each ray of a face sits among the rays of the cone."""
    return tuple(map(cone.rays.index, face.rays))


def restrict_rays(terms: dict, cone: Cone, face: Cone) -> dict:
    """Restriction to a face, in ray coordinates: keep the coordinates
    of the face's rays."""
    pick = picker(_positions(face, cone))
    out: dict = {}
    for e, k in terms.items():
        key = pick(e)
        out[key] = out.get(key, 0) + k
    return {e: k for e, k in out.items() if k}


def pad_rays(terms: dict, face: Cone, cone: Cone) -> dict:
    """iota: from a face's ray coordinates to the cone's, with zeros at
    the rays the face lacks.  A right inverse of ``restrict_rays``.
    Each key gets one trailing 0, which the cone's other rays pick."""
    width = len(face.rays)
    sources = [width] * len(cone.rays)
    for j, i in enumerate(_positions(face, cone)):
        sources[i] = j
    pick = picker(sources)
    return {pick(e + (0,)): k for e, k in terms.items()}


def accumulate(acc: dict, terms: dict, sign: int) -> None:
    """acc += sign * terms, for term dicts; zero coefficients dropped."""
    for e, k in terms.items():
        total = acc.get(e, 0) + sign * k
        if total:
            acc[e] = total
        else:
            acc.pop(e, None)


def _sign_patterns(width: int) -> tuple:
    """(picker, sign) for each choice of the kept factors x_i^e_i in the
    expansion of prod (x_i^e_i - 1) over ``width`` coordinates, in the
    order of ``product((1, 0), repeat=width)``: the picker reads a key
    with one trailing 0, which the dropped coordinates pick, and the
    sign is that of the dropped factors' -1s."""
    return tuple(
        (
            picker([i if kept else width for i, kept in enumerate(keep)]),
            -1 if (width - sum(keep)) % 2 else 1,
        )
        for keep in product((1, 0), repeat=width)
    )


# a smooth cone has at most as many rays as the lattice rank
_SIGN_PATTERNS = tuple(_sign_patterns(w) for w in range(MAX_RANK + 1))


def _top_part(terms: dict) -> dict:
    """The projector prod (1 - eps_i) on ray-coordinate terms: x^e goes
    to prod (x_i^e_i - 1), which is 0 when some e_i is; its terms are
    read off the sign patterns of the width of e."""
    out: dict = {}
    for e, k in terms.items():
        if 0 in e:
            continue
        padded = e + (0,)
        for pick, sign in _SIGN_PATTERNS[len(e)]:
            key = pick(padded)
            out[key] = out.get(key, 0) + sign * k
    return {e: k for e, k in out.items() if k}


def split_rays(terms: dict, cone: Cone, faces) -> dict:
    """The nonzero tau-parts, in tau's ray coordinates, of an element in
    the cone's: restrict to each face tau, then project onto A_tau."""
    parts = {tau: _top_part(restrict_rays(terms, cone, tau)) for tau in faces}
    return {tau: part for tau, part in parts.items() if part}


def assemble_rays(parts: dict, cone: Cone, faces) -> dict:
    """The sum of the zero-padded tau-parts over the ``faces`` tau of the
    cone that have one: the inverse of ``split_rays`` over all faces.
    Only the parts of those faces are read, so the cost follows the
    cone, not the number of parts."""
    out: dict = {}
    for tau in faces:
        part = parts.get(tau)
        if part:
            accumulate(out, pad_rays(part, tau, cone), 1)
    return out


def random_monomial(cone: Cone, rng: random.Random) -> dict:
    """A random monomial in the cone's ray coordinates: coordinates in
    [-COORD_BOUND, COORD_BOUND], then a coefficient in
    [-COEFF_BOUND, COEFF_BOUND]."""
    e = tuple(rng.randint(-COORD_BOUND, COORD_BOUND) for _ in cone.rays)
    return {e: rng.randint(-COEFF_BOUND, COEFF_BOUND)}


def random_part(tau: Cone, rng: random.Random) -> dict:
    """The A_tau-part of a random monomial (``random_monomial``)."""
    return _top_part(random_monomial(tau, rng))


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
        parts.update(split_rays(sheaf.to_rays(top, value), top, faces))
    outside = [c for c in sheaf.fan.max_cones if c not in section.components]
    comps = {**section.components, **_assembled(sheaf, parts, outside)}
    return Section(sheaf, sheaf.fan.full_subfan(), comps)


def _assembled(sheaf: FanSheaf, parts: dict, cones) -> dict:
    faces = sheaf.fan.faces_of
    return {c: sheaf.from_rays(c, assemble_rays(parts, c, faces(c))) for c in cones}


def _search_extension(section: Section, depth: int) -> Section | SolverGaveUp:
    """The expanding-support search, for fans without the closed form."""
    sheaf = section.sheaf
    fan = sheaf.fan
    maxes = fan.max_cones
    slot_groups = {i: sheaf.stalk(c) for i, c in enumerate(maxes)}
    constraints = _compatibility_constraints(sheaf, maxes)
    given = section.components  # the maximal cones of the domain
    for i, top in enumerate(maxes):
        for lam in fan.faces_of(top):
            if lam in given:
                constraints.append(
                    Constraint(
                        key=("restrict", fan.index_of(lam), i),
                        target=sheaf.stalk(lam),
                        terms=((i, 1, sheaf.restriction(top, lam)),),
                        rhs=given[lam],
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
        # slots in (dim, rays) order on every domain: the sampler's draws follow it
        cones = sorted(cones, key=fan.index_of)
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
