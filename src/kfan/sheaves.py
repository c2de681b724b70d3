"""Sheaves on the poset topology of a fan.

A sheaf here is a stalk group for every cone and a surjection for every
face pair, functorial along chains.  Sections over an open subfan are
stored on its maximal cones; compatibility over pairwise meets pins the
whole limit.

The sheaf of interest, ``sheaf_a0``, assigns to each cone sigma the
group ring Z[M_sigma] of its minimal-orbit character group.  On a
smooth fan elements live in ray coordinates throughout: with rays
v_1..v_k, m -> (<m,v_1>, .., <m,v_k>) maps M_sigma onto Z^k
(``RayStalk``), and restriction to a face keeps the face's coordinates,
by a picker built once per face pair (``RayRestriction``).  Z[M_sigma]
is then the sum over the faces tau of sigma of A_tau, the tensor product
over the rays of tau of (1 - x_i) Z[x_i^+-1]: the tau-part of an element
is its restriction to tau under the projector prod (1 - eps_i), eps_i
setting x_i = 1, and the parts sum back by zero-padding.  The one
projector, ``_top_part_into``, writes each tau-part straight into the
cone that receives it: in the draw and the extension (``_projected``)
and in the cover complex's contraction.  So ``sheaf_a0`` is the sum over
the cones tau of the constant sheaf A_tau on star(tau), and flasque: a
section extends by zero tau-parts off its domain, so the extension
projects only the faces in the domain of the maximal cones outside it.
The extension is linear in the section, so ``random_section`` draws the
tau-parts of ``SPARSE_DRAWS`` random cones of the domain, the others
zero, as the cover complex draws its cocycles: a zero value is pushed,
projected and charted nowhere, so a trial costs the stars of the drawn
cones.
The character groups' own coordinates are read only where
``kfan.report`` writes or reads an element, through the stalk's ray
chart (``RayStalk.chart``).
On non-smooth fans the stalks are the character groups, the restrictions
their canonical surjections, and extensions are searched for by the
expanding-support solver: a ``SolverGaveUp`` there is a search failure,
never a proof that no extension exists.  Each stalk, chart and
restriction is built and certified on its first read (``FanSheaf``,
``RayStalk.chart``) and kept by cone number, as every table here is:
only ``FanSheaf.stalk``, ``restriction`` and ``Section``'s cone keys
take a ``Cone``.

Whether values on maximal cones agree on their meets is asked in one
place, ``first_disagreement``, by ``Section.check`` here and by H0
membership in ``kfan.cech``, over the maximal cones of the domain
(``Subfan.max_ids``), on the whole fan in the fan's order.  It
compares values only at the maximal faces a cone shares with earlier
cones, so a member costs time linear in the incidences (the families
agreeing on every meet, Vezzosi-Vistoli, Invent. Math. 2003;
Anderson-Payne, "Operational K-theory", Doc. Math. 2015); only a
disagreement takes the scan over all pairs, to name the first pair.

A cover's equations d(x) = rhs, with ``kfan.cech``'s signs, are stated
in one place, ``cover_system``: a section's compatibility is d^0 = 0 on
its domain's cover, so the non-smooth sampler and extension search take
it, as the cover complex's non-smooth cocycles and coboundaries do.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import combinations, product

from .cones import MAX_RANK, Cone, Fan, Subfan
from .intlinalg import (
    CertificateError,
    IntMatrix,
    Vec,
    QuotientLattice,
    QuotientSurjection,
    adjugate,
    applier,
    canonical_surjection,
    det,
    picker,
    vec_add,
)
from .monoids import GroupRingElement, push_terms
from .support_solver import (
    COEFF_BOUND,
    COORD_BOUND,
    MAX_ATTEMPTS,
    Constraint,
    SolverGaveUp,
    sample_nonzero_solution,
    solve_pushforward_system,
)

# cones of the domain given a tau-part in a smooth fan's random section,
# and tuples of b0 in its random cocycle z = d(b0) (``kfan.cech``)
SPARSE_DRAWS = 3


class RayStalk:
    """The stalk group at a cone of a smooth fan, in ray coordinates: with
    rays v_1..v_k (in ``rays`` order), m -> (<m,v_1>, .., <m,v_k>) maps
    M_sigma onto Z^k, as the rays extend to a basis of N.  The fan's
    one sheaf keeps one per cone, and a group is its object: a stalk of
    a second fan built from the same data is a different group.
    ``cone_id`` is the cone's number in its fan, and ``chart`` carries
    ray coordinates onto those of its character group; ``chart_maps``
    applies it to a key."""

    __slots__ = ("cone", "cone_id", "coords_len", "free_rank", "_chart", "_maps")
    invariant_factors = ()
    is_free = True

    def __init__(self, fan: Fan, cone_id: int):
        self.cone_id, self.cone = cone_id, fan.cones[cone_id]
        self.coords_len = self.free_rank = len(self.cone.rays)
        self._chart = None

    def zero(self) -> Vec:
        return (0,) * self.coords_len

    def reduce(self, coords) -> Vec:
        if len(coords) != self.coords_len:
            raise ValueError("bad coordinate length")
        return tuple(coords)

    def project(self, v) -> Vec:
        """The ray coordinates of chi^[m]: the pairings of m with the rays."""
        return IntMatrix._trusted(self.cone.rays, self.cone.lattice.rank).apply(v)

    add = staticmethod(vec_add)

    def chart(self) -> tuple[IntMatrix, IntMatrix]:
        """The ray chart: returns (T, T^-1), where T = R * section takes
        the coordinates of the cone's character group
        (``Cone.character_quotient``) to ray coordinates (R the ray
        matrix, in ``rays`` order), and T^-1 = det(T) * adj(T) by
        cofactors.  Built once per stalk and checked: det T = +-1,
        T * projection = R and T * T^-1 = I; ``chart_maps`` is built
        with it."""
        if self._chart is None:
            q = self.cone.character_quotient()
            sigma, k = self.cone, self.coords_len
            ray_matrix = IntMatrix._trusted(sigma.rays, sigma.lattice.rank)
            t = ray_matrix @ q.section
            e = det(t)
            if e not in (1, -1):
                raise CertificateError(f"ray map of {sigma!r} is not unimodular")
            t_inv = IntMatrix._trusted(tuple(tuple(e * x for x in r) for r in adjugate(t).rows), k)
            if t @ q.projection != ray_matrix or t @ t_inv != IntMatrix.identity(k):
                raise CertificateError(f"ray chart of {sigma!r} fails its cross-check")
            self._chart = (t, t_inv)
            self._maps = (applier(t), applier(t_inv))
        return self._chart

    def chart_maps(self):
        """The maps v -> T v and v -> T^-1 v of ``chart``, unrolled
        (``intlinalg.applier``): each takes a key of the right length
        to a list."""
        if self._chart is None:
            self.chart()
        return self._maps


class RayRestriction:
    """Restriction to a face on a smooth fan: ``apply`` keeps the
    coordinates of the face's rays, a compiled ``picker`` that
    ``monoids.push_terms`` runs on each key, certified by
    construction, as the face's rays are among the cone's.  ``pad`` is
    its right inverse iota, reading a key with one trailing 0, which the
    rays the face lacks pick."""

    __slots__ = ("source", "target", "apply", "pad")

    def __init__(self, source: RayStalk, target: RayStalk):
        self.source = source
        self.target = target
        rays = target.cone.rays
        self.apply = picker([source.cone.rays.index(r) for r in rays])
        self.pad = picker([rays.index(r) if r in rays else len(rays) for r in source.cone.rays])


class FanSheaf:
    """The structure sheaf ``sheaf_a0`` of a fan, built on demand: the
    stalk at a cone sigma is Z[M_sigma], M_sigma = M / (sigma^perp), and
    the restriction to a face tau is the pushforward along M_sigma ->
    M_tau.  A cone outside the fan, or a pair that is not a face pair,
    raises ``KeyError``.  ``sheaf_a0`` keeps one per fan, so whatever
    it builds serves every later reader of that fan.

    On a smooth fan ``stalk`` is a ``RayStalk`` and ``restriction`` a
    ``RayRestriction``, certified by construction.  Otherwise ``stalk`` is
    the cone's character group, ``Cone.character_quotient``: one group
    per distinct perp lattice, which ``intlinalg.quotient`` keeps, checked
    P S = I (its projection times its section), so its projection
    pi_sigma is onto, and free of rank dim, for each cone that reads it.
    ``restriction`` is then its ``canonical_surjection``, checked:
    phi pi_sigma = pi_tau on the basis of M.  Identity and
    functoriality follow, as pi_sigma is onto:

    - phi_sigma,sigma pi_sigma = pi_sigma, so phi_sigma,sigma = 1;
    - for faces rho <= tau <= sigma, phi_tau,rho phi_sigma,tau pi_sigma =
      phi_tau,rho pi_tau = pi_rho = phi_sigma,rho pi_sigma.

    A map's splitting is no part of the certificate: it is checked on
    its first read, where the non-smooth search lifts."""

    __slots__ = ("fan", "smooth", "_stalks", "_restrictions")

    def __init__(self, fan: Fan):
        self.fan = fan
        self.smooth = fan.is_smooth()
        n = len(fan.cones)
        self._stalks: list = [None] * n  # cone number -> its stalk
        self._restrictions = [{} for _ in range(n)]  # cone number -> face number -> its map

    def stalk(self, sigma: Cone) -> RayStalk | QuotientLattice:
        return self.stalk_at(self._number(sigma))

    def restriction(self, sigma: Cone, tau: Cone) -> RayRestriction | QuotientSurjection:
        return self.restriction_at(self._number(sigma), self._number(tau))

    def _number(self, cone: Cone) -> int:
        i = self.fan.find(cone)
        if i is None:
            raise KeyError(cone)
        return i

    def stalk_at(self, i: int) -> RayStalk | QuotientLattice:
        """The stalk group at cone i of the fan, kept from its first
        read: its ``RayStalk`` on a smooth fan, else its character group
        (``Cone.character_quotient``)."""
        q = self._stalks[i]
        if q is None:
            fan = self.fan
            q = RayStalk(fan, i) if self.smooth else fan.cones[i].character_quotient()
            self._stalks[i] = q
        return q

    def restriction_at(self, i: int, j: int) -> RayRestriction | QuotientSurjection:
        """The map from the stalk at cone i to the stalk at its face j."""
        maps = self._restrictions[i]
        phi = maps.get(j)
        if phi is None:
            if j not in self.fan.face_ids[i]:
                raise KeyError((i, j))
            make = RayRestriction if self.smooth else canonical_surjection
            phi = maps[j] = make(self.stalk_at(i), self.stalk_at(j))
        return phi


def sheaf_a0(fan: Fan) -> FanSheaf:
    """The structure sheaf of this package: cone -> Z[M_sigma], face
    inclusion -> pushforward along the canonical character surjection,
    each stalk and map built and certified on its first read
    (``FanSheaf``).  One per fan, kept as ``fan.sheaf``: every caller
    shares its stalks, their charts and its restrictions."""
    if fan.sheaf is None:
        fan.sheaf = FanSheaf(fan)
    return fan.sheaf


def first_disagreement(sheaf: FanSheaf, cones, values):
    """The first pair i < j, in the order of ``cones`` (distinct cone
    numbers of the fan), whose values differ on the meet of cones i and
    j: (i, j, meet number, value_j - value_i) there, or None if every
    pair agrees.  Each value is pushed at most once to each meet.

    The verdict runs the comparisons of ``_comparisons`` in order and
    stops at the first that differs.  They depend only on the fan and
    on ``cones``, so for the fan's own ``max_ids`` tuple, which H0
    membership and every global section pass, they are listed on the
    first call and kept on the fan's whole open set; any other list is
    walked afresh.  A disagreement runs the scan over all pairs,
    reusing the pushes made so far, to name the first pair."""
    fan = sheaf.fan
    pushed: dict = {}

    def at(i: int, meet: int) -> dict:  # value i's terms on the meet
        terms = values[i].terms
        if not terms:  # a zero value is zero on every meet
            return terms
        out = pushed.get((i, meet))
        if out is None:
            out = pushed[i, meet] = push_terms(terms, sheaf.restriction_at(cones[i], meet))
        return out

    if cones is fan.max_ids:
        whole = fan.full_subfan()
        if whole._walk is None:
            whole._walk = tuple(_comparisons(fan, cones))
        walk = whole._walk
    else:
        walk = _comparisons(fan, cones)
    if all(at(h, tau) == at(i, tau) for h, i, tau in walk):
        return None
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            meet = fan.meet_id(cones[i], cones[j])
            a, b = at(i, meet), at(j, meet)
            if a != b:
                difference = dict(b)
                accumulate(difference, a, -1)
                return i, j, meet, GroupRingElement._normal(sheaf.stalk_at(meet), difference)
    raise CertificateError("the incidence walk found a disagreement that no pair has")


def _comparisons(fan: Fan, cones):
    """The comparisons (h, i, tau) that decide whether values on
    ``cones`` agree on every pairwise meet: indices h < i into
    ``cones`` and a face tau of both, in walk order.

    The walk takes the cones in list order and the faces of each,
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
    them with the first."""
    last: dict = {}  # face -> the last index so far whose cone contains it
    for i, sigma in enumerate(cones):
        compared: list = []  # ray sets of the faces of cone i compared so far
        for tau in reversed(fan.face_ids[sigma]):
            h = last.get(tau)
            last[tau] = i
            if h is None:
                continue
            rays = fan.ray_sets[tau]
            if any(rays <= nu for nu in compared):
                continue
            compared.append(rays)
            yield h, i, tau


class Section:
    """A compatible-in-waiting family over the maximal cones of an open
    subfan; ``check`` decides whether it actually is a section.  Its
    ``values`` are keyed by cone number, its ``components`` by cone."""

    __slots__ = ("sheaf", "domain", "values")

    def __new__(cls, sheaf: FanSheaf, domain: Subfan, components: dict) -> "Section":
        values = {}
        for c, v in components.items():
            i = sheaf.fan.find(c)
            values[c if i is None else i] = v
        return cls.by_id(sheaf, domain, values)

    @classmethod
    def by_id(cls, sheaf: FanSheaf, domain: Subfan, values: dict) -> "Section":
        """The family with these values, keyed by cone number: one on
        each maximal cone of the domain, in the stalk there."""
        if domain.parent is not sheaf.fan:
            raise ValueError("domain belongs to a different fan")
        self = object.__new__(cls)
        self.sheaf = sheaf
        self.domain = domain
        comps = {}
        for c in domain.max_ids():
            if c not in values:
                raise ValueError(f"missing component at {sheaf.fan.cones[c]!r}")
            val = values[c]
            if val.group is not sheaf.stalk_at(c):
                raise ValueError(f"component at {sheaf.fan.cones[c]!r} lives over the wrong group")
            comps[c] = val
        if len(comps) != len(values):
            stray = next(c for c in values if c not in comps)
            stray = sheaf.fan.cones[stray] if type(stray) is int else stray
            raise ValueError(f"component at {stray!r}, not a maximal cone of the domain")
        self.values = comps
        return self

    @property
    def components(self) -> dict:
        cones = self.sheaf.fan.cones
        return {cones[c]: v for c, v in self.values.items()}

    def incompatible_pair(self):
        """The first pair of maximal cones whose components disagree on
        the meet, with the meet, or None; checking the meet suffices
        because smaller common faces factor through it."""
        ids = self.domain.max_ids()
        found = first_disagreement(self.sheaf, ids, [self.values[c] for c in ids])
        cones = self.sheaf.fan.cones
        return found and (cones[ids[found[0]]], cones[ids[found[1]]], cones[found[2]])

    def check(self) -> bool:
        return self.incompatible_pair() is None

    def value_at(self, i: int) -> GroupRingElement:
        """The component at cone i of the domain: its own at a maximal
        cone of the domain, else pushed forward from the first maximal
        cone of the domain containing it (the domain's ``home`` table)."""
        if i not in self.domain.ids:
            raise ValueError("cone outside the section's domain")
        own = self.values.get(i)
        if own is not None:
            return own
        top = self.domain.home()[i]  # an open set has a maximal cone above each member
        if not self.values[top].terms:  # zero on every face
            return GroupRingElement.zero(self.sheaf.stalk_at(i))
        return self.values[top].pushforward(self.sheaf.restriction_at(top, i))

    def restrict(self, smaller: Subfan) -> "Section":
        if not smaller <= self.domain:
            raise ValueError("not a subset of the section's domain")
        values = {c: self.value_at(c) for c in smaller.max_ids()}
        return Section.by_id(self.sheaf, smaller, values)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Section)
            and self.sheaf is other.sheaf
            and self.domain == other.domain
            and self.values == other.values
        )

    def __repr__(self) -> str:
        return f"Section(on {len(self.values)} maximal cones)"


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
    with one trailing 0, which the dropped coordinates pick, and writes
    one too, as ``RayRestriction.pad`` reads; the sign is that of the
    dropped factors' -1s."""
    return tuple(
        (
            picker([i if kept else width for i, kept in enumerate(keep)] + [width]),
            -1 if (width - sum(keep)) % 2 else 1,
        )
        for keep in product((1, 0), repeat=width)
    )


# a smooth cone has at most as many rays as the lattice rank
_SIGN_PATTERNS = tuple(_sign_patterns(w) for w in range(MAX_RANK + 1))


def _top_part_into(out: dict, terms: dict, pick, pad) -> None:
    """out += the projector prod (1 - eps_i) on the terms picked into a
    face's ray coordinates by ``pick``, each result read by ``pad`` with
    one trailing 0: x^e goes to prod (x_i^e_i - 1), which is 0 when some
    e_i is; its terms are read off the sign patterns of the width of e.
    Zero coefficients may stay."""
    for e, k in terms.items():
        e = pick(e)
        if 0 in e:
            continue
        padded = e + (0,)
        for p, sign in _SIGN_PATTERNS[len(e)]:
            key = pad(p(padded))
            out[key] = out.get(key, 0) + sign * k


def _projected(sheaf: FanSheaf, cone: int, sources) -> GroupRingElement:
    """The element at cone number ``cone`` of a smooth fan whose tau-parts
    are those of the (face tau, terms, pick) ``sources``: the terms picked
    into tau's ray coordinates, projected straight into the cone's
    (``RayRestriction.pad``); the parts of the other faces are zero."""
    out: dict = {}
    for tau, terms, pick in sources:
        _top_part_into(out, terms, pick, sheaf.restriction_at(cone, tau).pad)
    return GroupRingElement._normal(sheaf.stalk_at(cone), out)


def random_monomial(cone: Cone, rng: random.Random) -> dict:
    """A random monomial in the cone's ray coordinates: coordinates in
    [-COORD_BOUND, COORD_BOUND], then a coefficient in
    [-COEFF_BOUND, COEFF_BOUND]."""
    e = tuple(rng.randint(-COORD_BOUND, COORD_BOUND) for _ in cone.rays)
    return {e: rng.randint(-COEFF_BOUND, COEFF_BOUND)}


def extend_section(section: Section, depth: int = 3) -> Section | SolverGaveUp:
    """A global section restricting to the given one, re-checked as
    both: built on a smooth fan (``_split_extension``, ``depth`` unread),
    else searched for to the given depth, where a ``SolverGaveUp`` is a
    search failure, never a proof of nonexistence."""
    if section.domain.is_full():
        return section
    if section.sheaf.smooth:
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
    """The section on its domain; on each maximal cone outside it, the
    tau-parts of its faces tau in the domain, projected from the value on
    tau's home (``Subfan.home``), the other parts zero.  The section is
    checked, so every maximal cone of the domain containing tau restricts
    to the same value there, and a zero value has zero parts."""
    sheaf, given, fan = section.sheaf, section.values, section.sheaf.fan
    home, restriction = section.domain.home(), sheaf.restriction_at

    def parts(c):  # the faces of cone c in the domain with a nonzero home
        for tau in fan.face_ids[c]:
            top = home.get(tau)  # None off the domain
            if top is not None and given[top].terms:
                yield tau, given[top].terms, restriction(top, tau).apply

    # a maximal cone of the fan in the domain is one of the domain's
    values = {c: given[c] if c in given else _projected(sheaf, c, parts(c)) for c in fan.max_ids}
    return Section.by_id(sheaf, fan.full_subfan(), values)


def _search_extension(section: Section, depth: int) -> Section | SolverGaveUp:
    """The expanding-support search, for fans without the closed form: a
    level-0 cocycle of the fan's cover restricting to the section on
    each maximal cone lam of its domain, equations in (lam, i) order."""
    sheaf = section.sheaf
    fan = sheaf.fan
    maxes = fan.max_ids
    slot_groups, constraints = cover_system(sheaf, maxes, 0, {})
    given = section.values  # the maximal cones of the domain
    for lam in sorted(given):
        for i, top in enumerate(maxes):
            if lam in fan.face_ids[top]:
                constraints.append(
                    Constraint(
                        key=("restrict", lam, i),
                        target=sheaf.stalk_at(lam),
                        terms=(((i,), 1, sheaf.restriction_at(top, lam)),),
                        rhs=given[lam],
                    )
                )
    outcome = solve_pushforward_system(slot_groups, constraints, depth)
    if isinstance(outcome, SolverGaveUp):
        return outcome
    solution, _rounds = outcome
    values = {c: solution[(i,)] for i, c in enumerate(maxes)}
    return Section.by_id(sheaf, fan.full_subfan(), values)


def cover_system(sheaf: FanSheaf, cover, level: int, rhs: dict) -> tuple[dict, list[Constraint]]:
    """The equations d(x) = rhs on the cover by the cones ``cover`` (cone
    numbers), for an unknown level-``level`` cochain x: one slot per
    strictly increasing (level + 1)-tuple of positions in ``cover``, in
    the stalk at its meet, and one equation per (level + 2)-tuple t over
    its signed faces (s, (-1)^j, restriction of s's meet onto t's), s
    being t without index j.  ``rhs`` maps tuples to components.  Slots
    and equations come in lexicographic order, each meet folded by
    ``Fan.meet_id``.  At level 0 x is a section over the union of the
    cover exactly when d(x) = 0: its values agree on every pairwise meet."""
    fan = sheaf.fan
    positions = range(len(cover))
    tuples = combinations(positions, level + 1)
    meets = {s: reduce(fan.meet_id, [cover[i] for i in s]) for s in tuples}
    slots = {s: sheaf.stalk_at(meet) for s, meet in meets.items()}
    constraints = []
    for t in combinations(positions, level + 2):
        meet = fan.meet_id(meets[t[:-1]], cover[t[-1]])
        target = sheaf.stalk_at(meet)
        faces = enumerate(t[:j] + t[j + 1 :] for j in range(len(t)))
        terms = tuple((s, (-1) ** j, sheaf.restriction_at(meets[s], meet)) for j, s in faces)
        value = rhs.get(t, GroupRingElement.zero(target))
        constraints.append(Constraint(key=t, target=target, terms=terms, rhs=value))
    return slots, constraints


def random_open_subfan(fan: Fan, rng: random.Random) -> Subfan:
    """A random nonempty open subfan: the union of the stars of a
    random subset of cones."""
    picks = [c for c in range(len(fan.cones)) if rng.random() < 0.5]
    if not picks:
        picks = [rng.randrange(len(fan.cones))]
    members = set()
    for c in picks:
        members.update(fan.face_ids[c])
    # a union of face sets is face-closed
    return Subfan._trusted(fan, frozenset(members))


def random_section(sheaf: FanSheaf, domain: Subfan, rng: random.Random) -> Section:
    """A random nonzero section, re-checked.  On a smooth fan, the tau-part
    of a ``random_monomial`` on each of ``SPARSE_DRAWS`` random cones tau
    of the domain (all of them, on a smaller domain), the other parts
    zero, redrawn while all zero, projected into place (``_projected``);
    otherwise a random nonzero solution of the pairwise compatibility
    equations (``sample_nonzero_solution``).  Failing that, chi^m on
    every cone for a random m."""
    fan = sheaf.fan
    cones = domain.max_ids()
    values = None
    if sheaf.smooth:
        ids, faces = sorted(domain.ids), fan.face_ids
        for _ in range(MAX_ATTEMPTS):
            picked = rng.sample(ids, min(SPARSE_DRAWS, len(ids)))
            drawn = {c: random_monomial(fan.cones[c], rng) for c in picked}
            # a monomial's tau-part is zero exactly when a coordinate or its coefficient is
            if any(k and 0 not in e for m in drawn.values() for e, k in m.items()):
                parts = {c: [(t, drawn[t], tuple) for t in faces[c] if t in drawn] for c in cones}
                values = {c: _projected(sheaf, c, p) for c, p in parts.items()}
                break
    else:
        # slots in (dim, rays) order on every domain: the sampler's draws follow it
        cones = sorted(cones)
        found = sample_nonzero_solution(*cover_system(sheaf, cones, 0, {}), rng, 2)
        values = found and {c: found[(i,)] for i, c in enumerate(cones)}
    if not values:
        m = [rng.randint(-COORD_BOUND, COORD_BOUND) for _ in range(fan.lattice.rank)]
        values = {c: GroupRingElement.character(sheaf.stalk_at(c), m) for c in cones}
    section = Section.by_id(sheaf, domain, values)
    if not section.check():
        raise CertificateError("sampled family is not a section")
    return section
