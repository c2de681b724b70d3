import glob
import os
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kfan import cones
from kfan.cones import (
    Cone,
    ConeNotInFan,
    DomainNotOpen,
    Fan,
    NotAFan,
    NotStronglyConvex,
    Subfan,
    primitive,
    zero_cone,
)
from kfan.fanfile import build_fan, load_fan_file
from kfan.intlinalg import CertificateError, IntMatrix, Lattice, dot, in_row_span
from kfan.sheaves import random_open_subfan
from test_fan_construction import ladder
from test_invariance import moved, random_unimodular

Z1, Z2, Z3 = Lattice(1), Lattice(2), Lattice(3)


def in_cone_q(rays, v):
    """Oracle: is v a nonnegative *rational* combination of the rays?
    Solved exactly with Fractions by Gaussian elimination on the
    (dim <= 2 sufficient here) generator matrix, falling back to a
    coarse grid search for more generators."""
    rays = [r for r in rays]
    if not rays:
        return all(x == 0 for x in v)
    if len(rays) == 2 and len(v) == 2:
        (a, c), (b, d) = rays
        det = a * d - b * c
        if det != 0:
            s = Fraction(v[0] * d - b * v[1], det)
            t = Fraction(a * v[1] - v[0] * c, det)
            return s >= 0 and t >= 0
    # grid fallback: coefficients in k/8 for k = 0..80
    coeffs = [Fraction(k, 8) for k in range(81)]
    if len(rays) == 1:
        return any(all(c * r == x for r, x in zip(rays[0], v)) for c in coeffs)
    raise NotImplementedError


def test_quadrant_is_self_dual():
    c = Cone.from_rays(Z2, [(1, 0), (0, 1)])
    assert c.rays == ((0, 1), (1, 0))
    assert c.facets == ((0, 1), (1, 0))
    assert c.dim == 2


def test_skew_cone_facets_against_box_oracle():
    rays = [(1, 0), (1, 2)]
    c = Cone.from_rays(Z2, rays)
    assert set(c.facets) == {(0, 1), (2, -1)}
    for v in product(range(-5, 6), repeat=2):
        in_by_facets = all(dot(u, v) >= 0 for u in c.facets)
        assert in_by_facets == in_cone_q(rays, v)


def test_line_is_rejected():
    with pytest.raises(NotStronglyConvex):
        Cone.from_rays(Z2, [(1, 0), (-1, 0)])
    with pytest.raises(NotStronglyConvex):
        Cone.from_rays(Z2, [(1, 0), (0, 1), (-1, -1)])


def test_nonextreme_rays_are_reduced():
    c = Cone.from_rays(Z2, [(1, 0), (1, 1), (0, 1), (2, 6)])
    assert c.rays == ((0, 1), (1, 0))


def test_rays_are_primitivized():
    c = Cone.from_rays(Z2, [(2, 0), (0, 3)])
    assert c.rays == ((0, 1), (1, 0))


def test_non_integer_rays_are_rejected():
    # (1.7, 0) used to be truncated to (1, 0), giving the quadrant
    with pytest.raises(TypeError):
        Cone.from_rays(Z2, [(1.7, 0), (0, 1)])


def test_dual_of_quadrant():
    c = Cone.from_rays(Z2, [(1, 0), (0, 1)])
    assert c.dual().rays == c.rays


def test_dual_of_skew_cone():
    c = Cone.from_rays(Z2, [(1, 0), (1, 2)])
    d = c.dual()
    assert set(d.rays) == {(0, 1), (2, -1)}
    assert set(d.facets) == {(1, 0), (1, 2)}


def test_dual_of_zero_cone_is_everything():
    c = zero_cone(Z2)
    d = c.dual()
    assert not d.pointed
    assert set(d.rays) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    for v in product(range(-2, 3), repeat=2):
        assert d.contains(v)


def test_dual_of_ray_is_halfplane():
    c = Cone.from_rays(Z2, [(1, 0)])
    d = c.dual()
    for v in product(range(-3, 4), repeat=2):
        assert d.contains(v) == (v[0] >= 0)


CORPUS_CONES = [
    (Z2, [(1, 0), (0, 1)]),
    (Z2, [(1, 0)]),
    (Z2, [(1, 0), (1, 2)]),
    (Z2, [(1, 0), (1, 3)]),
    (Z2, []),
    (Z3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]),
    (Z3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    (Z3, [(1, 0, 0), (1, 2, 0), (1, 0, 2), (1, 2, 2)]),
]


@pytest.mark.parametrize("lattice,rays", CORPUS_CONES)
def test_double_dual_is_identity(lattice, rays):
    c = Cone.from_rays(lattice, rays)
    assert c.dual().dual().rays == c.rays


@pytest.mark.parametrize("lattice,rays", CORPUS_CONES)
def test_dim_plus_perp_rank(lattice, rays):
    c = Cone.from_rays(lattice, rays)
    assert c.dim + c.perp_lattice().nrows == lattice.rank


def faces(c):
    """The faces of a cone, from the fan it alone generates."""
    return Fan.from_max_cones(c.lattice, [c]).faces_of(c)


def test_faces_of_quadrant():
    c = Cone.from_rays(Z2, [(1, 0), (0, 1)])
    fs = faces(c)
    assert len(fs) == 4
    assert zero_cone(Z2) in fs
    assert c in fs
    assert Cone.from_rays(Z2, [(1, 0)]) in fs


def test_faces_of_ray():
    c = Cone.from_rays(Z2, [(1, 0)])
    assert len(faces(c)) == 2


def test_faces_of_cone_over_square():
    # 1 zero + 4 rays + 4 two-dim + itself = 10
    c = Cone.from_rays(Z3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    fs = faces(c)
    assert len(fs) == 10
    by_dim = {}
    for f in fs:
        by_dim[f.dim] = by_dim.get(f.dim, 0) + 1
    assert by_dim == {0: 1, 1: 4, 2: 4, 3: 1}


@pytest.mark.parametrize("lattice,rays", CORPUS_CONES)
def test_face_transitivity(lattice, rays):
    c = Cone.from_rays(lattice, rays)
    fan = Fan.from_max_cones(lattice, [c])
    fs = fan.faces_of(c)
    for tau in fs:
        for rho in fan.faces_of(tau):
            assert rho in fs


def test_perp_lattice_of_zero_cone():
    c = zero_cone(Z2)
    p = c.perp_lattice()
    assert p.nrows == 2


def test_perp_lattice_of_ray_against_kernel_oracle():
    c = Cone.from_rays(Z2, [(1, 0)])
    p = c.perp_lattice()
    assert p.nrows == 1
    # oracle: every functional in a box vanishing on the ray lies in the span
    for u in product(range(-3, 4), repeat=2):
        if u[0] * 1 + u[1] * 0 == 0:
            assert in_row_span(p, u)
    assert in_row_span(IntMatrix([(0, 1)]), p.row(0))


def test_perp_lattice_of_fulldim_cone():
    c = Cone.from_rays(Z2, [(1, 0), (1, 2)])
    assert c.perp_lattice().nrows == 0


def test_character_quotient_ranks():
    assert zero_cone(Z2).character_quotient().coords_len == 0
    assert Cone.from_rays(Z2, [(1, 0)]).character_quotient().free_rank == 1
    assert Cone.from_rays(Z2, [(1, 0), (0, 1)]).character_quotient().free_rank == 2
    assert Cone.from_rays(Z2, [(1, 0), (1, 2)]).character_quotient().free_rank == 2


def test_smoothness():
    assert Cone.from_rays(Z2, [(1, 0), (0, 1)]).is_smooth()
    skew = Cone.from_rays(Z2, [(1, 0), (1, 2)])
    assert skew.is_simplicial() and not skew.is_smooth()
    square = Cone.from_rays(Z3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    assert not square.is_simplicial() and not square.is_smooth()
    assert zero_cone(Z3).is_smooth()
    assert Cone.from_rays(Z3, [(1, 0, 0), (0, 1, 0)]).is_smooth()


def patch_dual_ray_generators(monkeypatch, call, corrupt):
    """Make the ``call``-th double description (0: the facets of the
    input rays, 1: the rays of those facets) return corrupt(lin, rays)."""
    dual = cones.dual_ray_generators
    seen = []

    def patched(vectors, rank):
        lin, rays = dual(vectors, rank)
        seen.append(None)
        return corrupt(lin, rays) if len(seen) == call + 1 else (lin, rays)

    monkeypatch.setattr(cones, "dual_ray_generators", patched)


@pytest.mark.parametrize(
    "call, corrupt, message",
    [
        (1, lambda lin, rays: (lin + [(1, 0)], rays), "cut out a line"),
        (0, lambda lin, rays: (lin, [(0, 1), (1, -1)]), "violates a facet"),
        (1, lambda lin, rays: (lin, rays[:1]), "is not tight on rank 1"),
    ],
)
def test_from_rays_cross_checks_raise(monkeypatch, call, corrupt, message):
    # the redundant ray (1, 1) makes the input dependent, so the double
    # descriptions run: independent rays take the pairing check instead
    patch_dual_ray_generators(monkeypatch, call, corrupt)
    with pytest.raises(CertificateError, match=message):
        Cone.from_rays(Z2, [(1, 0), (0, 1), (1, 1)])


SQUARE = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]


@pytest.mark.parametrize(
    "call, corrupt, message",
    [
        (1, lambda lin, rays: (lin + [(1, 0, 0)], rays), "cut out a line"),
        (0, lambda lin, rays: (lin, rays + [(1, 1, -2)]), "violates a facet"),
        (1, lambda lin, rays: (lin, rays[:3]), "is not tight on rank 2"),
        # one facet fewer cuts out the cone on (0,0,1), (0,1,1), (1,0,0)
        (0, lambda lin, rays: (lin, rays[1:]), "is not one of its rays"),
    ],
    ids=["line", "violated", "not-tight", "dropped"],
)
def test_from_rays_cross_checks_raise_on_the_square(monkeypatch, call, corrupt, message):
    patch_dual_ray_generators(monkeypatch, call, corrupt)
    with pytest.raises(CertificateError, match=message):
        Cone.from_rays(Z3, SQUARE)


def test_independent_rays_run_no_double_description(monkeypatch):
    def refuse(vectors, rank):
        raise AssertionError("a double description ran")

    monkeypatch.setattr(cones, "dual_ray_generators", refuse)
    cone = Cone.from_rays(Z3, [(1, 1, 0), (0, 1, 0)])
    assert cone.rays == ((0, 1, 0), (1, 1, 0)) and cone.dim == 2
    assert cone.facets == ((-1, 1, 0), (0, 0, -1), (0, 0, 1), (1, 0, 0))


@pytest.mark.parametrize(
    "name, value, rays, message",
    [
        # not tight on the other ray: off the diagonal of the pairing
        ("normal_vector", lambda a: (1, 1), [(1, 0), (0, 1)], "fails the pairing check"),
        # tight on its own ray: zero on the diagonal
        ("normal_vector", lambda a: (0, 1), [(1, 0), (0, 1)], "fails the pairing check"),
        # a facet of a ray that does not vanish on the lineality
        ("normal_vector", lambda a: (1, 1), [(1, 0)], "fails the pairing check"),
        ("normal_vector", lambda a: None, [(1, 0), (0, 1)], "are dependent"),
        # the reduction that finds the lineality, with the Smith diagonal of (1, 0)
        ("smith_kernel", lambda a: (IntMatrix([[1, 1]]), (1,)), [(1, 0)], "meets its rays"),
        ("smith_kernel", lambda a: (IntMatrix([], ncols=2), (1,)), [(1, 0)],
         "kernel rank 0 disagree"),
    ],
    ids=["off-diagonal", "zero-diagonal", "off-the-span", "dependent", "lineality", "kernel-rank"],
)
def test_pairing_check_raises(monkeypatch, name, value, rays, message):
    monkeypatch.setattr(cones, name, value)
    with pytest.raises(CertificateError, match=message):
        Cone.from_rays(Z2, rays)


@pytest.mark.parametrize("scale", [0, 2])
def test_character_quotient_freeness_check_raises(monkeypatch, scale):
    # scale 0 drops the relation (rank 2, not 1), scale 2 leaves torsion
    ray = Cone.from_rays(Z2, [(1, 0)])
    perp = ray.perp_lattice()
    monkeypatch.setattr(
        Cone, "perp_lattice", lambda self: IntMatrix([[scale * x for x in perp.row(0)]])
    )
    with pytest.raises(CertificateError, match="is not free of rank 1"):
        ray.character_quotient()


# ---------------------------------------------------------------------------
# fans


def p1_fan():
    return Fan.from_rays_and_indices(Z1, [(1,), (-1,)], [[0], [1]])


def p2_fan():
    return Fan.from_rays_and_indices(
        Z2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [2, 0]]
    )


def test_p1_fan_has_three_cones():
    f = p1_fan()
    assert len(f.cones) == 3
    assert len(f.max_cones) == 2


def test_p2_fan_has_seven_cones():
    f = p2_fan()
    assert len(f.cones) == 7
    dims = sorted(c.dim for c in f.cones)
    assert dims == [0, 1, 1, 1, 2, 2, 2]


def test_overlapping_cones_are_not_a_fan():
    # oracle: (2,1) = 2*(1,0)+1*(0,1) and = 3/2*(1,1)+1/2*(1,-1) lies in
    # both cones, but their intersection <(1,0),(1,1)> is a face of neither
    q = Cone.from_rays(Z2, [(1, 0), (0, 1)])
    w = Cone.from_rays(Z2, [(1, 1), (1, -1)])
    assert q.contains((2, 1)) and w.contains((2, 1))
    with pytest.raises(NotAFan) as ei:
        Fan.from_max_cones(Z2, [q, w])
    assert ei.value.pair == (0, 1)


def test_fan_drops_redundant_face_cones():
    q = Cone.from_rays(Z2, [(1, 0), (0, 1)])
    r = Cone.from_rays(Z2, [(1, 0)])
    f = Fan.from_max_cones(Z2, [q, r])
    assert f.max_cones == (q,)


def test_empty_fan_is_the_zero_cone():
    f = Fan.from_max_cones(Z2, [])
    assert len(f.cones) == 1
    assert f.max_cones == (zero_cone(Z2),)


def test_star_open():
    f = p2_fan()
    sigma = f.max_cones[0]
    star = f.star_open(sigma)
    assert star.members == frozenset(f.faces_of(sigma))
    with pytest.raises(ConeNotInFan):
        f.star_open(Cone.from_rays(Z2, [(3, 1)]))


def test_subfan_must_be_downward_closed():
    f = p2_fan()
    sigma = f.max_cones[0]
    with pytest.raises(DomainNotOpen):
        Subfan(f, [sigma])


def test_subfans_closed_under_union_and_intersection():
    f = p2_fan()
    stars = [f.star_open(c) for c in f.max_cones]
    for a in stars:
        for b in stars:
            u = a.union(b)
            i = a.intersection(b)
            assert all(set(f.faces_of(c)) <= u.members for c in u.members)
            assert all(set(f.faces_of(c)) <= i.members for c in i.members)


def cube_face_fan():
    vertices = list(product((1, -1), repeat=3))
    return Fan.from_max_cones(
        Z3,
        [Cone.from_rays(Z3, [v for v in vertices if v[k] == side]) for k in range(3) for side in (1, -1)],
    )


def test_is_complete():
    assert p1_fan().is_complete()
    assert p2_fan().is_complete()
    affine = Fan.from_max_cones(Z2, [Cone.from_rays(Z2, [(1, 0), (0, 1)])])
    assert not affine.is_complete()
    # the cones over the square faces of [-1, 1]^3 are not simplicial,
    # so the ridge certificate does not apply; their ridges are counted
    cube = cube_face_fan()
    assert cones._certified_walls(3, list(cube.max_cones)) is None and cube.is_complete()
    assert not Fan.from_max_cones(Z3, cube.max_cones[1:]).is_complete()


def test_is_complete_at_rank_4():
    # the ridge count holds at every rank: P^4 is complete, and P^4
    # without one maximal cone is not
    path = os.path.join(os.path.dirname(__file__), "golden", "p4.json")
    p4 = build_fan(load_fan_file(path))
    assert p4.lattice.rank == 4 and p4.is_complete()
    assert not Fan.from_max_cones(p4.lattice, p4.max_cones[1:]).is_complete()
    ray = Fan.from_max_cones(Lattice(4), [Cone.from_rays(Lattice(4), [(1, 0, 0, 0)])])
    assert not ray.is_complete()


def projective_space(n):
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
    return Fan.from_rays_and_indices(Lattice(n), rays, list(combinations(range(n + 1), n)))


def p1_power(n):
    rays = [tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
    indices = [[2 * i + side for i, side in enumerate(sides)] for sides in product((0, 1), repeat=n)]
    return Fan.from_rays_and_indices(Lattice(n), rays, indices)


COMPLETE = (
    [(f"p{n}", lambda n=n: projective_space(n)) for n in range(1, 5)]
    + [(f"p1^{n}", lambda n=n: p1_power(n)) for n in range(1, 5)]
    + [(f"ladder-{n}", lambda n=n: Fan.from_rays_and_indices(*ladder(n))) for n in (4, 6, 12)]
    + [("cube", cube_face_fan)]
)


@pytest.mark.parametrize("make", [m for _, m in COMPLETE], ids=[name for name, _ in COMPLETE])
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.randoms(use_true_random=False))
def test_completeness_is_invariant_and_needs_every_maximal_cone(make, rng):
    # complete, also after a GL_n(Z) move and a reordering of the maximal
    # cones; with any one maximal cone removed, not complete
    fan = make()
    n = fan.lattice.rank
    g = random_unimodular(n, rng) if n > 1 else [[rng.choice((1, -1))]]
    other, _ = moved(fan, g, rng)
    for f in (fan, other):
        assert f.is_complete()
    for k in range(len(other.max_cones)):
        rest = other.max_cones[:k] + other.max_cones[k + 1 :]
        assert not Fan.from_max_cones(other.lattice, rest).is_complete()


def test_fan_face_relation_transitive():
    f = p2_fan()
    for sigma in f.cones:
        for tau in f.faces_of(sigma):
            for rho in f.faces_of(tau):
                assert rho in f.faces_of(sigma)


def test_fan_smoothness():
    assert p2_fan().is_smooth()
    skew = Cone.from_rays(Z2, [(1, 0), (1, 2)])
    f = Fan.from_max_cones(Z2, [skew])
    assert not f.is_smooth()


def test_primitive():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((0, 0)) is None
    assert primitive((-3, 6)) == (-1, 2)


# ---------------------------------------------------------------------------
# randomized cross-checks


def _rational_solve_cols(cols, v):
    """Exact solution c of sum c_j cols_j = v over Q, or None."""
    n, k = len(v), len(cols)
    aug = [
        [Fraction(cols[j][i]) for j in range(k)] + [Fraction(v[i])]
        for i in range(n)
    ]
    row = 0
    pivots = []
    for col in range(k):
        p = next((r for r in range(row, n) if aug[r][col] != 0), None)
        if p is None:
            continue
        aug[row], aug[p] = aug[p], aug[row]
        aug[row] = [x / aug[row][col] for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, n):
        if aug[r][k] != 0:
            return None
    coeffs = [Fraction(0)] * k
    for r, col in enumerate(pivots):
        coeffs[col] = aug[r][k]
    for i in range(n):
        if sum(c * cols[j][i] for j, c in enumerate(coeffs)) != v[i]:
            return None
    return coeffs


def in_cone_caratheodory(rays, v, dim):
    """Oracle: v is a nonnegative rational combination of the rays iff
    it is one of at most dim of them (Caratheodory for cones)."""
    from itertools import combinations

    if all(x == 0 for x in v):
        return True
    for size in range(1, dim + 1):
        for subset in combinations(rays, size):
            c = _rational_solve_cols(list(subset), v)
            if c is not None and all(x >= 0 for x in c):
                return True
    return False


def test_fuzz_3d_facets_against_caratheodory_oracle():
    rng = random.Random(909)
    built = 0
    while built < 10:
        rays = [
            tuple(rng.randint(-3, 3) for _ in range(3))
            for _ in range(rng.randint(3, 5))
        ]
        try:
            c = Cone.from_rays(Z3, rays)
        except (NotStronglyConvex, ValueError):
            continue
        built += 1
        good_rays = [r for r in (primitive(r) for r in rays) if r]
        for v in product(range(-2, 3), repeat=3):
            assert c.contains(v) == in_cone_caratheodory(good_rays, v, 3), (
                rays,
                v,
            )


def _angular_sort(rays):
    from functools import cmp_to_key

    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def cmp(a, b):
        if half(a) != half(b):
            return half(a) - half(b)
        cr = a[0] * b[1] - a[1] * b[0]
        return -1 if cr > 0 else (1 if cr < 0 else 0)

    return sorted(rays, key=cmp_to_key(cmp))


def test_fuzz_random_complete_2d_fans():
    rng = random.Random(4242)
    for _ in range(10):
        rays = {(1, 0), (0, 1), (-1, -1)}
        for _ in range(rng.randint(0, 4)):
            p = primitive((rng.randint(-4, 4), rng.randint(-4, 4)))
            if p:
                rays.add(p)
        ordered = _angular_sort(rays)
        cones = [
            Cone.from_rays(Z2, [ordered[i], ordered[(i + 1) % len(ordered)]])
            for i in range(len(ordered))
        ]
        fan = Fan.from_max_cones(Z2, cones)
        assert fan.is_complete()
        assert len(fan.max_cones) == len(ordered)
        assert fan.is_smooth() == all(c.is_smooth() for c in fan.max_cones)
        # topology sanity on a random pair of stars
        a = fan.star_open(fan.max_cones[0])
        b = fan.star_open(fan.max_cones[rng.randrange(len(fan.max_cones))])
        u = a.union(b)
        assert all(set(fan.faces_of(c)) <= u.members for c in u.members)


FAN_FILES = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "fans", "*.json"))
)


@pytest.mark.parametrize("path", FAN_FILES, ids=os.path.basename)
def test_fan_meets_match_the_geometric_intersection(path):
    fan = build_fan(load_fan_file(path))
    for a in fan.cones:
        for b in fan.cones:
            meet = fan.intersection(a, b)
            assert meet == fan.cones[fan.index_of(a.intersection(b))]
            assert meet is fan.cones[fan.index_of(meet)]


@pytest.mark.parametrize("path", FAN_FILES, ids=os.path.basename)
def test_subfan_max_cones_match_brute_force(path):
    fan = build_fan(load_fan_file(path))
    rng = random.Random(31)
    for _ in range(20):
        sub = random_open_subfan(fan, rng)
        maximal = [
            c
            for c in sub.members
            if not any(c != d and c in fan.faces_of(d) for d in sub.members)
        ]
        if sub.is_full():  # the whole fan's, in the fan's order
            assert sub.max_cones() == fan.max_cones and set(maximal) == set(fan.max_cones)
        else:
            assert sub.max_cones() == tuple(sorted(maximal, key=lambda c: (c.dim, c.rays)))


ALL_FAN_FILES = FAN_FILES + sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "bench", "fans", "*.json"))
)


@pytest.mark.parametrize("path", ALL_FAN_FILES, ids=os.path.basename)
def test_full_subfan_is_the_checked_subfan_of_every_cone(path):
    fan = build_fan(load_fan_file(path))
    full = fan.full_subfan()
    assert full == Subfan(fan, fan.cones) and full.is_full()
    assert all(fan.cones[fan.index_of(c)] is c for c in full.members)
    assert full.max_cones() == Subfan(fan, fan.cones).max_cones() == fan.max_cones
    assert all(c is fan.cones[i] for c, i in zip(fan.max_cones, fan.max_ids))
    # a member set without one of its faces is still refused, and a
    # proper open set is not full
    top = fan.max_cones[0]
    with pytest.raises(DomainNotOpen):
        Subfan(fan, [top])
    if len(fan.max_cones) > 1:
        assert not fan.star_open(top).is_full()


def test_subfan_max_cones_are_found_once():
    f = p2_fan()
    a, b, _ = f.max_cones
    sub = f.subfan(f.faces_of(a) + f.faces_of(b))
    full = f.full_subfan()
    calls = []

    class CountedFaces(tuple):
        def __getitem__(self, c):
            calls.append(c)
            return tuple.__getitem__(self, c)

    # the face table is read by cone number
    f.face_ids = CountedFaces(f.face_ids)
    first = sub.max_cones()
    found = len(calls)
    assert found == len(sub.members) == 6
    assert sub.max_cones() == first
    assert len(calls) == found
    assert set(first) == {a, b}
    # the whole fan's are the fan's own max_ids: no face is read
    assert full.max_cones() == f.max_cones
    assert len(calls) == found


def test_fan_lookups_reject_cones_outside_the_fan():
    f = p2_fan()
    outside = Cone.from_rays(Z2, [(3, 1)])
    inside = f.max_cones[0]
    for call in (
        lambda: f.intersection(outside, inside),
        lambda: f.intersection(inside, outside),
        lambda: f.index_of(outside),
        lambda: f.faces_of(outside),
        lambda: Subfan(f, [outside, zero_cone(Z2)]),
    ):
        with pytest.raises(ConeNotInFan):
            call()
