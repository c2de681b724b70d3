import glob
import math
import os
import random
from itertools import combinations, product

import pytest

from kfan.intlinalg import (
    CertificateError,
    IntMatrix,
    Lattice,
    NotASubquotient,
    adjugate,
    QuotientLattice,
    QuotientSurjection,
    canonical_surjection,
    det,
    in_row_span,
    kernel,
    quotient,
    rank,
    smith_kernel,
    smith_with_inverses,
    snf,
    solve,
)
from kfan.fanfile import build_fan, load_fan_file


def gcd_of_minors(a: IntMatrix, k: int) -> int:
    """Oracle: gcd of all k x k minors, via brute-force cofactor dets."""
    g = 0
    for rows in combinations(range(a.nrows), k):
        for cols in combinations(range(a.ncols), k):
            sub = IntMatrix([[a.rows[i][j] for j in cols] for i in rows], ncols=k)
            g = math.gcd(g, det(sub))
    return g


def check_snf(a: IntMatrix):
    u, d, v, uinv = smith_with_inverses(a)
    assert (u @ a) @ v == d
    assert uinv @ u == IntMatrix.identity(a.nrows)
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    diag = [d.rows[i][i] for i in range(min(d.nrows, d.ncols))]
    for i in range(d.nrows):
        for j in range(d.ncols):
            if i != j:
                assert d.rows[i][j] == 0
    for i in range(len(diag) - 1):
        assert diag[i] >= 0
        if diag[i] == 0:
            assert diag[i + 1] == 0
        else:
            assert diag[i + 1] % diag[i] == 0
    # product of the first k diagonal entries = gcd of k x k minors
    prod = 1
    for k in range(1, len(diag) + 1):
        prod *= diag[k - 1]
        assert prod == gcd_of_minors(a, k)
    return d


def test_snf_identity():
    eye = IntMatrix.identity(2)
    u, d, v = snf(eye)
    assert d == eye
    assert u @ v == eye or (u @ eye) @ v == eye


def test_snf_2x2_example():
    # d1 = gcd of entries = 2, d1*d2 = |det| = |16 - 24| = 8 => diag(2, 4)
    a = IntMatrix([[2, 4], [6, 8]])
    d = check_snf(a)
    assert [d.rows[0][0], d.rows[1][1]] == [2, 4]


def test_snf_zero_matrix():
    a = IntMatrix.zero(3, 2)
    u, d, v = snf(a)
    assert d.is_zero()
    assert d.shape == (3, 2)


def test_snf_degenerate_shapes():
    check_snf(IntMatrix([], ncols=3))
    check_snf(IntMatrix([[1, 2, 3]]))
    check_snf(IntMatrix([[5]]))
    check_snf(IntMatrix([[0], [0]]))


def test_snf_random_matrices():
    rng = random.Random(20240501)
    for _ in range(40):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = IntMatrix(
            [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        )
        check_snf(a)


def test_int_matrix_rejects_non_integer_entries():
    # [[2.9, 1]] used to be held as [[2, 1]]
    with pytest.raises(TypeError):
        IntMatrix([[2.9, 1]])


def test_rank():
    assert rank(IntMatrix([[1, 1], [2, 2]])) == 1
    assert rank(IntMatrix.identity(3)) == 3
    assert rank(IntMatrix.zero(2, 2)) == 0
    assert rank(IntMatrix([], ncols=4)) == 0


def test_kernel_example():
    # brute-force oracle over a small box: solutions of x + y = 0
    a = IntMatrix([[1, 1]])
    k = kernel(a)
    assert k.nrows == 1
    box = [
        (x, y)
        for x in range(-3, 4)
        for y in range(-3, 4)
        if x + y == 0
    ]
    for v in box:
        assert in_row_span(k, v)
    assert k.row(0) in ((1, -1), (-1, 1))


def test_kernel_of_empty_matrix_is_everything():
    k = kernel(IntMatrix([], ncols=3))
    assert k.nrows == 3
    assert abs(det(k)) == 1


def test_kernel_trivial():
    assert kernel(IntMatrix.identity(2)).nrows == 0


def test_solve_identity():
    assert solve(IntMatrix.identity(3), (4, -1, 7)) == (4, -1, 7)


def test_solve_parity_obstruction():
    assert solve(IntMatrix([[2]]), (1,)) is None
    assert solve(IntMatrix([[2]]), (6,)) == (3,)


def test_solve_random_roundtrip():
    rng = random.Random(7)
    for _ in range(30):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
        x = tuple(rng.randint(-5, 5) for _ in range(n))
        b = a.apply(x)
        got = solve(a, b)
        assert got is not None
        assert a.apply(got) == b


def test_solve_inconsistent():
    a = IntMatrix([[1, 1], [1, 1]])
    assert solve(a, (0, 1)) is None


# ---------------------------------------------------------------------------
# quotient lattices


def test_quotient_free():
    q = quotient(Lattice(2), IntMatrix([], ncols=2))
    assert q.invariant_factors == ()
    assert q.free_rank == 2
    assert q.project((3, 5)) != q.project((3, 6))


def test_quotient_coordinate():
    q = quotient(Lattice(2), IntMatrix([[0, 1]]))
    assert q.invariant_factors == ()
    assert q.free_rank == 1
    assert q.project((5, 100)) == q.project((5, -2))
    assert q.project((5, 0)) != q.project((4, 0))


def test_quotient_torsion_z2():
    q = quotient(Lattice(2), IntMatrix([[2, 0], [0, 1]]))
    assert q.invariant_factors == (2,)
    assert q.free_rank == 0
    # oracle: enumerate cosets of <(2,0),(0,1)> in a box; exactly 2 classes
    seen = {}
    for v in product(range(-4, 5), repeat=2):
        seen.setdefault(q.project(v), set()).add(v)
    assert len(seen) == 2
    for cls in seen.values():
        a = next(iter(cls))
        for b in cls:
            diff = (a[0] - b[0], a[1] - b[1])
            assert in_row_span(q.relations, diff)


def test_quotient_projection_kills_relations():
    rel = IntMatrix([[2, 4, 0], [0, 6, 3], [2, 10, 3]])
    q = quotient(Lattice(3), rel)
    for row in rel.rows:
        assert q.project(row) == q.zero()
        assert q.is_relation(row)


def test_quotient_projection_separates_classes():
    rng = random.Random(99)
    rel = IntMatrix([[2, 4, 0], [0, 6, 3]])
    q = quotient(Lattice(3), rel)
    for _ in range(50):
        v = tuple(rng.randint(-10, 10) for _ in range(3))
        w = tuple(rng.randint(-10, 10) for _ in range(3))
        diff = tuple(a - b for a, b in zip(v, w))
        same = q.project(v) == q.project(w)
        assert same == in_row_span(rel, diff)


def test_quotient_lift_roundtrip():
    q = quotient(Lattice(3), IntMatrix([[2, 4, 0], [0, 6, 3]]))
    for coords in [(0,) * q.coords_len, q.project((1, 2, 3)), q.project((-5, 0, 7))]:
        assert q.project(q.lift(coords)) == q.reduce(coords)


def test_quotient_dimension_mismatch():
    with pytest.raises(ValueError):
        quotient(Lattice(2), IntMatrix([[1, 2, 3]]))


# ---------------------------------------------------------------------------
# canonical surjections


def test_surjection_identity():
    q = quotient(Lattice(2), IntMatrix([[0, 2]]))
    phi = canonical_surjection(q, q)
    assert phi.matrix == IntMatrix.identity(q.coords_len)


def test_surjection_to_coordinate_quotient():
    m = quotient(Lattice(2), IntMatrix([], ncols=2))
    q = quotient(Lattice(2), IntMatrix([[0, 1]]))
    phi = canonical_surjection(m, q)
    assert phi.splitting is not None
    assert phi.matrix @ phi.splitting == IntMatrix.identity(1)
    # the induced map factors the projection: phi([v]) = [v] in the quotient
    for v in product(range(-2, 3), repeat=2):
        assert phi.apply(m.project(v)) == q.project(v)


def test_surjection_to_zero_quotient():
    m = quotient(Lattice(2), IntMatrix([], ncols=2))
    zero = quotient(Lattice(2), IntMatrix.identity(2))
    phi = canonical_surjection(m, zero)
    assert zero.coords_len == 0
    assert phi.apply(m.project((3, -4))) == ()


def test_surjection_requires_subgroup():
    q1 = quotient(Lattice(2), IntMatrix([[1, 0]]))
    q2 = quotient(Lattice(2), IntMatrix([[0, 2]]))
    with pytest.raises(NotASubquotient):
        canonical_surjection(q1, q2)


def test_surjection_composition_square():
    # M -> M_sigma -> M_tau equals M -> M_tau
    m = quotient(Lattice(3), IntMatrix([], ncols=3))
    q_sigma = quotient(Lattice(3), IntMatrix([[0, 0, 1]]))
    q_tau = quotient(Lattice(3), IntMatrix([[0, 0, 1], [0, 1, 0]]))
    a = canonical_surjection(m, q_sigma)
    b = canonical_surjection(q_sigma, q_tau)
    direct = canonical_surjection(m, q_tau)
    assert b.matrix @ a.matrix == direct.matrix


def test_compose_splitting_is_right_inverse():
    # Z^3 -> Z^2 + Z/2 -> Z: the middle group has torsion, so the first
    # factor has no splitting to compose, but the composite is split
    m = quotient(Lattice(3), IntMatrix([], ncols=3))
    q1 = quotient(Lattice(3), IntMatrix([[0, 0, 2]]))
    q2 = quotient(Lattice(3), IntMatrix([[0, 0, 1], [0, 1, 0]]))
    a = canonical_surjection(m, q1)
    b = canonical_surjection(q1, q2)
    c = QuotientSurjection(m, q2, b.matrix @ a.matrix)
    assert a.splitting is None
    assert c.matrix == canonical_surjection(m, q2).matrix
    assert c.matrix @ c.splitting == IntMatrix.identity(c.target.coords_len)
    for j in range(c.target.coords_len):
        e = tuple(1 if i == j else 0 for i in range(c.target.coords_len))
        assert c.apply(c.lift(e)) == b.apply(a.apply(c.lift(e))) == e


def _z2_onto_z():
    ambient = Lattice(2)
    source = quotient(ambient, IntMatrix.zero(0, 2))
    target = quotient(ambient, IntMatrix([(0, 1)]))
    return source, target


def test_canonical_surjection_rejects_a_wrong_splitting():
    # the map builds no splitting: one built from a zero section of the
    # target is rejected on its first read, and lifting reads it
    source, target = _z2_onto_z()
    phi = canonical_surjection(source, target)
    target.section = IntMatrix.zero(target.section.nrows, target.section.ncols)
    for read in (lambda: phi.splitting, lambda: phi.lift((1,))):
        with pytest.raises(CertificateError, match="right inverse"):
            read()


def test_canonical_surjection_rejects_a_map_off_the_projections(monkeypatch):
    source, target = _z2_onto_z()
    apply = QuotientSurjection.apply

    def shifted_apply(self, coords):
        return tuple(x + 1 for x in apply(self, coords))

    monkeypatch.setattr(QuotientSurjection, "apply", shifted_apply)
    with pytest.raises(CertificateError, match="projections"):
        canonical_surjection(source, target)


def _free(relations, projection, section):
    """A hand-built free quotient of Z^2: its data are taken as given."""
    relations, projection = IntMatrix(relations, ncols=2), IntMatrix(projection, ncols=2)
    section = IntMatrix(section)
    return QuotientLattice(Lattice(2), relations, (), projection.nrows, projection, section)


# Z^2 onto Z^2 / <(0, 1)>, the first coordinate, with its right inverse
_ONTO_FIRST = ([(0, 1)], [(1, 0)], [(1,), (0,)])


def test_canonical_surjection_rejects_a_hand_built_relation_outside_the_target():
    source = _free([(1, 0)], [(0, 1)], [(0,), (1,)])
    with pytest.raises(NotASubquotient, match="not in target relations"):
        canonical_surjection(source, _free(*_ONTO_FIRST))


def test_canonical_surjection_rejects_a_hand_built_splitting_that_is_no_right_inverse():
    # the source's section swaps the coordinates: the map picks the
    # second one, and the splitting puts the first back.  The map is
    # rejected by its own certificate; built by hand, its splitting is
    # rejected on the first read
    source, target = _free([], [(1, 0), (0, 1)], [(0, 1), (1, 0)]), _free(*_ONTO_FIRST)
    with pytest.raises(CertificateError, match="projections"):
        canonical_surjection(source, target)
    phi = QuotientSurjection(source, target, target.projection @ source.section)
    with pytest.raises(CertificateError, match="right inverse"):
        phi.splitting


def test_canonical_surjection_rejects_a_hand_built_map_off_the_projections():
    # the source's projection is a shear that its section does not undo:
    # the map and its splitting still compose to the identity, but the
    # map sends the image of e_2 to 1 where the target's projection gives 0
    source = _free([], [(1, 1), (0, 1)], [(1, 0), (0, 1)])
    with pytest.raises(CertificateError, match="projections"):
        canonical_surjection(source, _free(*_ONTO_FIRST))


def restrictions_of_every_fan_file():
    here = os.path.dirname(__file__)
    paths = glob.glob(os.path.join(here, os.pardir, "fans", "*.json"))
    paths += glob.glob(os.path.join(here, os.pardir, "bench", "fans", "*.json"))
    for path in sorted(paths):
        fan = build_fan(load_fan_file(path))
        for sigma in fan.cones:
            for tau in fan.faces_of(sigma):
                yield canonical_surjection(sigma.character_quotient(), tau.character_quotient())


def test_selection_maps_apply_as_their_matrix():
    rng = random.Random(8)
    kinds = set()
    for phi in restrictions_of_every_fan_file():
        # maps whose rows are all unit vectors select coordinates
        kinds.add(all(row.count(1) == 1 and row.count(0) == len(row) - 1 for row in phi.matrix.rows))
        m = phi.source.coords_len
        for _ in range(3):
            v = tuple(rng.randint(-5, 5) for _ in range(m))
            assert phi.apply(v) == phi.matrix.apply(v)
            assert phi.apply(list(v)) == phi.matrix.apply(v)
        for wrong in ((0,) * (m + 1), (0,) * (m - 1) if m else None):
            if wrong is not None:
                with pytest.raises(ValueError, match="vector length"):
                    phi.apply(wrong)
    assert kinds == {True, False}


def test_torsion_targets_still_reduce():
    # Z^2 onto Z/2 + Z: unit rows, but the target is not free
    ambient = Lattice(2)
    source = quotient(ambient, IntMatrix.zero(0, 2))
    target = quotient(ambient, IntMatrix([(2, 0)]))
    phi = canonical_surjection(source, target)
    assert target.invariant_factors == (2,)
    seen = set()
    for v in product(range(-3, 4), repeat=2):
        image = phi.apply(v)
        assert image == target.reduce(phi.matrix.apply(v)) == target.project(v)
        assert 0 <= image[0] < 2
        seen.add(image != phi.matrix.apply(v))
    assert seen == {True, False}
    with pytest.raises(ValueError):
        phi.apply((1, 2, 3))


def test_free_reduce_keeps_the_coordinates_and_checks_their_length():
    q = quotient(Lattice(3), IntMatrix([(1, 1, 0)]))
    assert q.is_free and q.coords_len == 2
    assert q.reduce([7, -4]) == (7, -4)
    with pytest.raises(ValueError, match="length"):
        q.reduce((1, 2, 3))


def test_identity_and_compositions_of_selections_are_selections():
    q = quotient(Lattice(3), IntMatrix.zero(0, 3))
    ident = QuotientSurjection(q, q, IntMatrix.identity(3))
    onto = canonical_surjection(q, quotient(Lattice(3), IntMatrix([(0, 1, 0)])))
    assert onto.matrix == IntMatrix([(1, 0, 0), (0, 0, 1)])
    both = QuotientSurjection(q, onto.target, onto.matrix @ ident.matrix)
    assert both.matrix == onto.matrix
    assert both.apply((4, 5, 6)) == onto.apply((4, 5, 6)) == (4, 6)


@pytest.mark.parametrize("n", range(5))
def test_adjugate_times_matrix_is_the_determinant(n):
    rng = random.Random(n)
    for _ in range(50):
        a = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)], ncols=n)
        scaled = IntMatrix([[det(a) * (i == j) for j in range(n)] for i in range(n)], ncols=n)
        assert a @ adjugate(a) == scaled == adjugate(a) @ a


def test_smith_kernel_is_the_kernel_and_the_smith_diagonal():
    rng = random.Random(3)
    for _ in range(100):
        m, n = rng.randint(0, 4), rng.randint(1, 4)
        a = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)], ncols=n)
        perp, diagonal = smith_kernel(a)
        _, d, _ = snf(a)
        assert perp == kernel(a)
        assert diagonal == tuple(d.rows[i][i] for i in range(min(m, n)))


def test_identity_is_one_kept_instance_per_size():
    assert IntMatrix.identity(3) is IntMatrix.identity(3)
    assert IntMatrix.identity(2) == IntMatrix([[1, 0], [0, 1]])
    assert IntMatrix.identity(0).shape == (0, 0)
