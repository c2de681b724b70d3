"""Property tests for the closed forms of the geometry layer.

At ambient rank <= 4 the double description finds facet normals as
generalised cross products (``normal_vector``), ranks come from
fraction-free elimination (``rank``), and equality of surjections onto
free targets is equality of matrices.  Each is compared here with the
Smith-form computation it replaced: ``kernel``, and an in-test copy of
the Smith-form ``dual_ray_generators``.  The closed forms of ``det``,
``adjugate`` and ``normal_vector`` are compared with plain cofactor
expansion.
"""

from itertools import combinations
from math import gcd

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kfan.cones import _unique_primitives, dual_ray_generators
from kfan.intlinalg import (
    IntMatrix,
    Lattice,
    QuotientSurjection,
    adjugate,
    det,
    dot,
    kernel,
    normal_vector,
    quotient,
    rank,
    vec_neg,
)

SMALL = st.integers(-3, 3)
DENSE = st.integers(-(10**6), 10**6)
SPARSE = st.sampled_from([0, 0, 0, 0, 1, -1, 2])

SETTINGS = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def rows_of_rank_at_most(draw, nrows: int, ncols: int, entry=SMALL):
    """nrows x ncols integer rows, each a combination of k random rows,
    so that low ranks (and zero rows) come up often."""
    k = draw(st.integers(0, min(nrows, ncols)))
    if draw(st.booleans()):
        return [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    base = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(k)]
    rows = []
    for _ in range(nrows):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        rows.append([sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(ncols)])
    return rows


@st.composite
def normal_inputs(draw):
    """(n-1) x n matrices, n <= 4, small, sparse or large entries."""
    n = draw(st.integers(1, 4))
    entry = draw(st.sampled_from([SMALL, SPARSE, DENSE]))
    return IntMatrix(draw(rows_of_rank_at_most(n - 1, n, entry)), ncols=n)


@given(normal_inputs())
@SETTINGS
def test_normal_vector_is_the_saturated_kernel(a):
    u = normal_vector(a)
    ker = kernel(a)
    if ker.nrows != 1:
        assert u is None
    else:
        assert u in (ker.row(0), vec_neg(ker.row(0)))


def test_normal_vector_cases():
    assert normal_vector(IntMatrix([], ncols=1)) == (1,)
    assert normal_vector(IntMatrix([[0, 0]])) is None
    assert normal_vector(IntMatrix([[2, 4]])) in ((2, -1), (-2, 1))
    assert normal_vector(IntMatrix([[1, 0, 0], [2, 0, 0]])) is None
    # the cross product (0, 0, 6) of these rows is not primitive
    assert normal_vector(IntMatrix([[2, 0, 0], [0, 3, 0]])) in ((0, 0, 1), (0, 0, -1))
    big = 10**6
    assert normal_vector(IntMatrix([[big, 0, 0, 0], [0, big, 0, 0], [0, 0, big, 0]])) in (
        (0, 0, 0, 1),
        (0, 0, 0, -1),
    )


@given(
    st.integers(0, 8).flatmap(
        lambda m: st.integers(0, 6).flatmap(
            lambda n: st.sampled_from([SMALL, SPARSE, DENSE]).flatmap(
                lambda e: rows_of_rank_at_most(m, n, e).map(lambda rows: IntMatrix(rows, ncols=n))
            )
        )
    )
)
@SETTINGS
def test_rank_matches_kernel(a):
    assert rank(a) == a.ncols - kernel(a).nrows


def _bareiss_det(rows):
    """Fraction-free elimination, the reference for the closed forms."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


@given(
    st.integers(0, 6).flatmap(
        lambda n: st.sampled_from([SMALL, DENSE]).flatmap(
            lambda e: rows_of_rank_at_most(n, n, e)
        )
    )
)
@SETTINGS
def test_det_matches_elimination(rows):
    # the elimination above 3 x 3 against its own copy and against
    # cofactor expansion, which shares nothing with it
    n = len(rows)
    assert det(IntMatrix(rows, ncols=n)) == _bareiss_det(rows) == _cofactor_det(rows)


def _cofactor_det(rows):
    """Plain cofactor expansion along the first row: the reference for
    the closed forms of ``det``, ``adjugate`` and ``normal_vector``."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * _cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0])
    )


def _minor(rows, i, j):
    """``rows`` without row i and column j."""
    return [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.sampled_from([SMALL, SPARSE, DENSE]).flatmap(
            lambda e: rows_of_rank_at_most(n, n, e)
        )
    )
)
@SETTINGS
def test_kernels_match_cofactor_expansion(rows):
    n = len(rows)
    a = IntMatrix(rows, ncols=n)
    d = _cofactor_det(rows)
    assert det(a) == d
    adj = adjugate(a)
    assert adj.rows == tuple(
        tuple((-1) ** (i + j) * _cofactor_det(_minor(rows, j, i)) for j in range(n))
        for i in range(n)
    )
    assert a @ adj == IntMatrix([[d * (i == j) for j in range(n)] for i in range(n)], ncols=n)
    # the rows but the last: their normal vector, None when dependent
    cross = [(-1) ** j * _cofactor_det(_minor(rows, n - 1, j)) for j in range(n)]
    g = gcd(*cross)
    expected = tuple(x // g for x in cross) if g else None
    assert normal_vector(IntMatrix(rows[:-1], ncols=n)) == expected


def _smith_dual_ray_generators(vectors, n):
    """The Smith-form double description this package used before the
    closed forms: a kernel per stacked subset."""
    vecs = _unique_primitives(vectors)
    mat = IntMatrix(vecs, ncols=n)
    lin = kernel(mat)
    d = n - lin.nrows
    if d == 0:
        return list(lin.rows), []
    pointed = set()
    for subset in combinations(range(len(vecs)), d - 1):
        stacked = IntMatrix([vecs[i] for i in subset] + list(lin.rows), ncols=n)
        ker = kernel(stacked)
        if ker.nrows != 1:
            continue
        u = ker.row(0)
        if all(dot(u, w) >= 0 for w in vecs):
            pointed.add(u)
        elif all(dot(u, w) <= 0 for w in vecs):
            pointed.add(vec_neg(u))
    return list(lin.rows), sorted(pointed)


@st.composite
def vector_sets(draw):
    n = draw(st.integers(1, 4))
    count = draw(st.integers(0, 7))
    return n, draw(rows_of_rank_at_most(count, n))


@given(vector_sets())
@SETTINGS
def test_dual_ray_generators_match_the_smith_version(case):
    n, vectors = case
    assert dual_ray_generators(vectors, n) == _smith_dual_ray_generators(vectors, n)


def _maps_equal_by_basis(phi, psi):
    """Compare the two maps on every basis vector of the source."""
    m = phi.source.coords_len
    for j in range(m):
        e = tuple(int(i == j) for i in range(m))
        if phi.apply(e) != psi.apply(e):
            return False
    return True


@st.composite
def surjection_pairs(draw, free: bool):
    """Two maps between the same quotients of Z^n; the second is the
    first plus a perturbation that is often a multiple of the target's
    invariant factors, so that torsion targets see equal maps with
    different matrices."""
    n = draw(st.integers(1, 4))
    source = quotient(Lattice(n), IntMatrix(draw(rows_of_rank_at_most(2, n)), ncols=n))
    if free:
        # a saturated sublattice gives a free quotient
        relations = kernel(IntMatrix(draw(rows_of_rank_at_most(2, n)), ncols=n))
    else:
        factors = draw(st.lists(st.integers(2, 5), min_size=1, max_size=n))
        relations = IntMatrix(
            [[f if i == j else 0 for j in range(n)] for i, f in enumerate(factors)], ncols=n
        )
    target = quotient(Lattice(n), relations)
    shape = (target.coords_len, source.coords_len)
    entries = st.lists(
        st.lists(SMALL, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
    matrix = IntMatrix(draw(entries), ncols=shape[1])
    noise = draw(entries)
    scale = draw(st.sampled_from(["zero", "factors", "any"]))
    t = len(target.invariant_factors)
    other = []
    for i, (row, extra) in enumerate(zip(matrix.rows, noise)):
        if scale == "zero" or (scale == "factors" and i >= t):
            other.append(row)
        elif scale == "factors":
            other.append([x + target.invariant_factors[i] * y for x, y in zip(row, extra)])
        else:
            other.append([x + y for x, y in zip(row, extra)])
    phi = QuotientSurjection(source, target, matrix)
    psi = QuotientSurjection(source, target, IntMatrix(other, ncols=shape[1]))
    return phi, psi


@given(st.booleans().flatmap(lambda free: surjection_pairs(free)))
@SETTINGS
def test_maps_equal_matches_the_basis_comparison(pair):
    # onto a free target ``apply`` is the matrix, so two maps agree
    # exactly when their matrices do; onto a torsion target equal
    # matrices still give equal maps
    phi, psi = pair
    same = _maps_equal_by_basis(phi, psi)
    if phi.target.is_free:
        assert same == (phi.matrix == psi.matrix)
    elif phi.matrix == psi.matrix:
        assert same
    assert _maps_equal_by_basis(phi, phi)


def test_maps_equal_on_torsion_targets_reduces_first():
    # ``apply`` reduces onto Z/3, so [[1]] and [[4]] give one map
    target = quotient(Lattice(1), IntMatrix([[3]]))
    source = quotient(Lattice(1), IntMatrix([], ncols=1))
    phi = QuotientSurjection(source, target, IntMatrix([[1]]))
    psi = QuotientSurjection(source, target, IntMatrix([[4]]))
    assert phi.matrix != psi.matrix and _maps_equal_by_basis(phi, psi)
    assert not _maps_equal_by_basis(phi, QuotientSurjection(source, target, IntMatrix([[2]])))
