"""Property tests for the Smith normal form engine.

Random matrices come in two kinds: dense ones with large entries, and
sparse ones with mostly 0/+-1 entries, like the blocks of the
expanding-support solver.  Every partial-transform request must give
the same U, D and V as the full reduction, and those must match a
reference reduction that tracks every transform and scans every pivot
candidate, so that the lean engine performs the same operations.

Larger sparse systems (up to 40 x 48, like the sampled cocycle systems)
have many zero rows, long runs of unit pivots, and rows without units,
so that the engine's zero-row skip, its first-unit search and its
single-row column step after a clean column phase all meet the
reference, including where a non-unit pivot or a gcd step follows.
"""

from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kfan.intlinalg import (
    TRANSFORMS,
    IntMatrix,
    Lattice,
    applier,
    canonical_surjection,
    det,
    kernel,
    quotient,
    smith_with_inverses,
    solve,
    solve_factored,
    xgcd,
)

DENSE = st.integers(-(10**6), 10**6)
SPARSE = st.sampled_from([0, 0, 0, 0, 0, 0, 1, -1, 1, -1, 2, -3])

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def matrices(draw, max_rows=8, max_cols=10):
    m = draw(st.integers(0, max_rows))
    n = draw(st.integers(0, max_cols))
    entry = draw(st.sampled_from([DENSE, SPARSE]))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    return IntMatrix(rows, ncols=n)


UNIT_ENTRIES = st.sampled_from([1, -1, 1, -1, 2, -3])
NON_UNIT_ENTRIES = st.sampled_from([2, -2, 3, 4, -6])


@st.composite
def sparse_systems(draw, max_rows=40, max_cols=48):
    """Rows that are zero, sparse with mostly unit entries, or sparse
    with no unit at all; each nonzero row has at most five entries."""
    m = draw(st.integers(0, max_rows))
    n = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["zero", "units", "units", "non-units"]))
        row = [0] * n
        if kind != "zero":
            values = UNIT_ENTRIES if kind == "units" else NON_UNIT_ENTRIES
            for col, x in draw(
                st.lists(st.tuples(st.integers(0, n - 1), values), min_size=1, max_size=5)
            ):
                row[col] = x
        rows.append(row)
    return IntMatrix(rows, ncols=n)


SPARSE_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _reference_smith(a: IntMatrix):
    """Smith reduction with all three transforms updated entry by entry
    and a pivot scan over the whole remaining submatrix."""
    m, n = a.nrows, a.ncols
    d = [list(r) for r in a.rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    uinv = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_block(i, j, p, q, r, s):
        e = p * s - q * r
        for mat in (d, u):
            ri, rj = mat[i], mat[j]
            for c in range(len(ri)):
                ri[c], rj[c] = p * ri[c] + q * rj[c], r * ri[c] + s * rj[c]
        for row in uinv:
            ci, cj = row[i], row[j]
            row[i], row[j] = e * (s * ci - r * cj), e * (-q * ci + p * cj)

    def col_block(i, j, p, q, r, s):
        for mat in (d, v):
            for row in mat:
                ci, cj = row[i], row[j]
                row[i], row[j] = p * ci + r * cj, q * ci + s * cj

    def clear_col_entry(t, k):
        x, y = d[t][t], d[k][t]
        if x != 0 and y % x == 0:
            row_block(t, k, 1, 0, -y // x, 1)
        else:
            g, p, q = xgcd(x, y)
            row_block(t, k, p, q, -y // g, x // g)

    def clear_row_entry(t, k):
        x, y = d[t][t], d[t][k]
        if x != 0 and y % x == 0:
            col_block(t, k, 1, -y // x, 0, 1)
        else:
            g, p, q = xgcd(x, y)
            col_block(t, k, p, -y // g, q, x // g)

    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (pivot is None or abs(d[i][j]) < abs(d[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            row_block(t, pivot[0], 0, 1, 1, 0)
        if pivot[1] != t:
            col_block(t, pivot[1], 0, 1, 1, 0)
        while any(d[k][t] for k in range(t + 1, m)) or any(d[t][k] for k in range(t + 1, n)):
            for k in range(t + 1, m):
                if d[k][t] != 0:
                    clear_col_entry(t, k)
            for k in range(t + 1, n):
                if d[t][k] != 0:
                    clear_row_entry(t, k)
        t += 1
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            if d[i + 1][i + 1] % d[i][i] != 0:
                changed = True
                col_block(i, i + 1, 1, 0, 1, 1)
                while d[i + 1][i] != 0 or d[i][i + 1] != 0:
                    if d[i + 1][i] != 0:
                        clear_col_entry(i, i + 1)
                    if d[i][i + 1] != 0:
                        clear_row_entry(i, i + 1)
    for i in range(t):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]
            for row in uinv:
                row[i] = -row[i]
    return tuple(
        IntMatrix(mat, ncols=cols)
        for mat, cols in ((u, m), (d, n), (v, n), (uinv, m))
    )


@SETTINGS
@given(matrices())
def test_full_reduction_matches_reference(a):
    assert smith_with_inverses(a) == _reference_smith(a)


@SETTINGS
@given(matrices(), st.sets(st.sampled_from(TRANSFORMS)))
def test_partial_requests_agree_with_full(a, keep):
    full = smith_with_inverses(a)
    partial = smith_with_inverses(a, keep=keep)
    assert partial[1] == full[1]
    for index, name in ((0, "u"), (2, "v"), (3, "uinv")):
        assert partial[index] == (full[index] if name in keep else None)


@SPARSE_SETTINGS
@given(sparse_systems())
def test_sparse_system_reduction_matches_reference(a):
    assert smith_with_inverses(a) == _reference_smith(a)


@SPARSE_SETTINGS
@given(sparse_systems(), st.sets(st.sampled_from(TRANSFORMS)))
def test_sparse_system_partial_requests_agree_with_full(a, keep):
    full = smith_with_inverses(a)
    partial = smith_with_inverses(a, keep=keep)
    assert partial[1] == full[1]
    for index, name in ((0, "u"), (2, "v"), (3, "uinv")):
        assert partial[index] == (full[index] if name in keep else None)


def test_non_unit_pivot_after_a_clean_column_phase():
    # a unit pivot, then a block without units: the pivot 2 clears 4
    # with an elementary column step and 3 with a gcd step
    a = IntMatrix([[1, 0, 0, 1], [0, 0, 0, 0], [0, 2, 4, 3], [1, 0, 6, 0]])
    assert smith_with_inverses(a) == _reference_smith(a)


@SETTINGS
@given(matrices())
def test_transforms_diagonalise_with_divisibility_chain(a):
    u, d, v, uinv = smith_with_inverses(a)
    assert u @ a @ v == d
    assert uinv @ u == IntMatrix.identity(a.nrows)
    assert abs(det(v)) == 1
    k = min(a.nrows, a.ncols)
    assert all(
        d.rows[i][j] == 0 for i in range(d.nrows) for j in range(d.ncols) if i != j
    )
    diag = [d.rows[i][i] for i in range(k)]
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        assert (y == 0) if x == 0 else (y % x == 0)


@SETTINGS
@given(matrices())
def test_kernel_rows_are_killed(a):
    basis = kernel(a)
    assert basis.ncols == a.ncols
    for row in basis.rows:
        assert a.apply(row) == (0,) * a.nrows
    rank = sum(1 for i in range(min(a.nrows, a.ncols)) if smith_with_inverses(a)[1].rows[i][i])
    assert basis.nrows == a.ncols - rank


@SETTINGS
@given(matrices(), st.data())
def test_factored_solve_equals_solve(a, data):
    u, d, v, _ = smith_with_inverses(a, keep=("u", "v"))
    x = data.draw(st.lists(SPARSE, min_size=a.ncols, max_size=a.ncols))
    reachable = a.apply(x)
    arbitrary = tuple(data.draw(st.lists(SPARSE, min_size=a.nrows, max_size=a.nrows)))
    for b in (reachable, arbitrary):
        got = solve_factored(u, d, v, b)
        assert got == solve(a, b)
        if got is not None:
            assert a.apply(got) == tuple(b)
    assert solve_factored(u, d, v, reachable) is not None


def test_every_subset_of_transforms_on_a_fixed_matrix():
    a = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    full = smith_with_inverses(a)
    for size in range(len(TRANSFORMS) + 1):
        for keep in combinations(TRANSFORMS, size):
            got = smith_with_inverses(a, keep=keep)
            assert got[1] == full[1]
            for index, name in ((0, "u"), (2, "v"), (3, "uinv")):
                assert got[index] == (full[index] if name in keep else None)


def test_unknown_transform_name_is_rejected():
    with pytest.raises(ValueError):
        smith_with_inverses(IntMatrix([[1]]), keep=("w",))


def test_right_hand_side_of_the_wrong_length_is_rejected():
    a = IntMatrix([[1, 2], [3, 4], [5, 6]])
    u, d, v, _ = smith_with_inverses(a, keep=("u", "v"))
    with pytest.raises(ValueError):
        solve(a, (1, 2))
    with pytest.raises(ValueError):
        solve_factored(u, d, v, (1, 2, 3, 4))


# quotients: project . lift, and surjections onto free targets


@st.composite
def quotients(draw, max_rank=4, max_relations=4):
    n = draw(st.integers(1, max_rank))
    rows = draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=max_relations
        )
    )
    return quotient(Lattice(n), IntMatrix(rows, ncols=n))


def _coords(q):
    return st.lists(st.integers(-9, 9), min_size=q.coords_len, max_size=q.coords_len)


@SETTINGS
@given(quotients(), st.data())
def test_project_of_lift_is_the_identity(q, data):
    c = q.reduce(data.draw(_coords(q)))
    assert q.project(q.lift(c)) == c


@SETTINGS
@given(quotients(), st.data())
def test_surjection_onto_free_target_is_split_by_its_lift(source, data):
    # the saturation of (source relations + extra rows) gives a free target
    n = source.ambient.rank
    extra = data.draw(
        st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=2)
    )
    spanned = IntMatrix(source.relations.rows + tuple(map(tuple, extra)), ncols=n)
    target = quotient(source.ambient, kernel(kernel(spanned)))
    assert target.is_free
    phi = canonical_surjection(source, target)
    t = tuple(data.draw(_coords(target)))
    assert phi.apply(phi.lift(t)) == t
    m = data.draw(_coords(source))
    assert phi.apply(m) == target.reduce(phi.matrix.apply(m))
    with pytest.raises(ValueError):
        phi.apply(tuple(m) + (0,))


# like the ray charts of smooth cones, whose entries are mostly 0/+-1
SIGNED_UNITS = st.sampled_from([0, 0, 0, 1, -1])


@SETTINGS
@given(st.integers(0, 6), st.sampled_from([DENSE, SIGNED_UNITS]), st.data())
def test_applier_is_apply_unrolled(n, entry, data):
    # unrolled for sizes 1 to 3, the generic row products for 0 and above 3
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    a = IntMatrix(data.draw(square), ncols=n)
    v = tuple(data.draw(st.lists(st.integers(), min_size=n, max_size=n)))
    assert applier(a)(v) == list(a.apply(v))
