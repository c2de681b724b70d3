"""Exact integer linear algebra.

Everything runs over arbitrary-precision Python ints; there is not a
single float in this module.  Smith normal form is the engine behind
quotient lattices (with torsion), integer kernels, and solvability of
``A x = b`` over the integers.  Geometry matrices are small (ambient
rank is capped at 4).  Since smooth fans split per cone, only the
non-smooth search and sampler (``kfan.support_solver``) hand it sparse
systems, of a few hundred rows and columns with mostly 0/+-1 entries.
So the reduction
  - tracks only the transforms its caller reads;
  - in its pivot search, skips zero entries (and so zero rows) at C
    speed, so that in a sparse row only the nonzero entries up to the
    first unit are looked at;
  - adds a multiple of one row to another through the nonzero entries
    only;
  - once column t is cleared below the pivot, clears row t with column
    operations that change row t alone, until a gcd step (which mixes
    column t with another) sends it back to the general update.
``solve_factored`` applies one reduction to many right-hand sides.
None of this changes the sequence of operations: the pivot is still
the first unit in row-major order, else the first nonzero entry of
smallest magnitude, and the rows a single-row column step skips are
ones the general update leaves unchanged.  So D, U and V are those of
the plain reduction, whichever transforms are tracked.

All values are immutable after construction and every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, islice
from math import gcd
from operator import index, itemgetter, mul
from typing import Iterable, Optional, Sequence

Vec = tuple[int, ...]


class NotASubquotient(Exception):
    """No canonical surjection exists between the given quotients."""


class CertificateError(Exception):
    """A witness failed its exact re-check; raised instead of returning
    a wrong certificate."""


def as_vec(v: Iterable[int]) -> Vec:
    """v as a tuple of ints; a float or other non-integer raises
    ``TypeError``, never truncated."""
    return tuple(map(index, v))


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError(f"dot of length {len(u)} with length {len(v)}")
    return sum(map(mul, u, v))


def vec_add(u: Sequence[int], v: Sequence[int]) -> Vec:
    return tuple(a + b for a, b in zip(u, v))

def vec_sub(u: Sequence[int], v: Sequence[int]) -> Vec:
    return tuple(a - b for a, b in zip(u, v))

def vec_neg(u: Sequence[int]) -> Vec:
    return tuple(-a for a in u)


def plus_minus(rows: Iterable[Vec]) -> list[Vec]:
    """Each row followed by its negative: l_1, -l_1, l_2, -l_2, ..."""
    return [v for l in rows for v in (l, vec_neg(l))]


def primitive(v: Sequence[int]) -> Vec | None:
    """The integer vector v divided by the gcd of its entries; None for
    the zero vector."""
    g = gcd(*v)
    if g == 0:
        return None
    return tuple(v) if g == 1 else tuple(x // g for x in v)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


class IntMatrix:
    """Immutable integer matrix, stored row-major as nested tuples."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Iterable[Iterable[int]], ncols: int | None = None):
        rows = tuple(as_vec(r) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError(f"declared {ncols} columns, rows have {width}")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    @classmethod
    def _trusted(cls, rows: tuple[Vec, ...], ncols: int) -> "IntMatrix":
        """Wrap rows that are already a tuple of int tuples of length
        ``ncols``, without copying or checking them."""
        self = object.__new__(cls)
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols
        return self

    @classmethod
    @lru_cache(maxsize=None)
    def identity(cls, n: int) -> "IntMatrix":
        """The n x n identity: one kept instance per size, since the
        matrices are immutable."""
        return cls(_eye(n), ncols=n)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls([[0] * ncols for _ in range(nrows)], ncols=ncols)

    def row(self, i: int) -> Vec:
        return self.rows[i]

    def transpose(self) -> "IntMatrix":
        if not self.rows:
            return IntMatrix._trusted(((),) * self.ncols, 0)
        return IntMatrix._trusted(tuple(zip(*self.rows)), self.nrows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        cols = tuple(zip(*other.rows)) or ((),) * other.ncols
        return IntMatrix._trusted(
            tuple([tuple([sum(map(mul, r, c)) for c in cols]) for r in self.rows]),
            other.ncols,
        )

    def apply(self, v: Sequence[int]) -> Vec:
        """Matrix times column vector."""
        if len(v) != self.ncols:
            raise ValueError(f"vector length {len(v)}, matrix has {self.ncols} cols")
        return tuple([sum(map(mul, r, v)) for r in self.rows])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in r) for r in self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]}, ncols={self.ncols})"


def det(a: IntMatrix) -> int:
    """Exact determinant of a square matrix (``_det`` on its rows)."""
    if a.nrows != a.ncols:
        raise ValueError("determinant of a non-square matrix")
    return _det(a.rows)


def _det(rows: Sequence[Vec]) -> int:
    """The determinant of a square tuple of rows: a closed form up to
    3 x 3, fraction-free (Bareiss) elimination above."""
    n = len(rows)
    if n <= 3:
        if n == 0:
            return 1
        if n == 1:
            return rows[0][0]
        if n == 2:
            (p, q), (r, s) = rows
            return p * s - q * r
        (p, q, r), (s, t, u), (v, w, x) = rows
        return p * (t * x - u * w) - q * (s * x - u * v) + r * (s * w - t * v)
    r, pivot = _bareiss(rows, n)
    return pivot if r == n else 0


def _bareiss(rows: Sequence[Vec], ncols: int) -> tuple[int, int]:
    """Fraction-free (Bareiss) row elimination: the rank, and the last
    pivot signed by the row swaps, which is the determinant of a square
    matrix of full rank.

    Every entry below the pivot rows is a minor of the input, so each
    division by the previous pivot is exact and the entries stay as
    small as those minors.
    """
    m = [list(r) for r in rows if any(r)]
    n = len(m)
    r = 0
    prev = sign = 1
    for c in range(ncols):
        pivot = next((i for i in range(r, n) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for i in range(r + 1, n):
            row = m[i]
            x = row[c]
            m[i] = [(p * row[j] - x * top[j]) // prev for j in range(ncols)]
        prev = p
        r += 1
        if r == n:
            break
    return r, sign * prev


def _cross(rows: Sequence[Vec]) -> list[int]:
    """The generalised cross product of n - 1 rows of length n: entry j
    is (-1)^j times the minor without column j, so that it is zero on
    every row; a closed form up to n = 3 (the cross product there)."""
    n = len(rows) + 1
    if n == 1:
        return [1]
    if n == 2:
        ((a, b),) = rows
        return [b, -a]
    if n == 3:
        (a, b, c), (p, q, r) = rows
        return [b * r - c * q, c * p - a * r, a * q - b * p]
    return [
        -m if j % 2 else m
        for j, m in enumerate(_det([r[:j] + r[j + 1:] for r in rows]) for j in range(n))
    ]


def adjugate(a: IntMatrix) -> IntMatrix:
    """The adjugate of a square matrix: entry (i, j) is (-1)^(i+j) times
    the minor of ``a`` without row j and column i, so that a @
    adjugate(a) = det(a) I.  For det(a) = +-1 the inverse is det(a) *
    adjugate(a).  Column j is the generalised cross product of the rows
    other than j (``_cross``), signed by (-1)^j: meant for the small
    matrices of the geometry layer."""
    if a.nrows != a.ncols:
        raise ValueError("adjugate of a non-square matrix")
    rows = a.rows
    columns = (_cross(rows[:j] + rows[j + 1:]) for j in range(len(rows)))
    columns = [[-x for x in c] if j % 2 else c for j, c in enumerate(columns)]
    return IntMatrix._trusted(tuple(zip(*columns)), a.ncols)


def _eye(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mix(rows: list[list[int]], i: int, j: int, p: int, q: int, r: int, s: int) -> None:
    """Replace rows x = rows[i] and y = rows[j] by p*x + q*y and r*x + s*y.

    Swaps move the two lists; an elementary operation (one row kept, the
    other plus a multiple of it) updates one list in place, touching only
    the nonzero entries of the added row, which are few in sparse systems.
    """
    x, y = rows[i], rows[j]
    if p == 1 and q == 0 and s == 1:
        for c in compress(range(len(x)), x):
            y[c] += r * x[c]
    elif r == 0 and s == 1 and p == 1:
        for c in compress(range(len(y)), y):
            x[c] += q * y[c]
    elif p == 0 and q == 1 and r == 1 and s == 0:
        rows[i], rows[j] = y, x
    else:
        rows[i] = [p * a + q * b for a, b in zip(x, y)]
        rows[j] = [r * a + s * b for a, b in zip(x, y)]


TRANSFORMS = ("u", "v", "uinv")


class _SmithWorkspace:
    """Mutable state for the Smith reduction.

    ``d`` starts as a copy of a0.  Each transform named in ``keep`` is
    tracked, the others are None and never touched.  Invariants kept by
    every operation, for the tracked transforms:
        u @ a0 @ v == d,   uinv @ u == I.
    Column operations on v and uinv are row operations on their
    transposes, so those two are stored transposed (``vt``, ``uinvt``).
    """

    def __init__(self, a: IntMatrix, keep: frozenset[str]):
        self.m, self.n = m, n = a.nrows, a.ncols
        self.d = [list(r) for r in a.rows]
        self.u = _eye(m) if "u" in keep else None
        self.uinvt = _eye(m) if "uinv" in keep else None
        self.vt = _eye(n) if "v" in keep else None
        # column ``clean`` of d is zero below row ``clean``; -1 when no
        # column is known to be
        self.clean = -1

    def row_block(self, i: int, j: int, p: int, q: int, r: int, s: int) -> None:
        """Left-multiply rows (i, j) of d by ((p,q),(r,s)); det must be +-1."""
        e = p * s - q * r
        if e not in (1, -1):
            raise CertificateError(f"row operation of determinant {e} is not unimodular")
        _mix(self.d, i, j, p, q, r, s)
        self.clean = -1
        if self.u is not None:
            _mix(self.u, i, j, p, q, r, s)
        # uinv <- uinv @ block^{-1}, block^{-1} = e * ((s,-q),(-r,p))
        if self.uinvt is not None:
            _mix(self.uinvt, i, j, e * s, -e * r, -e * q, e * p)

    def col_block(self, i: int, j: int, p: int, q: int, r: int, s: int) -> None:
        """Right-multiply cols (i, j) of d by ((p,q),(r,s)); det must be +-1."""
        e = p * s - q * r
        if e not in (1, -1):
            raise CertificateError(f"column operation of determinant {e} is not unimodular")
        if i == self.clean and r == 0 and s == 1:
            # column i is zero below row i, so col_j += q * col_i changes
            # row i alone and column i stays clean
            row = self.d[i]
            row[i], row[j] = p * row[i], q * row[i] + row[j]
        else:
            # the rows above i are zero in both columns: the reduction
            # combines columns i < j only right of the pivots it has
            # already isolated
            self.clean = -1
            for row in self.d[i:]:
                ci, cj = row[i], row[j]
                if ci or cj:
                    row[i] = p * ci + r * cj
                    row[j] = q * ci + s * cj
        if self.vt is not None:
            _mix(self.vt, i, j, p, r, q, s)

    def negate_row(self, i: int) -> None:
        for mat in (self.d, self.u, self.uinvt):
            if mat is not None:
                mat[i] = [-x for x in mat[i]]

    def clear_col_entry(self, t: int, k: int) -> None:
        a, b = self.d[t][t], self.d[k][t]
        if a != 0 and b % a == 0:
            # elementary op keeps the pivot row untouched (no oscillation)
            self.row_block(t, k, 1, 0, -b // a, 1)
        else:
            g, x, y = xgcd(a, b)
            self.row_block(t, k, x, y, -b // g, a // g)

    def clear_row_entry(self, t: int, k: int) -> None:
        a, b = self.d[t][t], self.d[t][k]
        if a != 0 and b % a == 0:
            self.col_block(t, k, 1, -b // a, 0, 1)
        else:
            g, x, y = xgcd(a, b)
            self.col_block(t, k, x, -b // g, y, a // g)


def _wrap_rows(rows, ncols: int) -> IntMatrix:
    return IntMatrix._trusted(tuple(map(tuple, rows)), ncols)


def _wrap_transposed(square) -> IntMatrix:
    return IntMatrix._trusted(tuple(zip(*square)), len(square))


def smith_with_inverses(
    a: IntMatrix, *, keep: Iterable[str] = TRANSFORMS
) -> tuple[Optional[IntMatrix], IntMatrix, Optional[IntMatrix], Optional[IntMatrix]]:
    """Smith normal form with the inverse of the row transform.

    Returns (U, D, V, Uinv) with U*a*V = D, D diagonal with
    d1 | d2 | ... and di >= 0, U and V unimodular.  ``keep`` names the
    transforms to compute (a subset of ``TRANSFORMS``); the others come
    back as None.  D and every kept transform are the same whatever is
    kept: the operations on D do not depend on ``keep``.
    """
    keep = frozenset(keep)
    if not keep <= frozenset(TRANSFORMS):
        raise ValueError(f"unknown transforms {sorted(keep - frozenset(TRANSFORMS))}")
    ws = _SmithWorkspace(a, keep)
    m, n = ws.m, ws.n
    d = ws.d

    t = 0
    while t < min(m, n):
        # pick the smallest-magnitude nonzero pivot to limit entry swell,
        # the first in row-major order; a unit cannot be beaten, so the
        # scan stops at the first one.  Zero entries, and so zero rows,
        # are skipped at C speed.
        best = 0
        for i in range(t, m):
            row = d[i]
            for j in compress(range(t, n), islice(row, t, None)):
                x = abs(row[j])
                if not best or x < best:
                    best, pi, pj = x, i, j
                    if x == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        if pi != t:
            ws.row_block(t, pi, 0, 1, 1, 0)
        if pj != t:
            ws.col_block(t, pj, 0, 1, 1, 0)
        while True:
            for k in range(t + 1, m):
                if d[k][t] != 0:
                    ws.clear_col_entry(t, k)
            # column t is now zero below the pivot
            ws.clean = t
            for k in range(t + 1, n):
                if d[t][k] != 0:
                    ws.clear_row_entry(t, k)
            if (ws.clean == t or all(d[k][t] == 0 for k in range(t + 1, m))) and not any(
                d[t][t + 1:]
            ):
                break
        t += 1

    # enforce the divisibility chain d1 | d2 | ... by adjacent passes
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            a_i, b_i = d[i][i], d[i + 1][i + 1]
            if b_i % a_i != 0:
                changed = True
                ws.col_block(i, i + 1, 1, 0, 1, 1)  # col_i += col_{i+1}
                while d[i + 1][i] != 0 or d[i][i + 1] != 0:
                    if d[i + 1][i] != 0:
                        ws.clear_col_entry(i, i + 1)
                    if d[i][i + 1] != 0:
                        ws.clear_row_entry(i, i + 1)

    for i in range(t):
        if d[i][i] < 0:
            ws.negate_row(i)

    return (
        None if ws.u is None else _wrap_rows(ws.u, m),
        _wrap_rows(d, n),
        None if ws.vt is None else _wrap_transposed(ws.vt),
        None if ws.uinvt is None else _wrap_transposed(ws.uinvt),
    )


def snf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: U*a*V = D, D diagonal, d1 | d2 | ..., di >= 0."""
    u, d, v, _ = smith_with_inverses(a, keep=("u", "v"))
    return u, d, v


def rank(a: IntMatrix) -> int:
    """The rank, by fraction-free elimination (``_bareiss``)."""
    return _bareiss(a.rows, a.ncols)[0]


def normal_vector(a: IntMatrix) -> Vec | None:
    """The primitive generator of the kernel of an (n-1) x n matrix of
    rank n-1, or None when the rank is lower.

    Up to sign and the gcd of its entries, the kernel is spanned by the
    generalised cross product of the rows (``_cross``), which is nonzero
    exactly when the rows are independent.  ``primitive`` divides it by
    the gcd of its entries, which saturates it, so the result is +- the
    one row of ``kernel(a)``.
    """
    if a.nrows != a.ncols - 1:
        raise ValueError(f"normal vector of a {a.nrows} x {a.ncols} matrix")
    return primitive(_cross(a.rows))


def kernel(a: IntMatrix) -> IntMatrix:
    """Rows generate {x : a @ x = 0}; the result is a basis of a saturated
    sublattice of Z^ncols (possibly with zero rows, i.e. trivial kernel)."""
    return smith_kernel(a)[0]


def smith_kernel(a: IntMatrix) -> tuple[IntMatrix, tuple[int, ...]]:
    """``kernel(a)`` and the diagonal d_1 | d_2 | ... of the Smith form
    of ``a``, from one reduction."""
    _, d, v, _ = smith_with_inverses(a, keep=("v",))
    n = a.ncols
    diagonal = tuple(d.rows[i][i] for i in range(min(a.nrows, n)))
    # column j of V is in the kernel iff the diagonal entry d_j is
    # absent (j >= nrows) or zero
    free = [j for j in range(n) if j >= len(diagonal) or diagonal[j] == 0]
    columns = v.transpose().rows
    return IntMatrix._trusted(tuple(columns[j] for j in free), n), diagonal


def solve(a: IntMatrix, b: Sequence[int]) -> Optional[Vec]:
    """Any integer solution x of a @ x = b, or None when there is none."""
    u, d, v, _ = smith_with_inverses(a, keep=("u", "v"))
    return solve_factored(u, d, v, b)


def solve_factored(
    u: IntMatrix, d: IntMatrix, v: IntMatrix, b: Sequence[int]
) -> Optional[Vec]:
    """``solve(a, b)`` from the Smith factors U*a*V = D of a, so that one
    reduction serves many right-hand sides."""
    m, n = d.nrows, d.ncols
    if len(b) != m:
        raise ValueError(f"rhs length {len(b)}, matrix has {m} rows")
    c = u.apply(b)
    y = [0] * n
    for i in range(m):
        di = d.rows[i][i] if i < min(m, n) else 0
        if di != 0:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
        elif c[i] != 0:
            return None
    return v.apply(y)


def in_row_span(a: IntMatrix, v: Sequence[int]) -> bool:
    """Is v an integer combination of the rows of a?  Tested API, no library caller."""
    return solve(a.transpose(), v) is not None


@dataclass(frozen=True)
class Lattice:
    """The free abelian group Z^rank with its standard basis."""

    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")

    def dual(self) -> "Lattice":
        return Lattice(self.rank)

    def zero(self) -> Vec:
        return (0,) * self.rank


class QuotientLattice:
    """Z^n modulo the subgroup generated by the rows of ``relations``.

    Normal-form coordinates are torsion coordinates (one per invariant
    factor > 1, reduced into [0, d_i)) followed by free coordinates, so
    equality of quotient elements is plain tuple comparison.  ``projection``
    maps ambient vectors onto raw coordinates (reduce afterwards);
    ``section`` is a right inverse used to lift coordinates back to the
    ambient lattice.  Build it through ``quotient``, which keeps one per
    (ambient, relations): a group is its object, so one built by hand
    with the same fields is a different group.
    """

    __slots__ = (
        "ambient",
        "relations",
        "invariant_factors",
        "free_rank",
        "projection",
        "section",
    )

    def __init__(
        self,
        ambient: Lattice,
        relations: IntMatrix,
        invariant_factors: tuple[int, ...],
        free_rank: int,
        projection: IntMatrix,
        section: IntMatrix,
    ):
        self.ambient = ambient
        self.relations = relations
        self.invariant_factors = invariant_factors
        self.free_rank = free_rank
        self.projection = projection
        self.section = section

    @property
    def coords_len(self) -> int:
        return len(self.invariant_factors) + self.free_rank

    @property
    def is_free(self) -> bool:
        return not self.invariant_factors

    @property
    def is_zero(self) -> bool:
        return self.coords_len == 0

    def zero(self) -> Vec:
        return (0,) * self.coords_len

    def reduce(self, coords: Sequence[int]) -> Vec:
        if len(coords) != self.coords_len:
            raise ValueError("bad coordinate length")
        if not self.invariant_factors:
            return tuple(coords)  # free coordinates are their own normal form
        t = len(self.invariant_factors)
        return tuple(
            c % d for c, d in zip(coords[:t], self.invariant_factors)
        ) + tuple(coords[t:])

    def project(self, v: Sequence[int]) -> Vec:
        return self.reduce(self.projection.apply(v))

    def lift(self, coords: Sequence[int]) -> Vec:
        """An ambient vector mapping to the given coordinates."""
        return self.section.apply(coords)

    def add(self, a: Sequence[int], b: Sequence[int]) -> Vec:
        return self.reduce(vec_add(a, b))

    def is_relation(self, v: Sequence[int]) -> bool:
        return self.project(v) == self.zero()

    def __repr__(self) -> str:
        parts = [f"Z/{d}" for d in self.invariant_factors]
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        return "QuotientLattice(" + (" + ".join(parts) if parts else "0") + ")"


@lru_cache(maxsize=None)
def quotient(ambient: Lattice, relations: IntMatrix) -> QuotientLattice:
    """The quotient of Z^n by the subgroup generated by the relation rows:
    one kept instance per (ambient, relations), since both and the
    result are immutable, so every reader of a perp lattice shares its
    group and its one Smith reduction.  Group-ring elements compare
    their groups by identity, so equal relations must give this one
    instance."""
    if relations.ncols != ambient.rank:
        raise ValueError(
            f"relations have {relations.ncols} columns, ambient rank is {ambient.rank}"
        )
    n, r = ambient.rank, relations.nrows
    u, d, _, uinv = smith_with_inverses(relations.transpose(), keep=("u", "uinv"))
    k = min(n, r)
    diag = [d.rows[i][i] for i in range(k)]
    torsion_idx = [i for i in range(k) if diag[i] > 1]
    free_idx = [i for i in range(n) if i >= k or diag[i] == 0]
    kept = torsion_idx + free_idx
    projection = IntMatrix([u.row(i) for i in kept], ncols=n)
    section = IntMatrix(
        [[uinv.rows[row][i] for i in kept] for row in range(n)], ncols=len(kept)
    )
    return QuotientLattice(
        ambient,
        relations,
        tuple(diag[i] for i in torsion_idx),
        len(free_idx),
        projection,
        section,
    )


class QuotientSurjection:
    """A surjection between quotients of the same ambient lattice,
    expressed in normal-form coordinates: ``apply`` multiplies by the
    matrix and reduces the image onto a torsion target."""

    __slots__ = ("source", "target", "matrix", "_splitting")

    def __init__(self, source: QuotientLattice, target: QuotientLattice, matrix: IntMatrix):
        self.source = source
        self.target = target
        self.matrix = matrix
        self._splitting = None

    @property
    def splitting(self) -> IntMatrix | None:
        """A right inverse of the map onto a free target: the source's
        projection after the target's section, built from the map's own
        source and target on the first read, so that only a caller that
        lifts pays for it, and ``CertificateError`` unless matrix *
        splitting = I.  None onto a torsion target, where ``lift``
        raises; no sheaf restriction is one, as every stalk is free."""
        if self._splitting is None and self.target.is_free:
            splitting = self.source.projection @ self.target.section
            if self.matrix @ splitting != IntMatrix.identity(self.target.coords_len):
                raise CertificateError("splitting is not a right inverse of the surjection")
            self._splitting = splitting
        return self._splitting

    def apply(self, coords: Sequence[int]) -> Vec:
        image = self.matrix.apply(coords)
        # on a free target the raw image is already in normal form
        return self.target.reduce(image) if self.target.invariant_factors else image

    def lift(self, coords: Sequence[int]) -> Vec:
        splitting = self.splitting
        if splitting is None:
            raise ValueError("no splitting (target is not free)")
        return self.source.reduce(splitting.apply(coords))

    def __repr__(self) -> str:
        return f"QuotientSurjection({self.source!r} -> {self.target!r})"


def picker(positions: Sequence[int]):
    """The map taking a tuple v to (v[p] for p in positions), compiled
    into one ``operator.itemgetter``: a tuple for every length, where a
    bare itemgetter of one position returns the entry itself and one of
    none cannot be built."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(slice(0, 0))


def applier(a: IntMatrix):
    """The map taking v to [row . v for each row of a] for a square
    matrix a, with no length check.  Sizes 1 to 3, the ranks of every
    benchmarked fan, are unrolled, their entries unpacked into closure
    variables: about five times faster per vector than
    ``IntMatrix.apply``.  Other sizes take the row products."""
    rows, n = a.rows, a.nrows
    if n == 1:
        ((a0,),) = rows
        return lambda v: [a0 * v[0]]
    if n == 2:
        (a0, a1), (b0, b1) = rows
        return lambda v: [a0 * v[0] + a1 * v[1], b0 * v[0] + b1 * v[1]]
    if n == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
        def apply3(v):
            x, y, z = v
            return [a0 * x + a1 * y + a2 * z, b0 * x + b1 * y + b2 * z, c0 * x + c1 * y + c2 * z]
        return apply3
    return lambda v: [sum(map(mul, r, v)) for r in rows]


def canonical_surjection(
    source: QuotientLattice, target: QuotientLattice
) -> QuotientSurjection:
    """The map M/S -> M/S' induced by the identity of M, for S <= S'.

    Raises NotASubquotient when the source relations do not lie in the
    subgroup generated by the target relations, and ``CertificateError``
    unless phi . source.project == target.project on the basis of M.
    No splitting is built here: ``QuotientSurjection.splitting`` builds
    and checks one on its first read.
    """
    if source.ambient != target.ambient:
        raise NotASubquotient("different ambient lattices")
    # the target's projection is read off the Smith form of its relations,
    # so it vanishes exactly on their row span: no further reduction
    for row in source.relations.rows:
        if not target.is_relation(row):
            raise NotASubquotient(f"relation {row} not in target relations")
    phi = QuotientSurjection(source, target, target.projection @ source.section)
    # cross-check: phi . source.project == target.project on the ambient
    # basis, whose raw images under the projections are their columns
    columns = zip(source.projection.transpose().rows, target.projection.transpose().rows)
    for image, expected in columns:
        if phi.apply(source.reduce(image)) != target.reduce(expected):
            raise CertificateError("surjection does not commute with the projections")
    return phi

