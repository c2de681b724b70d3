"""Expanding-support solver for signed pushforward equations.

The unknowns are group-ring elements x_s, one per slot, and every
constraint says that a signed sum of pushforwards equals a given
right-hand side:

    sum_i  sign_i * push_{phi_i}(x_{slot_i})  =  rhs      (over Q_target)

Such systems have infinitely many coordinates, so the solver restricts
the unknowns to finite candidate supports: right-hand-side support
points are lifted into the slots through the splittings of the
surjections, each built and checked as a right inverse on its first
read here (``QuotientSurjection.splitting``).  Every surjection the
callers hand in maps onto a stalk of the structure sheaf, free of rank
the cone's dimension (``Cone.character_quotient`` certifies it), so
every one has a splitting; a map onto a torsion group would raise in
``lift`` rather than be skipped.  Then the candidate sets
are closed under the constraint maps (push a candidate to a target,
lift the image into every other participating slot) for a bounded
number of rounds.  On each round one integer linear system over the
chosen support is solved exactly; it is block-diagonal in the connected
components of the variable/equation incidence graph, and the blocks are
solved independently.

A failure to solve within the configured depth is reported as
``SolverGaveUp`` and is never a claim that no solution exists.

The same equation builder serves sampling: ``sample_nonzero_solution``
draws a random nonzero solution of the homogeneous system over random
supports: the random cocycles and sections of non-smooth fans.  Smooth
fans need neither the solver nor the sampler: they split per cone.
The order of the constraints, which fixes every draw and solution, is
the caller's (``kfan.sheaves.cover_system``'s); keys need only be
distinct and hashable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, Sequence

from .intlinalg import (
    IntMatrix,
    QuotientLattice,
    QuotientSurjection,
    kernel,
    smith_with_inverses,
    solve,
    solve_factored,
)
from .monoids import GroupRingElement


@dataclass(frozen=True)
class SolverGaveUp:
    """Outcome of an unsuccessful bounded search; carries the support
    sizes tried per round."""

    rounds: int
    support_sizes: tuple[int, ...]

    def __str__(self) -> str:
        return (
            f"solver gave up after {self.rounds} expansion rounds "
            f"(support sizes {list(self.support_sizes)})"
        )


@dataclass(frozen=True)
class Constraint:
    """sum of sign * pushforward(x_slot) over ``terms`` equals ``rhs``."""

    key: tuple
    target: QuotientLattice
    terms: tuple[tuple[Hashable, int, QuotientSurjection], ...]
    rhs: GroupRingElement


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, a):
        self.parent.setdefault(a, a)
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _initial_candidates(constraints: Sequence[Constraint]) -> dict:
    cand: dict = {}
    for c in constraints:
        for slot, _sign, phi in c.terms:
            cand.setdefault(slot, set()).update(phi.lift(t) for t in c.rhs.support())
    return cand


def _by_slot(constraints: Sequence[Constraint]) -> dict:
    """Slot -> the (constraint key, map) of each term on it, in order."""
    by_slot: dict = {}
    for c in constraints:
        for slot, _sign, phi in c.terms:
            by_slot.setdefault(slot, []).append((c.key, phi))
    return by_slot


def _expand(cand: dict, constraints: Sequence, by_slot: dict, new_targets: dict) -> None:
    """One closure round: lift every target point (``new_targets``, the
    pushed candidates and right-hand-side points per constraint key, as
    ``_equations`` found them) back into each participating slot, and
    add joint lifts -- points hitting prescribed targets of two
    constraints at once, which single splittings miss.  Each stacked
    pair of maps (``by_slot``, from ``_by_slot``) is reduced once and
    its factors serve every pair of target points."""
    ordered = {key: sorted(pts) for key, pts in new_targets.items()}
    for c in constraints:
        for t in ordered[c.key]:
            for slot, _sign, phi in c.terms:
                cand[slot].add(phi.lift(t))
    for slot, involved in by_slot.items():
        source = involved[0][1].source
        if source.coords_len == 0:
            continue
        for a in range(len(involved)):
            for b in range(a + 1, len(involved)):
                key1, phi1 = involved[a]
                key2, phi2 = involved[b]
                targets1 = ordered[key1]
                targets2 = ordered[key2]
                if not targets1 or not targets2:
                    continue
                stacked = IntMatrix(
                    list(phi1.matrix.rows) + list(phi2.matrix.rows),
                    ncols=source.coords_len,
                )
                u, d, v, _ = smith_with_inverses(stacked, keep=("u", "v"))
                for t1 in targets1:
                    for t2 in targets2:
                        m = solve_factored(u, d, v, tuple(t1) + tuple(t2))
                        if m is not None:
                            cand[slot].add(source.reduce(m))


def _equations(cand: dict, constraints: Sequence[Constraint]) -> tuple[list | None, dict]:
    """The linear system over the candidate supports: one equation
    ``(eq id, {(slot, m): coeff}, rhs)`` per (constraint, reachable
    target point), constraints in the given order and target points
    sorted, or None when a right-hand-side point is reached by no
    candidate; and every constraint's target points by key, its
    right-hand side's support and its candidates' images, each
    candidate pushed once."""
    equations, targets = [], {}
    for c in constraints:
        pts = targets[c.key] = set(c.rhs.support())
        rows: dict[tuple, dict] = {}
        for slot, sign, phi in c.terms:
            for m in sorted(cand[slot]):
                t = phi.apply(m)
                pts.add(t)
                rows.setdefault(t, {})
                key = (slot, m)
                rows[t][key] = rows[t].get(key, 0) + sign
        for t in sorted(pts):
            coeffs = rows.get(t, {})
            rhs = c.rhs.terms.get(t, 0)
            if coeffs or rhs != 0:
                equations.append(((c.key, t), coeffs, rhs))
    # an equation without variables has a point that no candidate reaches
    if not all(coeffs for _eq_id, coeffs, _rhs in equations):
        equations = None
    return equations, targets


def _try_solve(cand: dict, equations: list) -> dict | None:
    # the system is block-diagonal in the connected components of the
    # equation/variable incidence graph; every equation has a variable
    uf = _UnionFind()
    for eq_id, coeffs, _rhs in equations:
        for v in coeffs:
            uf.union(("eq", eq_id), ("var", v))
    blocks: dict = {}
    for eq in equations:
        blocks.setdefault(uf.find(("eq", eq[0])), []).append(eq)

    values: dict = {}
    for eqs in blocks.values():
        vs = sorted({v for _eq_id, coeffs, _rhs in eqs for v in coeffs})
        x = solve(_matrix(eqs, vs), [rhs for _eq_id, _coeffs, rhs in eqs])
        if x is None:
            return None
        values.update(zip(vs, x))
    return {
        slot: {m: values.get((slot, m), 0) for m in sorted(ms)}
        for slot, ms in cand.items()
    }


def _matrix(equations: list, variables: list) -> IntMatrix:
    """The dense matrix of ``equations`` (as ``_equations`` gives them),
    one column per variable of ``variables``, in that order."""
    column = {v: j for j, v in enumerate(variables)}
    rows = []
    for _eq_id, coeffs, _rhs in equations:
        row = [0] * len(variables)
        for v, coeff in coeffs.items():
            row[column[v]] = coeff
        rows.append(tuple(row))
    return IntMatrix._trusted(tuple(rows), len(variables))


def solve_pushforward_system(
    slot_groups: dict, constraints: Sequence[Constraint], depth: int
) -> tuple[dict[Hashable, GroupRingElement], int] | SolverGaveUp:
    """Search for group-ring unknowns satisfying all constraints.

    Returns (solution, rounds_used) on success; the solution maps every
    slot to a GroupRingElement over its group.  The caller should
    re-verify the solution exactly through its own arithmetic.
    """
    cand = _initial_candidates(constraints)
    by_slot = _by_slot(constraints)
    sizes = []
    targets: dict = {}
    for round_no in range(depth + 1):
        if round_no > 0:
            _expand(cand, constraints, by_slot, targets)
        sizes.append(sum(len(s) for s in cand.values()))
        equations, targets = _equations(cand, constraints)
        raw = None if equations is None else _try_solve(cand, equations)
        if raw is not None:
            solution = {
                slot: GroupRingElement(slot_groups[slot], terms)
                for slot, terms in raw.items()
            }
            return solution, round_no
    return SolverGaveUp(depth, tuple(sizes))


# The trial distribution of every random draw, per-cone ones included: a
# seed gives the same report only while these stay fixed.
POINTS_PER_CONSTRAINT = 3
COORD_BOUND = 3
COEFF_BOUND = 5
MAX_ATTEMPTS = 50


def sample_nonzero_solution(
    slot_groups: dict,
    constraints: Sequence[Constraint],
    rng: random.Random,
    extra_points: int,
) -> dict[Hashable, GroupRingElement] | None:
    """A random nonzero solution of the homogeneous constraints.

    Supports mix splitting-lifts of random target points, 1 to
    ``POINTS_PER_CONSTRAINT`` per constraint and lifted into every
    participating slot (so that images collide and the kernel is usually
    nonzero), with up to ``extra_points`` purely random points per slot;
    random coordinates lie in [-COORD_BOUND, COORD_BOUND].  The integer
    kernel of the whole system over those supports is combined with
    coefficients in [-COEFF_BOUND, COEFF_BOUND].  Returns None after
    ``MAX_ATTEMPTS`` draws that gave only zero.
    """
    def random_coords(q):
        return q.reduce(
            tuple(rng.randint(-COORD_BOUND, COORD_BOUND) for _ in range(q.coords_len))
        )

    for _ in range(MAX_ATTEMPTS):
        support = {slot: set() for slot in sorted(slot_groups)}
        for c in constraints:
            for _ in range(rng.randint(1, POINTS_PER_CONSTRAINT)):
                t = random_coords(c.target)
                for slot, _sign, phi in c.terms:
                    support[slot].add(phi.lift(t))
        for slot, pts in support.items():
            for _ in range(rng.randint(1 if not pts else 0, extra_points)):
                pts.add(random_coords(slot_groups[slot]))
        variables = sorted((slot, m) for slot, ms in support.items() for m in ms)
        basis = kernel(_matrix(_equations(support, constraints)[0], variables))
        combo = [0] * len(variables)
        for row in basis.rows:
            k = rng.randint(-COEFF_BOUND, COEFF_BOUND)
            combo = [a + k * b for a, b in zip(combo, row)]
        if not any(combo):
            continue
        values = dict(zip(variables, combo))
        return {
            slot: GroupRingElement(slot_groups[slot], {m: values[(slot, m)] for m in ms})
            for slot, ms in support.items()
        }
    return None
