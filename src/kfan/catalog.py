"""Standard fans: projective spaces, products, Hirzebruch surfaces,
blow-ups, affine pieces, and a couple of singular examples.

Ray and maximal-cone data follow the usual conventions; maximal cones
are listed in a fixed order since the cover complex's signs depend on
it.
"""

from __future__ import annotations

from .cones import Fan
from .intlinalg import Lattice


def projective_line() -> Fan:
    return Fan.from_rays_and_indices(Lattice(1), [(1,), (-1,)], [[0], [1]])


def projective_plane() -> Fan:
    return Fan.from_rays_and_indices(
        Lattice(2), [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [2, 0]]
    )


def p1_times_p1() -> Fan:
    return Fan.from_rays_and_indices(
        Lattice(2),
        [(1, 0), (0, 1), (-1, 0), (0, -1)],
        [[0, 1], [1, 2], [2, 3], [3, 0]],
    )


def hirzebruch(a: int) -> Fan:
    """The Hirzebruch surface F_a (F_0 is P^1 x P^1)."""
    return Fan.from_rays_and_indices(
        Lattice(2),
        [(1, 0), (0, 1), (-1, a), (0, -1)],
        [[0, 1], [1, 2], [2, 3], [3, 0]],
    )


def blowup_p2() -> Fan:
    """The projective plane blown up at one torus-fixed point."""
    return Fan.from_rays_and_indices(
        Lattice(2),
        [(1, 0), (0, 1), (-1, -1), (1, 1)],
        [[0, 3], [3, 1], [1, 2], [2, 0]],
    )


def affine_plane() -> Fan:
    return Fan.from_rays_and_indices(Lattice(2), [(1, 0), (0, 1)], [[0, 1]])


def singular_quadric_cone_fan() -> Fan:
    """A single singular (simplicial, non-smooth) cone."""
    return Fan.from_rays_and_indices(Lattice(2), [(1, 0), (1, 2)], [[0, 1]])


def weighted_p2_fan() -> Fan:
    """A complete singular fan (weighted projective style)."""
    return Fan.from_rays_and_indices(
        Lattice(2), [(1, 0), (0, 1), (-1, -2)], [[0, 1], [1, 2], [2, 0]]
    )


def smooth_corpus() -> dict[str, Fan]:
    """The smooth fans of the verification suites.  Tested API, no library caller."""
    return {
        "P1": projective_line(),
        "P2": projective_plane(),
        "P1xP1": p1_times_p1(),
        "F1": hirzebruch(1),
        "F2": hirzebruch(2),
        "Bl1P2": blowup_p2(),
        "A2": affine_plane(),
    }
