"""Deterministic generator for the benchmark's fan files.

Writes, into ``bench/fans/``:

* ``ladder-<n>.json``: smooth complete 2D fans with n = 6, 8, 10, 12
  maximal cones, iterated blow-ups of P1 x P1;
* ``p3.json`` and ``p1xp1xp1.json``: the rank-3 fans;
* ``f1.json``, ``bl1p2.json`` and ``a2.json``: written from
  ``kfan.catalog``.

Run ``python3 bench/gen_fans.py`` from the repository root to rewrite
them; ``bench/selftest.py`` checks that the committed files match.
"""

from __future__ import annotations

import json
import sys
from itertools import combinations, product
from pathlib import Path

HERE = Path(__file__).resolve().parent
FAN_DIR = HERE / "fans"
LADDER_SIZES = (6, 8, 10, 12)


def ladder(n_cones: int) -> dict:
    """P1 x P1 blown up at torus-fixed points until it has ``n_cones``
    maximal cones.

    Rays stay in counter-clockwise order and each maximal cone is a pair
    of neighbours.  Each blow-up inserts u + v between neighbours u, v;
    the pair with the smallest |u + v|_1 goes first, ties broken by
    position, so coordinates stay small.
    """
    if n_cones < 4 or n_cones % 2:
        raise ValueError("the ladder has an even number >= 4 of maximal cones")
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    while len(rays) < n_cones:
        k = len(rays)
        best = min(
            range(k),
            key=lambda i: (
                sum(abs(a + b) for a, b in zip(rays[i], rays[(i + 1) % k])),
                i,
            ),
        )
        u, v = rays[best], rays[(best + 1) % k]
        rays.insert(best + 1, (u[0] + v[0], u[1] + v[1]))
    k = len(rays)
    return {
        "name": f"ladder-{n_cones}",
        "lattice_rank": 2,
        "rays": [list(r) for r in rays],
        "max_cones": [[i, (i + 1) % k] for i in range(k)],
    }


def p3() -> dict:
    return {
        "name": "P3",
        "lattice_rank": 3,
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
        "max_cones": [list(c) for c in combinations(range(4), 3)],
    }


def p1xp1xp1() -> dict:
    # ray 2i is +e_i and ray 2i + 1 is -e_i; one maximal cone per octant
    rays = []
    for i in range(3):
        for sign in (1, -1):
            rays.append([sign if j == i else 0 for j in range(3)])
    return {
        "name": "P1xP1xP1",
        "lattice_rank": 3,
        "rays": rays,
        "max_cones": [
            [2 * i + s for i, s in enumerate(signs)]
            for signs in product((0, 1), repeat=3)
        ],
    }


def from_fan(name: str, fan) -> dict:
    """A fan file for a ``kfan`` Fan, keeping its maximal-cone order
    (the cover complex's signs depend on it)."""
    rays: list = []
    for cone in fan.max_cones:
        for r in cone.rays:
            if list(r) not in rays:
                rays.append(list(r))
    return {
        "name": name,
        "lattice_rank": fan.lattice.rank,
        "rays": rays,
        "max_cones": [
            [rays.index(list(r)) for r in cone.rays] for cone in fan.max_cones
        ],
    }


def all_fans() -> dict[str, dict]:
    """File stem -> fan file contents, for every generated fan."""
    from kfan import catalog

    fans = {f"ladder-{n}": ladder(n) for n in LADDER_SIZES}
    fans["p3"] = p3()
    fans["p1xp1xp1"] = p1xp1xp1()
    fans["f1"] = from_fan("F1", catalog.hirzebruch(1))
    fans["bl1p2"] = from_fan("Bl1P2", catalog.blowup_p2())
    fans["a2"] = from_fan("A2", catalog.affine_plane())
    return fans


def render(data: dict) -> str:
    return json.dumps(data, indent=1) + "\n"


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    FAN_DIR.mkdir(exist_ok=True)
    for stem, data in all_fans().items():
        (FAN_DIR / f"{stem}.json").write_text(render(data))
    return 0


if __name__ == "__main__":
    sys.exit(main())
