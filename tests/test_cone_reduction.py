"""One Smith reduction per cone, checked against independent computations.

A cone on independent rays reduces its ray matrix once, at construction
or, for a face of a simplicial cone, on first use
(``cones._ray_reduction``): the kernel is its ``perp_lattice()`` and the
Smith diagonal decides ``is_smooth()``; a full-dimensional one needs no
reduction, only |det| = 1.  The ray chart of a smooth cone's stalk
(``RayStalk.chart``) inverts its unimodular matrix by cofactors.  Here
every cone of every fan file, of GL_n(Z) images of them and of P4 is
compared with the kernel, the Smith diagonal and the Smith-based inverse
computed afresh; and the stalks of ``sheaf_a0`` with every chart on
P1 x P1 x P1 are counted against one reduction per cone below full
dimension plus one quotient per distinct perp lattice, whichever of
them is read first.
"""

import glob
import json
import os
import random

import pytest

from kfan import intlinalg
from kfan.cones import Cone, Fan, NotStronglyConvex
from kfan.fanfile import build_fan, load_fan_file
from kfan.intlinalg import IntMatrix, Lattice, kernel, smith_with_inverses
from kfan.sheaves import sheaf_a0
from test_fan_construction import permuted
from test_invariance import random_unimodular, rays_and_indices, times

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def _is_fan_file(path) -> bool:
    with open(path, encoding="utf-8") as f:
        return "max_cones" in json.load(f)


FAN_FILES = sorted(
    p
    for folder in ("fans", os.path.join("bench", "fans"), os.path.join("tests", "golden"))
    for p in glob.glob(os.path.join(ROOT, folder, "*.json"))
    if _is_fan_file(p)
)


def load(path) -> Fan:
    return build_fan(load_fan_file(path))


def ray_chart(sheaf, cone):
    """The ray chart of a smooth cone: its stalk's on a smooth fan, else
    that of the cone's own one-cone fan, whose stalks are ray stalks."""
    if not sheaf.smooth:
        sheaf = sheaf_a0(Fan.from_max_cones(cone.lattice, [cone]))
    return sheaf.stalk(cone).chart()


def assert_matches_independent_computation(fan):
    n = fan.lattice.rank
    sheaf = sheaf_a0(fan)
    for cone in fan.cones:
        rays = IntMatrix(cone.rays, ncols=n)
        assert cone.perp_lattice() == kernel(rays)
        _, d, _, _ = smith_with_inverses(rays, keep=())
        smooth = cone.is_simplicial() and all(d.rows[i][i] == 1 for i in range(len(cone.rays)))
        assert cone.is_smooth() == smooth
        if not smooth:
            continue
        chart, inverse = ray_chart(sheaf, cone)
        assert chart == rays @ cone.character_quotient().section
        u, d, v, _ = smith_with_inverses(chart, keep=("u", "v"))
        assert d == IntMatrix.identity(len(cone.rays))
        assert inverse == v @ u  # U T V = I


def test_every_fan_file_is_found():
    names = {os.path.basename(p) for p in FAN_FILES}
    assert {"p1.json", "quadric-cone.json", "ladder-12.json", "p4.json", "f1.json"} <= names


@pytest.mark.parametrize("path", FAN_FILES, ids=os.path.basename)
def test_cone_data_matches_independent_computation(path):
    assert_matches_independent_computation(load(path))


@pytest.mark.parametrize("path", FAN_FILES, ids=os.path.basename)
def test_cone_data_matches_on_gl_n_images(path):
    fan = load(path)
    rays, indices = rays_and_indices(fan)
    for seed in range(3):
        rng = random.Random(seed)
        n = fan.lattice.rank
        g = random_unimodular(n, rng) if n > 1 else [[rng.choice((-1, 1))]]
        moved = Fan.from_rays_and_indices(
            fan.lattice, [times(g, r) for r in rays], permuted(indices, rng)
        )
        assert moved.is_smooth() == fan.is_smooth()
        assert_matches_independent_computation(moved)


def test_standalone_cones_in_any_ray_order():
    # the kernel of a ray matrix depends on the order of its rows; a cone
    # is built from its sorted rays, so the kernel reduced at construction
    # is its perp lattice whatever order the rays came in
    rng = random.Random(5)
    cone = Cone.from_rays(Lattice(4), [(3, 2, 3, -3), (2, -3, 2, 3)])
    assert kernel(IntMatrix(cone.rays[::-1])) != kernel(IntMatrix(cone.rays))
    cones = [cone]
    while len(cones) < 300:
        n = rng.randint(1, 4)
        rays = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, n))]
        try:
            cones.append(Cone.from_rays(Lattice(n), rays))
        except NotStronglyConvex:
            continue
    for cone in cones:
        n = cone.lattice.rank
        rays = IntMatrix(cone.rays, ncols=n)
        assert cone.perp_lattice() == kernel(rays)
        _, d, _, _ = smith_with_inverses(rays, keep=())
        smooth = cone.is_simplicial() and all(d.rows[i][i] == 1 for i in range(len(cone.rays)))
        assert cone.is_smooth() == smooth
        if smooth:
            chart, inverse = sheaf_a0(Fan.from_max_cones(cone.lattice, [cone])).stalk(cone).chart()
            assert chart @ inverse == IntMatrix.identity(len(cone.rays))


def test_p4_is_smooth_and_charted():
    fan = load(os.path.join(ROOT, "tests", "golden", "p4.json"))
    assert fan.lattice.rank == 4 and len(fan.max_cones) == 5 and len(fan.cones) == 31
    assert fan.is_smooth()
    sheaf = sheaf_a0(fan)
    assert all(sheaf.stalk(c).chart()[0].nrows == c.dim for c in fan.cones)


def test_sheaf_and_charts_take_one_reduction_per_cone_and_perp_lattice(monkeypatch):
    calls = []
    reduce = intlinalg.smith_with_inverses

    def counting(a, **kwargs):
        calls.append(a)
        return reduce(a, **kwargs)

    monkeypatch.setattr(intlinalg, "smith_with_inverses", counting)
    fan = load(os.path.join(ROOT, "bench", "fans", "p1xp1xp1.json"))
    sheaf = sheaf_a0(fan)
    # a chart is built from its cone's stalk, so the charts read after
    # the stalks reduce nothing more
    for cone in fan.cones:
        sheaf.stalk(cone)
    for cone in fan.cones:
        sheaf.stalk(cone).chart()
    n = fan.lattice.rank
    below = sum(1 for c in fan.cones if c.dim < n)
    perps = len({c.perp_lattice().rows for c in fan.cones})
    assert below == 19
    assert len(calls) <= below + perps


def test_charts_read_before_any_stalk_take_one_quotient_per_perp_lattice():
    # a chart is built from its cone's character group, which
    # ``intlinalg.quotient`` keeps per perp lattice, so reading every
    # chart first reduces no more groups than reading every stalk first:
    # counted as the table's misses, as a chart and a stalk both call it
    fan = load(os.path.join(ROOT, "bench", "fans", "p1xp1xp1.json"))
    sheaf = sheaf_a0(fan)
    for cone in fan.cones:
        sheaf.stalk(cone).chart()
    for cone in fan.cones:
        sheaf.stalk(cone)
    perps = len({c.perp_lattice().rows for c in fan.cones})
    assert perps == 8
    assert intlinalg.quotient.cache_info().misses == perps
