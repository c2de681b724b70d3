"""Outcomes do not depend on the coordinates or on the order of the
maximal cones.

Each random smooth fan of ``test_constructive`` is rebuilt with its rays
moved by a random g in GL_n(Z), and with its maximal cones (and the rays
within each) in a random order.  A character m' of the moved fan pairs
with g v as m = g^T m' pairs with v, so the two fans' characters are
matched through g^T.  On both fans: H^0 membership of a combination of
character tuples and of the same tuple with one piece changed, and the
exit status of check-exactness and check-flasque with witnesses that
re-check through the library.
"""

import json
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kfan.cech import h0
from kfan.cli import run
from kfan.cones import Fan
from kfan.fanfile import build_fan, load_fan_file
from kfan.monoids import GroupRingElement
from test_cli import assert_exactness_witnesses_recheck, assert_flasque_witnesses_recheck
from test_constructive import random_smooth_fans
from test_fan_construction import permuted

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def random_unimodular(n, rng):
    """A random n x n integer matrix of determinant +-1, as row lists."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice([-1, 1])
        g[i] = [a + k * b for a, b in zip(g[i], g[j])]
    if rng.random() < 0.5:
        g[0] = [-a for a in g[0]]
    rng.shuffle(g)
    return g


def times(g, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in g)


def transpose(g):
    return [list(col) for col in zip(*g)]


def rays_and_indices(fan):
    rays = sorted({r for c in fan.max_cones for r in c.rays})
    return rays, [[rays.index(r) for r in c.rays] for c in fan.max_cones]


def moved(fan, g, rng):
    """The fan with rays g v and its maximal cones reordered, and for
    each maximal cone of ``fan`` the index of its image."""
    rays, indices = rays_and_indices(fan)
    new_rays = [times(g, r) for r in rays]
    other = Fan.from_rays_and_indices(fan.lattice, new_rays, permuted(indices, rng))
    position = {frozenset(c.rays): i for i, c in enumerate(other.max_cones)}
    image = [position[frozenset(times(g, r) for r in c.rays)] for c in fan.max_cones]
    return other, image


def fan_json(fan) -> dict:
    rays, indices = rays_and_indices(fan)
    return {"lattice_rank": fan.lattice.rank, "rays": rays, "max_cones": indices}


def combination(ring, piece, characters):
    q = ring.complex.stalk((piece,))
    out = GroupRingElement.zero(q)
    for m, k in characters:
        out = out + GroupRingElement.character(q, m).scale(k)
    return out


def tuples(ring, characters, changed_piece, extra):
    """A combination of character tuples, and the same tuple with one
    more character term on ``changed_piece``."""
    n = len(ring.complex.fan.max_cones)
    member = {i: combination(ring, i, characters) for i in range(n)}
    changed = dict(member)
    changed[changed_piece] = combination(ring, changed_piece, characters + [extra])
    return ring.cochain(member), ring.cochain(changed)


@SETTINGS
@given(fan=random_smooth_fans(), seed=st.integers(0, 2**32))
def test_h0_membership_is_invariant(fan, seed):
    rng = random.Random(seed)
    n = fan.lattice.rank
    g = random_unimodular(n, rng)
    other, image = moved(fan, g, rng)

    def character():
        return [rng.randint(-3, 3) for _ in range(n)], rng.choice([-2, -1, 1, 2])

    chars = [character() for _ in range(rng.randint(1, 3))]
    extra = character()
    piece = rng.randrange(len(fan.max_cones))

    gt = transpose(g)
    ring = h0(fan)
    member, changed = tuples(
        ring, [(times(gt, m), k) for m, k in chars], piece, (times(gt, extra[0]), extra[1])
    )
    ring_other = h0(other)
    member_other, changed_other = tuples(ring_other, chars, image[piece], extra)

    assert ring.contains(member) and ring_other.contains(member_other)
    # two or more maximal cones: the extra term shows on a shared face
    assert not ring.contains(changed) and not ring_other.contains(changed_other)


@SETTINGS
@given(fan=random_smooth_fans(), seed=st.integers(0, 2**32))
def test_check_outcomes_are_invariant(tmp_path_factory, fan, seed):
    rng = random.Random(seed)
    other, _ = moved(fan, random_unimodular(fan.lattice.rank, rng), rng)
    level = str(rng.randint(1, min(2, len(fan.max_cones) - 1)))
    folder = tmp_path_factory.mktemp("invariance")
    for name, f in (("fan", fan), ("moved", other)):
        path = folder / f"{name}.json"
        path.write_text(json.dumps(fan_json(f)))
        common = ["--trials", "2", "--seed", str(seed)]
        rep = run(["check-exactness", str(path), "--level", level] + common)
        assert rep.exit_status == 0
        assert len(rep.certificates["witnesses"]) == 2
        f = build_fan(load_fan_file(path))
        assert_exactness_witnesses_recheck(f, rep)
        rep = run(["check-flasque", str(path)] + common)
        assert rep.exit_status == 0
        assert len(rep.certificates["witnesses"]) == 2
        assert_flasque_witnesses_recheck(f, rep)
