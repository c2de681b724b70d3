"""Coordinate maps compiled into pickers, against their plain forms.

A smooth fan's restriction (``RayRestriction``) applies a compiled
``intlinalg.picker``, any other map (``QuotientSurjection``) multiplies
by its matrix, and ``GroupRingElement.pushforward`` calls ``apply`` per
term: the result must be the term-by-term pushforward through the
matrix, ``target.reduce(matrix.apply(q))`` summed, on every restriction
of every fan file (restrictions to the zero cone and to a ray keep 0
and 1 coordinates, where a bare ``itemgetter`` fails or returns an
int), on the restrictions of a weighted P2, and onto a torsion target.
The ray helpers of ``sheaves`` read pickers too: the projector
``_top_part_into`` must be the explicit expansion of prod (x_i^e_i - 1),
and restriction, a picker on smooth fans, must undo the zero-padding of
``RayRestriction.pad`` on every face pair.
"""

import glob
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kfan.catalog import weighted_p2_fan
from kfan.cones import MAX_RANK
from kfan.fanfile import build_fan, load_fan_file
from kfan.intlinalg import (
    IntMatrix,
    Lattice,
    QuotientSurjection,
    canonical_surjection,
    picker,
    quotient,
)
from kfan.monoids import GroupRingElement
from kfan.sheaves import RayRestriction, _top_part_into, sheaf_a0
from split_reference import assemble, top_part

HERE = os.path.dirname(__file__)
FAN_FILES = sorted(
    glob.glob(os.path.join(HERE, os.pardir, "fans", "*.json"))
    + glob.glob(os.path.join(HERE, os.pardir, "bench", "fans", "*.json"))
)
SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def load(path):
    return build_fan(load_fan_file(path))


def random_element(group, rng):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        torsion = [rng.randrange(d) for d in group.invariant_factors]
        free = [rng.randint(-2, 2) for _ in range(group.free_rank)]
        terms[tuple(torsion + free)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return GroupRingElement(group, terms)


def reference_pushforward(x, phi):
    """The sum over the terms c chi^q of c chi^{reduce(matrix q)}.  A
    picker restriction of a smooth fan takes the matrix of the canonical
    surjection of the character groups, carried by the stalks' ray charts."""
    matrix = getattr(phi, "matrix", None)
    if isinstance(phi, RayRestriction):
        groups = phi.source.cone.character_quotient(), phi.target.cone.character_quotient()
        fresh = canonical_surjection(*groups)
        matrix = phi.target.chart()[0] @ fresh.matrix @ phi.source.chart()[1]
    out = GroupRingElement.zero(phi.target)
    for q, c in x.terms.items():
        out = out + GroupRingElement(phi.target, {phi.target.reduce(matrix.apply(q)): c})
    return out


def test_picker_returns_a_tuple_for_every_length():
    v = (7, 8, 9)
    assert picker(())(v) == ()
    assert picker((2,))(v) == (9,)
    assert picker((2, 0))(v) == (9, 7)
    assert picker((1, 1, 0, 2))(v) == (8, 8, 7, 9)


@pytest.mark.parametrize(
    "fan",
    [pytest.param(lambda p=p: load(p), id=os.path.basename(p)) for p in FAN_FILES]
    + [pytest.param(weighted_p2_fan, id="weighted-p2")],
)
def test_pushforward_through_the_picker_is_the_termwise_pushforward(fan):
    fan = fan()
    sheaf = sheaf_a0(fan)
    rng = random.Random(19)
    widths, matrix_maps = set(), 0
    for sigma in fan.cones:
        for tau in fan.faces_of(sigma):
            phi = sheaf.restriction(sigma, tau)
            matrix_maps += isinstance(phi, QuotientSurjection)
            widths.add(phi.target.coords_len)
            for _ in range(3):
                x = random_element(phi.source, rng)
                assert x.pushforward(phi) == reference_pushforward(x, phi)
    # restrictions to the zero cone and to the rays
    assert {0, 1} <= widths
    # a smooth fan's maps all pick coordinates, any other fan's multiply
    assert (matrix_maps == 0) == fan.is_smooth()


def test_pushforward_onto_a_torsion_target_keeps_the_matrix_path():
    # Z^2 onto Z/2 + Z: unit rows, but the reduction mod 2 is needed
    ambient = Lattice(2)
    source = quotient(ambient, IntMatrix.zero(0, 2))
    target = quotient(ambient, IntMatrix([(2, 0)]))
    phi = canonical_surjection(source, target)
    assert target.invariant_factors == (2,)
    rng = random.Random(5)
    for _ in range(20):
        x = random_element(source, rng)
        assert x.pushforward(phi) == reference_pushforward(x, phi)


def ray_term_dicts(width):
    exponents = st.tuples(*[st.integers(-3, 3)] * width)
    return st.dictionaries(exponents, st.integers(-5, 5).filter(bool), max_size=6)


@SETTINGS
@given(st.integers(0, MAX_RANK).flatmap(ray_term_dicts))
def test_top_part_is_the_expanded_product(terms):
    # in the face's own coordinates: picked as they are, read back less
    # the trailing 0
    out: dict = {}
    _top_part_into(out, terms, tuple, lambda key: key[:-1])
    assert {e: k for e, k in out.items() if k} == top_part(terms)


SMOOTH_FANS = [(os.path.basename(p), load(p)) for p in FAN_FILES]
SMOOTH_FANS = [(name, fan) for name, fan in SMOOTH_FANS if fan.is_smooth()]


def random_ray_terms(width, rng):
    return {
        tuple(rng.randint(-3, 3) for _ in range(width)): rng.choice([-2, -1, 1, 2])
        for _ in range(rng.randint(0, 4))
    }


@pytest.mark.parametrize("fan", [pytest.param(f, id=name) for name, f in SMOOTH_FANS])
@settings(SETTINGS, max_examples=10)
@given(seed=st.integers(0, 2**32))
def test_restrict_rays_undoes_pad_rays_on_every_face_pair(fan, seed):
    rng = random.Random(seed)
    sheaf = sheaf_a0(fan)
    for sigma in fan.cones:
        for tau in fan.faces_of(sigma):  # tau = sigma included
            terms = random_ray_terms(len(tau.rays), rng)
            phi = sheaf.restriction(sigma, tau)
            face = phi.target.cone_id
            padded = assemble(sheaf, {face: terms}, phi.source.cone_id, [face])
            assert GroupRingElement(phi.source, padded).pushforward(phi).terms == terms
            outside = [i for i, r in enumerate(sigma.rays) if r not in tau.rays]
            assert all(e[i] == 0 for e in padded for i in outside)
