"""Witnesses on smooth fans are constructed, not searched for.

The closed-form lift restricts back to the face data it was given on
every smooth cone of the fan files; the peeling coboundary solves
random cocycles at every level, and the extension built from the lift
restricts back to the section, on random smooth fans (2D blow-ups of
P1 x P1, P3 and P1 x P1 x P1); neither reaches the solver.  Also: the
ray charts, and the one-line closed form the peeling uses for b_I.
"""

import glob
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kfan import cech, cones, sheaves
from kfan.cech import CechComplex
from kfan.cones import Cone, Fan
from kfan.fanfile import build_fan, load_fan_file
from kfan.intlinalg import CertificateError, IntMatrix, Lattice
from kfan.monoids import GroupRingElement
from kfan.sheaves import (
    Section,
    extend_section,
    from_ray_terms,
    lift,
    pad_rays,
    random_open_subfan,
    random_section,
    ray_terms,
    sheaf_a0,
)
from test_fan_construction import blown_up_p1xp1

HERE = os.path.dirname(__file__)
FAN_FILES = sorted(
    glob.glob(os.path.join(HERE, os.pardir, "fans", "*.json"))
    + glob.glob(os.path.join(HERE, os.pardir, "bench", "fans", "*.json"))
)
# the no_solver fixture patches the same refusal in for every example
SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
RANDOM_FANS = settings(SETTINGS, max_examples=25)


def load(path) -> Fan:
    return build_fan(load_fan_file(path))


def bench_fan(name) -> Fan:
    return load(os.path.join(HERE, os.pardir, "bench", "fans", f"{name}.json"))


def random_element(group, rng, terms=4, bound=3) -> GroupRingElement:
    return GroupRingElement(
        group,
        {
            tuple(rng.randint(-bound, bound) for _ in range(group.coords_len)): rng.randint(-5, 5)
            for _ in range(rng.randint(1, terms))
        },
    )


@pytest.fixture
def no_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the solver was called on a smooth fan")

    monkeypatch.setattr(cech, "solve_pushforward_system", refuse)
    monkeypatch.setattr(sheaves, "solve_pushforward_system", refuse)


SMOOTH_FILES = [p for p in FAN_FILES if load(p).is_smooth()]


@pytest.mark.parametrize("path", SMOOTH_FILES, ids=os.path.basename)
@SETTINGS
@given(seed=st.integers(0, 2**32))
def test_lift_restricts_to_the_face_data(path, seed):
    fan = load(path)
    rng = random.Random(seed)
    sheaf = sheaf_a0(fan)
    for sigma in fan.cones:
        x = random_element(sheaf.stalk(sigma), rng)
        boundary = {
            tau: x.pushforward(sheaf.restriction(sigma, tau))
            for tau in fan.faces_of(sigma)
            if tau != sigma
        }
        f = lift(sheaf, sigma, boundary)
        assert f.group == sheaf.stalk(sigma)
        for tau, value in boundary.items():
            assert f.pushforward(sheaf.restriction(sigma, tau)) == value


def random_smooth_fans():
    blowups = blown_up_p1xp1(max_blowups=3).map(
        lambda data: Fan.from_rays_and_indices(Lattice(2), *data)
    )
    return st.one_of(blowups, st.sampled_from(["p3", "p1xp1xp1"]).map(bench_fan))


@RANDOM_FANS
@given(fan=random_smooth_fans(), seed=st.integers(0, 2**32))
def test_peeling_solves_cocycles_at_every_level(no_solver, fan, seed):
    assert fan.is_smooth()
    rng = random.Random(seed)
    cx = CechComplex(fan)
    for level in range(1, cx.top_level + 1):
        z = cx.random_cocycle(level, rng)
        b = cx.solve_coboundary(z, depth=0)
        assert b.level == level - 1
        assert cx.d(b) == z


@RANDOM_FANS
@given(fan=random_smooth_fans(), seed=st.integers(0, 2**32))
def test_extension_restricts_to_the_section(no_solver, fan, seed):
    sheaf = sheaf_a0(fan)
    rng = random.Random(seed)
    for _ in range(3):
        domain = random_open_subfan(fan, rng)
        section = random_section(sheaf, domain, rng)
        extended = extend_section(section, depth=0)
        assert isinstance(extended, Section)
        assert extended.domain.is_full()
        assert extended.check()
        assert extended.restrict(domain) == section


def closed_form_extension(sheaf, sigma, known: dict) -> GroupRingElement:
    """Extend data given on an open set of the faces of sigma by lifting
    onto the missing faces in order of dimension."""
    values = dict(known)
    for tau in sheaf.fan.faces_of(sigma):  # sorted by dimension
        if tau not in values:
            faces = [rho for rho in sheaf.fan.faces_of(tau) if rho != tau]
            values[tau] = lift(sheaf, tau, {rho: values[rho] for rho in faces})
    return values[sigma]


@pytest.mark.parametrize("name", ["p3", "p1xp1xp1"])
def test_lift_with_zero_data_off_a_face_is_the_padding(name):
    # the peeling step: data x on the faces of A and zero on the faces of
    # a facet B of sigma, with x zero on A n B, lift to iota(x)
    fan = bench_fan(name)
    sheaf = sheaf_a0(fan)
    rng = random.Random(3)
    checked = 0
    for sigma in fan.max_cones:
        for a in fan.faces_of(sigma):
            for r in a.rays:
                # x = y * (1 - chi^(e_r)) vanishes on the faces of A without r
                y = random_element(sheaf.stalk(a), rng)
                unit = {tuple(int(v == r) for v in a.rays): 1}
                x = y - y * from_ray_terms(sheaf.stalk(a), a, unit)
                facet = fan.canonical(Cone.from_rays(fan.lattice, [v for v in sigma.rays if v != r]))
                known = {tau: GroupRingElement.zero(sheaf.stalk(tau)) for tau in fan.faces_of(facet)}
                for tau in fan.faces_of(a):
                    pushed = x.pushforward(sheaf.restriction(a, tau))
                    assert tau not in known or pushed == known[tau]
                    known[tau] = pushed
                padded = from_ray_terms(sheaf.stalk(sigma), sigma, pad_rays(ray_terms(a, x), a, sigma))
                assert closed_form_extension(sheaf, sigma, known) == padded
                checked += 1
    assert checked > 20


def test_ray_chart_maps_characters_to_pairings():
    fan = bench_fan("p1xp1xp1")
    rng = random.Random(1)
    for sigma in fan.cones:
        chart, inverse = sigma.ray_chart()
        k = len(sigma.rays)
        assert chart @ inverse == IntMatrix.identity(k)
        for _ in range(5):
            m = tuple(rng.randint(-4, 4) for _ in range(fan.lattice.rank))
            element = GroupRingElement.character(sigma.character_quotient(), m)
            pairing = tuple(sum(a * b for a, b in zip(m, v)) for v in sigma.rays)
            assert ray_terms(sigma, element) == {pairing: 1}
            assert from_ray_terms(sigma.character_quotient(), sigma, {pairing: 1}) == element


def test_ray_chart_needs_a_smooth_cone():
    cone = Cone.from_rays(Lattice(2), [(1, 0), (1, 2)])
    with pytest.raises(ValueError, match="not smooth"):
        cone.ray_chart()


def test_ray_chart_cross_check_raises_certificate_error(monkeypatch):
    reduce = cones.smith_with_inverses

    def wrong_inverse(a, **kwargs):
        u, d, v, uinv, vinv = reduce(a, **kwargs)
        return u, d, IntMatrix([[-x for x in row] for row in v.rows], ncols=v.ncols), uinv, vinv

    cone = Cone.from_rays(Lattice(2), [(1, 0), (1, 1)])
    assert cone.is_smooth()
    monkeypatch.setattr(cones, "smith_with_inverses", wrong_inverse)
    with pytest.raises(CertificateError, match="ray chart"):
        cone.ray_chart()


def test_smoothness_is_decided_once_per_cone(monkeypatch):
    calls = []
    reduce = cones.smith_with_inverses

    def counting(a, **kwargs):
        calls.append(a)
        return reduce(a, **kwargs)

    fan = bench_fan("p3")
    monkeypatch.setattr(cones, "smith_with_inverses", counting)
    for _ in range(3):
        assert fan.is_smooth()
    assert len(calls) == len(fan.max_cones)
