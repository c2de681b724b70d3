"""Witnesses on smooth fans are constructed, not searched for.

In ray coordinates an element splits into tau-parts, one per face, and
the parts assemble back to it (the two-step reference of
``split_reference``); a tau-part restricts to 0 on every proper face of
tau, and parts taken from face data assemble to an element restricting
to that data.  The draw and the extension, which project each part
straight into place (``sheaves._projected``), equal that reference.  The
contraction solves random cocycles at every level, also those drawn by
the kernel sampler, and the extension by zero parts restricts back to
the section, on random smooth fans (2D blow-ups of P1 x P1, P3 and
P1 x P1 x P1); neither reaches the solver, and after the sheaf is built
the smooth ``check-*`` commands make no kernel call.  Also: the ray
charts.
"""

import glob
import json
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kfan import cech, cli, cones, intlinalg, monoids, sheaves, support_solver
from kfan.cech import CechComplex
from kfan.cones import Cone, Fan
from kfan.fanfile import build_fan, load_fan_file
from kfan.intlinalg import CertificateError, IntMatrix, Lattice
from kfan.monoids import GroupRingElement
from kfan.report import cochain_from_jsonable, cochain_to_jsonable
from kfan.sheaves import (
    RayStalk,
    Section,
    extend_section,
    random_open_subfan,
    random_section,
    sheaf_a0,
)
from split_reference import assemble, drawn_values, extended_values, split, top_part
from test_cech import load_gen_fans
from test_fan_construction import blown_up_p1xp1
from test_support_solver import kernel_cocycle, smith_complex

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


def assembled_from_faces(sheaf, sigma, known: dict) -> GroupRingElement:
    """The element of Z[M_sigma] whose tau-part, for each face tau of
    sigma in ``known``, is the tau-part of known[tau], and zero for the
    other faces.  The reference takes and keys cones by number."""
    index = sheaf.fan.index_of
    parts = {}
    for tau, value in known.items():
        parts.update(split(sheaf, value.terms, index(tau), [index(tau)]))
    faces = sheaf.fan.face_ids[index(sigma)]
    return GroupRingElement(sheaf.stalk(sigma), assemble(sheaf, parts, index(sigma), faces))


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
        f = assembled_from_faces(sheaf, sigma, boundary)
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
def test_contraction_solves_cocycles_at_every_level(no_solver, fan, seed):
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


@RANDOM_FANS
@given(fan=random_smooth_fans(), seed=st.integers(0, 2**32))
def test_a_dense_section_splits_extends_and_restricts_back(no_solver, fan, seed):
    # random_section draws the parts of a few cones; here every cone of
    # the domain has one, so many parts meet in one key as they assemble
    sheaf = sheaf_a0(fan)
    rng = random.Random(seed)
    for _ in range(3):
        domain = random_open_subfan(fan, rng)
        parts = {c: top_part(sheaves.random_monomial(fan.cones[c], rng)) for c in sorted(domain.ids)}
        values = {c: assemble(sheaf, parts, c, fan.face_ids[c]) for c in domain.max_ids()}
        values = {c: GroupRingElement(sheaf.stalk_at(c), v) for c, v in values.items()}
        section = Section.by_id(sheaf, domain, values)
        assert section.check()
        for c, value in section.values.items():
            faces = fan.face_ids[c]
            assert split(sheaf, value.terms, c, faces) == {tau: parts[tau] for tau in faces if parts[tau]}
        extended = extend_section(section, depth=0)
        assert isinstance(extended, Section)
        assert extended.check()
        assert extended.restrict(domain) == section


@pytest.mark.parametrize("name", ["p3", "p1xp1xp1"])
def test_lift_with_zero_data_off_a_face_is_the_padding(name):
    # data x on the faces of A and zero on the faces of a facet B of
    # sigma, with x zero on A n B, assemble to iota(x)
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
                x = y - y * GroupRingElement(sheaf.stalk(a), unit)
                facet = Cone.from_rays(fan.lattice, [v for v in sigma.rays if v != r])
                facet = fan.cones[fan.index_of(facet)]
                known = {tau: GroupRingElement.zero(sheaf.stalk(tau)) for tau in fan.faces_of(facet)}
                for tau in fan.faces_of(a):
                    pushed = x.pushforward(sheaf.restriction(a, tau))
                    assert tau not in known or pushed == known[tau]
                    known[tau] = pushed
                i, j = fan.index_of(sigma), fan.index_of(a)
                padded = GroupRingElement(sheaf.stalk(sigma), assemble(sheaf, {j: x.terms}, i, [j]))
                assert assembled_from_faces(sheaf, sigma, known) == padded
                checked += 1
    assert checked > 20


def test_ray_chart_maps_characters_to_pairings():
    # a character is its pairings in the stalk, and the chart takes its
    # class in the character group there
    fan = bench_fan("p1xp1xp1")
    sheaf = sheaf_a0(fan)
    rng = random.Random(1)
    for sigma in fan.cones:
        chart, inverse = sheaf.stalk(sigma).chart()
        k = len(sigma.rays)
        assert chart @ inverse == IntMatrix.identity(k)
        for _ in range(5):
            m = tuple(rng.randint(-4, 4) for _ in range(fan.lattice.rank))
            pairing = tuple(sum(a * b for a, b in zip(m, v)) for v in sigma.rays)
            assert GroupRingElement.character(sheaf.stalk(sigma), m).terms == {pairing: 1}
            coords = sigma.character_quotient().project(m)
            assert chart.apply(coords) == pairing and inverse.apply(pairing) == coords


def one_cone_sheaf(rays):
    cone = Cone.from_rays(Lattice(2), rays)
    return cone, sheaf_a0(Fan.from_max_cones(Lattice(2), [cone]))


def test_ray_chart_needs_a_smooth_cone():
    # only a ray stalk carries a chart, and a non-smooth cone's stalk is none
    cone, sheaf = one_cone_sheaf([(1, 0), (1, 2)])
    assert not cone.is_smooth() and not sheaf.smooth
    stalk = sheaf.stalk(cone)
    assert not isinstance(stalk, RayStalk) and not hasattr(stalk, "chart")


def test_ray_chart_cross_check_raises_certificate_error(monkeypatch):
    adjugate = sheaves.adjugate

    def wrong_inverse(a):
        return IntMatrix([[-x for x in row] for row in adjugate(a).rows], ncols=a.ncols)

    cone, sheaf = one_cone_sheaf([(1, 0), (1, 1)])
    assert cone.is_smooth()
    monkeypatch.setattr(sheaves, "adjugate", wrong_inverse)
    with pytest.raises(CertificateError, match="ray chart"):
        sheaf.stalk(cone).chart()


def test_smoothness_is_decided_once_per_cone(monkeypatch):
    # a full-dimensional cone is smooth when |det| = 1 of its rays: one
    # determinant at construction, none when asked again
    calls = []
    determinant = cones.det

    def counting(a):
        calls.append(a)
        return determinant(a)

    monkeypatch.setattr(cones, "det", counting)
    fan = bench_fan("p3")
    for _ in range(3):
        assert fan.is_smooth()
    assert len(calls) == len(fan.max_cones)


@pytest.mark.parametrize("path", ["fans/p2.json", "bench/fans/f1.json", "bench/fans/p3.json",
                                  "bench/fans/p1xp1xp1.json"])
def test_the_contraction_solves_kernel_sampled_cocycles(no_solver, path):
    # an independent check: these cocycles come from the whole system
    # d(z) = 0, not from the per-cone split the contraction is built on
    # drawn over the character groups, read into ray coordinates through
    # the report boundary
    fan = load(os.path.join(HERE, os.pardir, path))
    cx, smith = CechComplex(fan), smith_complex(fan)
    for level in (1, 2):
        rng = random.Random(level)
        for _ in range(2):
            z = cochain_from_jsonable(cx, cochain_to_jsonable(kernel_cocycle(smith, level, rng)))
            assert not z.is_zero() and cx.is_cocycle(z)
            b = cx.solve_coboundary(z)
            assert cx.d(b) == z


def all_parts(sheaf, value, cone) -> dict:
    """The tau-parts of value, keyed by face; the reference keys them by
    face number."""
    fan = sheaf.fan
    i = fan.index_of(cone)
    return {fan.cones[t]: part for t, part in split(sheaf, value.terms, i, fan.face_ids[i]).items()}


def assembled(sheaf, parts, cone):
    fan = sheaf.fan
    i = fan.index_of(cone)
    return assemble(sheaf, {fan.index_of(t): p for t, p in parts.items()}, i, fan.face_ids[i])


@RANDOM_FANS
@given(fan=random_smooth_fans(), seed=st.integers(0, 2**32))
def test_assembling_the_split_gives_back_cocycles_and_sections(fan, seed):
    rng = random.Random(seed)
    cx = CechComplex(fan)
    for level in range(1, min(cx.top_level, 2) + 1):
        z = cx.random_cocycle(level, rng)
        for t, value in z.components.items():
            cone = cx.cone_of(t)
            assert assembled(cx.sheaf, all_parts(cx.sheaf, value, cone), cone) == value.terms
    sheaf = sheaf_a0(fan)
    section = random_section(sheaf, random_open_subfan(fan, rng), rng)
    for cone, value in section.components.items():
        assert assembled(sheaf, all_parts(sheaf, value, cone), cone) == value.terms


def counting_projections(monkeypatch) -> list:
    """(cone, the faces its parts come from) for every element built from
    tau-parts from now on (``sheaves._projected``)."""
    built = []
    project = sheaves._projected

    def counting(sheaf, cone, sources):
        sources = list(sources)
        built.append((cone, [tau for tau, _terms, _pick in sources]))
        return project(sheaf, cone, sources)

    monkeypatch.setattr(sheaves, "_projected", counting)
    return built


def test_assembling_reads_the_parts_of_the_cone_only(monkeypatch, tmp_path):
    # a count, not a timing: on a 64-cone ladder a cone is built from
    # the parts of its own faces only, at most 4 of them, each once
    path = tmp_path / "ladder-64.json"
    path.write_text(json.dumps(load_gen_fans().ladder(64)))
    built = counting_projections(monkeypatch)
    fan = load(str(path))
    sheaf = sheaf_a0(fan)
    rng = random.Random(3)
    section = random_section(sheaf, fan.full_subfan(), rng)
    assert section.check() and len(built) == len(fan.max_cones) == 64
    assert extend_section(random_section(sheaf, random_open_subfan(fan, rng), rng)).check()
    assert cli.main(["check-flasque", str(path), "--trials", "3", "--json"]) == 0
    assert len(built) > 64 and any(faces for _cone, faces in built)
    for cone, faces in built:
        assert len(set(faces)) == len(faces) <= 4
        assert set(faces) <= set(fan.face_ids[cone])


@RANDOM_FANS
@given(fan=random_smooth_fans(), seed=st.integers(0, 2**32), dense=st.booleans())
def test_the_draw_and_the_extension_are_the_two_step_split(monkeypatch, fan, seed, dense):
    # sparse: random_section's own draw, its monomials read as drawn;
    # dense: a monomial on every cone of the domain, projected into place
    # as the draw does.  Either way each value, and each value of the
    # extension, is the reference's: restrict, project, pad and add
    sheaf = sheaf_a0(fan)
    rng = random.Random(seed)
    draws = []
    draw = sheaves.random_monomial

    def recorded(cone, rng):
        draws.append((fan.find(cone), draw(cone, rng)))
        return draws[-1][1]

    for _ in range(3):
        domain = random_open_subfan(fan, rng)
        cones = domain.max_ids()
        with monkeypatch.context() as patch:
            patch.setattr(sheaves, "random_monomial", recorded)
            draws.clear()
            if dense:
                drawn = {c: sheaves.random_monomial(fan.cones[c], rng) for c in sorted(domain.ids)}
                values = {}
                for c in cones:
                    sources = [(tau, drawn[tau], tuple) for tau in fan.face_ids[c]]
                    values[c] = sheaves._projected(sheaf, c, sources)
                section = Section.by_id(sheaf, domain, values)
            else:
                section = random_section(sheaf, domain, rng)
                drawn = dict(draws[-min(sheaves.SPARSE_DRAWS, len(domain.ids)) :])
        assert section.check()
        assert {c: v.terms for c, v in section.values.items()} == drawn_values(sheaf, drawn, cones)
        extended = extend_section(section, depth=0)
        assert {c: v.terms for c, v in extended.values.items()} == extended_values(section)


@RANDOM_FANS
@given(fan=random_smooth_fans(), seed=st.integers(0, 2**32))
def test_a_part_restricts_to_zero_on_the_proper_faces(fan, seed):
    rng = random.Random(seed)
    sheaf = sheaf_a0(fan)
    for sigma in fan.max_cones:
        value = random_element(sheaf.stalk(sigma), rng)
        for tau, part in all_parts(sheaf, value, sigma).items():
            assert part
            for rho in fan.faces_of(tau):
                if rho != tau:
                    part_of_tau = GroupRingElement(sheaf.stalk(tau), part)
                    assert part_of_tau.pushforward(sheaf.restriction(tau, rho)).is_zero()


@pytest.mark.parametrize("name", ["f1", "p3", "p1xp1xp1"])
def test_smooth_checks_make_no_kernel_call_after_the_build(monkeypatch, name):
    # a count, not a timing: once the sheaf's stalks are built, sampling
    # and solving on a smooth fan reduce no integer system
    built, calls = [], []

    def after_build(f):
        def wrapped(*args, **kwargs):
            out = f(*args, **kwargs)
            built.append(True)
            return out

        return wrapped

    def counted(label, f):
        def wrapped(*args, **kwargs):
            if built:
                calls.append(label)
            return f(*args, **kwargs)

        return wrapped

    for module in (cech, cli):
        monkeypatch.setattr(module, "sheaf_a0", after_build(module.sheaf_a0))
    for module in (intlinalg, cones, monoids, support_solver):
        monkeypatch.setattr(module, "kernel", counted("kernel", module.kernel))
    for module in (cech, sheaves):
        monkeypatch.setattr(
            module,
            "sample_nonzero_solution",
            counted("sample_nonzero_solution", module.sample_nonzero_solution),
        )
    path = os.path.join(HERE, os.pardir, "bench", "fans", f"{name}.json")
    for argv in (
        ["check-exactness", path, "--level", "1", "--trials", "3"],
        ["check-exactness", path, "--level", "2", "--trials", "3"],
        ["check-flasque", path, "--trials", "5"],
    ):
        built.clear()  # each command loads its fan again
        assert cli.main(argv + ["--json"]) == 0
        assert built and calls == []
