"""Faces of simplicial cones are certified on first use.

A fan builds each face of a simplicial maximal cone, and ``Cone.faces``
each face of a simplicial cone, from its ray tuple alone
(``Cone._face``): the maximal cone's certificate covers the independence
and primitivity of its rays.  The face's Smith reduction runs on the
first call of ``perp_lattice()`` or ``is_smooth()``, and its facets are
found and checked by the pairing certificate on the first read of
``facets``.  Every face must then read as the cone ``Cone.from_rays``
certifies on the same rays, and a wrong normal vector must still raise
``CertificateError`` at that first read, also under ``python -O``.
"""

import glob
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings

from kfan import cli, cones
from kfan.cones import Cone, Fan, NotStronglyConvex
from kfan.fanfile import build_fan, load_fan_file
from kfan.intlinalg import CertificateError
from kfan.report import EXIT_VERIFICATION_FAILURE
from test_constructive import RANDOM_FANS, random_smooth_fans
from test_fan_construction import ray_lists

HERE = os.path.dirname(__file__)
ROOT = os.path.join(HERE, os.pardir)


def fan_files() -> list[str]:
    """``fans/``, ``bench/fans/`` and the fan files among the goldens."""
    paths = sorted(glob.glob(os.path.join(ROOT, "fans", "*.json")))
    paths += sorted(glob.glob(os.path.join(ROOT, "bench", "fans", "*.json")))
    for path in sorted(glob.glob(os.path.join(HERE, "golden", "*.json"))):
        with open(path, encoding="utf-8") as f:
            if "max_cones" in json.load(f):
                paths.append(path)
    return paths


def load(path):
    return build_fan(load_fan_file(path))


def assert_reads_as_certified(cone: Cone) -> None:
    ref = Cone.from_rays(cone.lattice, cone.rays)
    assert cone.rays == ref.rays
    assert cone.dim == ref.dim
    assert cone.is_smooth() == ref.is_smooth()
    assert cone.perp_lattice().rows == ref.perp_lattice().rows
    assert cone.facets == ref.facets


def assert_faces_read_as_certified(fan) -> None:
    for cone in fan.cones:
        assert_reads_as_certified(cone)
    for sigma in fan.max_cones:
        for tau in Fan.from_max_cones(fan.lattice, [sigma]).faces_of(sigma):
            assert_reads_as_certified(tau)


@pytest.mark.parametrize("path", fan_files(), ids=os.path.basename)
def test_every_face_reads_as_the_cone_certified_on_its_rays(path):
    assert_faces_read_as_certified(load(path))


@RANDOM_FANS
@given(fan=random_smooth_fans())
def test_faces_of_random_smooth_fans_read_as_certified(fan):
    assert_faces_read_as_certified(fan)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ray_lists())
def test_a_face_built_from_its_rays_is_the_cone_from_rays(data):
    # every face of a simplicial cone, as ``_face`` builds it from the
    # sorted ray tuple and as ``from_rays`` certifies it; the hash is
    # read first, before anything is found and kept
    lattice, rays = data
    try:
        cone = Cone.from_rays(lattice, rays)
    except NotStronglyConvex:
        cone = None
    assume(cone is not None and cone.is_simplicial())
    for t in cones._face_rays(cone):
        face, ref = Cone._face(lattice, t), Cone.from_rays(lattice, t)
        assert hash(face) == hash(ref) and face == ref
        assert face.rays == ref.rays and face.dim == ref.dim
        assert face.facets == ref.facets
        assert face.perp_lattice().rows == ref.perp_lattice().rows
        assert face.is_smooth() == ref.is_smooth()


@pytest.mark.parametrize("name, rank", [("p1xp1xp1", 3), ("p3", 3), ("ladder-12", 2)])
def test_a_fan_build_certifies_its_maximal_cones_only(monkeypatch, name, rank):
    # a count, not a timing: one normal vector per facet of a maximal
    # cone and no Smith reduction (their |det| decides smoothness); the
    # faces reduce and find their facets when first asked
    counts = {"normal_vector": 0, "smith_kernel": 0}
    for fn in counts:
        original = getattr(cones, fn)

        def counting(*args, fn=fn, original=original):
            counts[fn] += 1
            return original(*args)

        monkeypatch.setattr(cones, fn, counting)
    fan = load(os.path.join(ROOT, "bench", "fans", f"{name}.json"))
    assert counts == {"normal_vector": rank * len(fan.max_cones), "smith_kernel": 0}
    faces = [c for c in fan.cones if c not in fan.max_cones and c.rays]
    for face in faces:
        face.facets
        face.is_smooth()
    assert counts["smith_kernel"] == len(faces)
    assert counts["normal_vector"] == rank * len(fan.max_cones) + sum(len(c.rays) for c in faces)


def test_a_wrong_normal_vector_raises_at_the_first_facets_read(monkeypatch):
    fan = load(os.path.join(ROOT, "bench", "fans", "p1xp1xp1.json"))
    face = next(c for c in fan.cones if c.dim == 2)
    monkeypatch.setattr(cones, "normal_vector", lambda a: (1,) * a.ncols)
    for _ in range(2):  # a failed read keeps nothing
        with pytest.raises(CertificateError, match="fails the pairing check"):
            face.facets
    with pytest.raises(CertificateError, match="fails the pairing check"):
        face.dual()


def test_a_face_failing_its_first_read_fails_the_command(monkeypatch, capsys):
    # the 24 normal vectors of the 8 maximal cones are right, every
    # later one is wrong: the fan builds, and the face's facets fail
    # when ``hilbert`` reads them
    real, calls = cones.normal_vector, []

    def wrong_after_the_maximal_cones(a):
        calls.append(a)
        return real(a) if len(calls) <= 24 else (1,) * a.ncols

    monkeypatch.setattr(cones, "normal_vector", wrong_after_the_maximal_cones)
    path = os.path.join(ROOT, "bench", "fans", "p1xp1xp1.json")
    assert cli.main(["hilbert", path, "--cone", "7"]) == EXIT_VERIFICATION_FAILURE
    assert "fails the pairing check" in capsys.readouterr().err
    assert len(calls) == 25


WRONG_NORMAL_SCRIPT = """
import sys
from kfan import cones
from kfan.fanfile import build_fan, load_fan_file
from kfan.intlinalg import CertificateError

fan = build_fan(load_fan_file(sys.argv[1]))
cones.normal_vector = lambda a: (1,) * a.ncols
for face in fan.cones:
    if 0 < face.dim < 3:
        try:
            face.facets
        except CertificateError as e:
            print(e)
"""


def test_a_wrong_normal_vector_raises_under_python_O():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    path = os.path.join(ROOT, "bench", "fans", "p1xp1xp1.json")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", WRONG_NORMAL_SCRIPT, path],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the 6 rays and 12 two-dimensional faces of P1 x P1 x P1
    assert proc.stdout.count("fails the pairing check") == 18
