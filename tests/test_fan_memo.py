"""Each fan is built once per process.

``kfan.cli`` reads the fan file on every command and keeps the parse and
the certified fan of each distinct (path, text), at most 16 of them, for
the later commands of the process.  ``sheaf_a0`` keeps one sheaf per
fan, so a warm command reuses the stalks, charts and restrictions an
earlier one built and certified, and ``intlinalg.quotient`` one
character group per perp lattice, which K_0 of an affine piece and a
cone's monoid read too.  Each cone of the kept fan keeps its dual, the
dual its Hilbert basis, and the fan's whole open set the agreement walk
of its maximal cones, so a warm ``hilbert`` or membership finds none of
them again.  A file that fails to load is never kept.
"""

import dataclasses
import glob
import importlib.util
import json
import os
import sys
from collections import Counter

import pytest

from kfan import cli, cones, intlinalg, monoids, sheaves, support_solver
from kfan.cech import CechComplex, H0Ring
from kfan.cli import main, run
from kfan.fanfile import FanFile, build_fan, load_fan_file
from kfan.sheaves import sheaf_a0

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
P1XP1XP1 = os.path.join(ROOT, "bench", "fans", "p1xp1xp1.json")
P2 = {"lattice_rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [2, 0]]}
P1XP1 = {
    "lattice_rank": 2,
    "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
    "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]],
}
# two overlapping quadrants: NotAFan, exit 2
OVERLAP = {"lattice_rank": 2, "rays": [[1, 0], [0, 1], [1, 1], [1, -1]], "max_cones": [[0, 1], [2, 3]]}

WARM_COMMANDS = [
    ["check-flasque", P1XP1XP1, "--trials", "4", "--seed", "3"],
    ["check-exactness", P1XP1XP1, "--level", "1", "--trials", "3", "--seed", "13"],
    ["check-exactness", P1XP1XP1, "--level", "2", "--trials", "2", "--seed", "10"],
    ["k0-global", P1XP1XP1, "--sample", "3", "--seed", "4"],
]


def write(tmp_path, data, name="fan.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_a_fan_has_one_sheaf():
    fan = build_fan(load_fan_file(P1XP1XP1))
    assert sheaf_a0(fan) is sheaf_a0(fan)
    assert CechComplex(fan).sheaf is H0Ring(fan).sheaf is sheaf_a0(fan) is fan.sheaf
    # another build of the same file is another fan, with its own sheaf
    assert sheaf_a0(build_fan(load_fan_file(P1XP1XP1))) is not sheaf_a0(fan)


def builds(monkeypatch) -> dict:
    """Count, from now on, the fans built and the character groups,
    ray charts (each inverted by one adjugate) and face pickers that
    a sheaf builds."""
    counts = dict.fromkeys(["fan", "character_quotient", "chart", "RayRestriction"], 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cones.Fan, "from_rays_and_indices",
                        classmethod(counting("fan", cones.Fan.from_rays_and_indices.__func__)))
    monkeypatch.setattr(cones.Cone, "character_quotient",
                        counting("character_quotient", cones.Cone.character_quotient))
    monkeypatch.setattr(sheaves, "adjugate", counting("chart", sheaves.adjugate))
    monkeypatch.setattr(sheaves, "RayRestriction", counting("RayRestriction", sheaves.RayRestriction))
    return counts


@pytest.mark.parametrize("argv", WARM_COMMANDS, ids=lambda argv: " ".join(argv[:1] + argv[2:]))
def test_a_warm_command_builds_nothing_and_writes_the_same_bytes(monkeypatch, argv):
    counts = builds(monkeypatch)
    cold = run(argv).to_json()
    assert all(counts.values()), counts
    for name in counts:
        counts[name] = 0
    warm = run(argv).to_json()
    assert counts == dict.fromkeys(counts, 0)
    assert warm == cold


def test_one_command_warms_the_others(monkeypatch):
    # the sheaf is the fan's: stalks, charts and pickers built by one
    # command serve every later command on the same file
    for argv in WARM_COMMANDS:
        run(argv)
    counts = builds(monkeypatch)
    for argv in reversed(WARM_COMMANDS):
        run(argv)
    assert counts == dict.fromkeys(counts, 0)


def test_a_rewritten_file_gives_the_new_fan(tmp_path):
    path = write(tmp_path, P2)
    assert run(["info", path]).results["num_cones"] == 7
    write(tmp_path, P1XP1)
    assert run(["info", path]).results["num_cones"] == 9
    write(tmp_path, P2)
    assert run(["info", path]).results["num_cones"] == 7
    # the memo is keyed by the text: the first content is still kept
    assert cli._built.cache_info().hits == 1


def test_a_file_that_fails_to_load_is_never_kept(tmp_path, capsys):
    path = write(tmp_path, OVERLAP)
    messages = []
    for _ in range(3):
        assert main(["info", path]) == 2
        messages.append(capsys.readouterr().err)
    assert messages[0].startswith(f"error: {path}: ") and len(set(messages)) == 1
    assert cli._built.cache_info().currsize == 0
    # a file that does not parse fails each time too, and the same file,
    # once mended, loads
    (tmp_path / "fan.json").write_text("{")
    for _ in range(2):
        assert main(["info", path]) == 2
        assert "invalid JSON" in capsys.readouterr().err
    write(tmp_path, P2)
    assert main(["info", path]) == 0
    assert cli._built.cache_info().currsize == 1


def test_the_memo_stays_within_its_bound(tmp_path):
    bound = cli._built.cache_info().maxsize
    assert bound == 16
    paths = [write(tmp_path, dict(P2, name=f"P2 copy {i}"), f"fan{i}.json") for i in range(bound + 5)]
    for path in paths:
        assert run(["info", path]).results["num_cones"] == 7
    assert cli._built.cache_info().currsize == bound
    # the first files were dropped, and load again as before
    assert run(["info", paths[0]]).inputs["fan"]["name"] == "P2 copy 0"


def test_the_shared_parse_is_frozen():
    ff = load_fan_file(os.path.join(ROOT, "fans", "p2.json"))
    assert isinstance(ff, FanFile) and isinstance(ff.warnings, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ff.warnings = ["added"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        ff.rays = ()


def test_warnings_are_written_the_same_on_every_load(tmp_path):
    path = write(tmp_path, {"lattice_rank": 2, "rays": [[2, 0], [0, 1]], "max_cones": [[0, 1]]})
    first, second = run(["info", path]), run(["info", path])
    assert first.inputs["warnings"] == second.inputs["warnings"] == [
        "ray 0 [2, 0] normalized to primitive [1, 0]"
    ]
    assert first.to_json() == second.to_json()


def bench_jobs(monkeypatch):
    """The benchmark's job lists (``bench/jobs.py``), whose fan paths are
    relative to the root of the repository."""
    spec = importlib.util.spec_from_file_location("bench_jobs", os.path.join(ROOT, "bench", "jobs.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_a_warm_k0_ladder_pass_makes_no_smith_reduction(monkeypatch):
    # run a second time in the process, the pass reads every fan, sheaf
    # and character group from the first, and each cone's dual and the
    # Hilbert basis ``hilbert`` found on it: no Smith reduction is left
    monkeypatch.chdir(ROOT)
    jobs = bench_jobs(monkeypatch)
    fans = jobs.setup_fans(jobs.WORKLOADS["k0-ladder"][0])
    job_list = jobs.make_pass("k0-ladder", 1, 0, fans)
    reductions = Counter()
    reduce = intlinalg.smith_with_inverses

    def counting(*args, **kwargs):
        reductions[sys._getframe(1).f_code.co_name] += 1
        return reduce(*args, **kwargs)

    for module in (intlinalg, monoids, support_solver):
        monkeypatch.setattr(module, "smith_with_inverses", counting)
    cold = [run(job.argv).to_json() for job in job_list]
    assert reductions["_parallelepiped_points"] >= len(jobs.AFFINE_FANS) == 5
    reductions.clear()
    warm = [run(job.argv).to_json() for job in job_list]
    assert warm == cold
    assert reductions == Counter()


def counting_calls(monkeypatch, module, name) -> list:
    """Patch ``module.name`` to record the arguments of each call."""
    calls, real = [], getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_hilbert_and_the_cone_monoid_share_one_hilbert_basis(monkeypatch):
    # the cone on (1, 0), (1, 2): its dual's basis has a third element
    path = os.path.join(ROOT, "fans", "quadric-cone.json")
    calls = counting_calls(monkeypatch, monoids, "_pointed_hilbert_basis")
    first = run(["hilbert", path, "--cone", "3"]).results["hilbert_basis"]
    cone = cli._load(path)[1].cones[3]
    assert cone.dual() is cone.dual()
    generators = monoids.AffineMonoid.from_cone(cone).generators
    assert sorted(map(list, generators)) == first == [[0, 1], [1, 0], [2, -1]]
    assert run(["hilbert", path, "--cone", "3"]).results["hilbert_basis"] == first
    assert len(calls) == 1
    # every read is a fresh list: mutating one leaves the kept basis be
    basis = monoids.hilbert_basis(cone.dual())
    basis.append((7, 7))
    basis.reverse()
    assert monoids.hilbert_basis(cone.dual()) == sorted(generators)
    assert len(calls) == 1


def test_a_hilbert_basis_that_fails_its_first_read_is_not_kept(monkeypatch, capsys):
    path = os.path.join(ROOT, "fans", "quadric-cone.json")
    real, failed = monoids._parallelepiped_points, []

    def fails_once(rays, n):
        if not failed:
            failed.append(rays)
            raise intlinalg.CertificateError("a point is not on the rays")
        return real(rays, n)

    monkeypatch.setattr(monoids, "_parallelepiped_points", fails_once)
    calls = counting_calls(monkeypatch, monoids, "_pointed_hilbert_basis")
    assert main(["hilbert", path, "--cone", "3"]) == 1
    assert "a point is not on the rays" in capsys.readouterr().err
    assert cli._load(path)[1].cones[3].dual()._hilbert is None
    # the next read finds and checks the basis again, and keeps it
    assert run(["hilbert", path, "--cone", "3"]).results["basis_size"] == 3
    assert run(["hilbert", path, "--cone", "3"]).results["basis_size"] == 3
    assert len(failed) == 1 and len(calls) == 2


def test_the_whole_fans_walk_is_listed_once_per_fan(monkeypatch):
    calls = counting_calls(monkeypatch, sheaves, "_comparisons")
    fan = build_fan(load_fan_file(P1XP1XP1))
    ring = H0Ring(fan)
    assert ring.contains(ring.unit()) and ring.contains(ring.character((1, -2, 3)))
    section = ring.character((0, 1, 0))
    assert section.check()
    bad = dict(section.values)
    bad[fan.max_ids[3]] = bad[fan.max_ids[3]] + bad[fan.max_ids[3]]
    assert not ring.contains(sheaves.Section.by_id(ring.sheaf, ring.domain, bad))
    assert sheaves.Section(ring.sheaf, fan.subfan(fan.cones), section.components).check()
    assert len(calls) == 1 and calls[0][1] is fan.max_ids
    walk = fan.full_subfan()._walk
    assert walk == tuple(sheaves._comparisons(fan, list(fan.max_ids)))
    # another list of cones is walked on each call
    tops = list(reversed(fan.max_ids))
    for _ in range(2):
        assert sheaves.first_disagreement(ring.sheaf, tops, [section.values[c] for c in tops]) is None
    assert len(calls) == 4
    # another build of the same file is another fan, with its own walk
    other = build_fan(load_fan_file(P1XP1XP1))
    ring = H0Ring(other)
    assert ring.contains(ring.unit()) and ring.contains(ring.unit())
    assert len(calls) == 5 and calls[4][1] is other.max_ids
    assert other.full_subfan()._walk == walk and other.full_subfan()._walk is not walk


def test_k0_global_lists_the_walk_once_per_fan(monkeypatch):
    calls = counting_calls(monkeypatch, sheaves, "_comparisons")
    for seed in ("1", "2"):
        assert run(["k0-global", P1XP1XP1, "--sample", "4", "--seed", seed]).exit_status == 0
    assert len(calls) == 1


def cone_jobs():
    """``hilbert`` and ``kclass`` with one zero shift on every cone of
    every fan file of the repository."""
    argvs = []
    for path in sorted(glob.glob(os.path.join(ROOT, "fans", "*.json"))
                       + glob.glob(os.path.join(ROOT, "bench", "fans", "*.json"))):
        fan = build_fan(load_fan_file(path))
        zero = json.dumps([[0] * fan.lattice.rank])
        for i in range(len(fan.cones)):
            argvs.append(["hilbert", path, "--cone", str(i), "--json"])
            argvs.append(["kclass", "--fan", path, "--cone", str(i), "--shifts", zero, "--json"])
    return argvs


def test_warm_hilbert_and_kclass_reports_equal_the_cold_ones_on_every_cone(capsys):
    argvs = cone_jobs()
    assert len(argvs) == 2 * 172
    rounds = []
    for _ in range(2):  # cold, then warm
        outcomes = [main(argv) for argv in argvs]
        rounds.append((outcomes, capsys.readouterr()))
    (cold, cold_io), (warm, warm_io) = rounds
    assert cold == warm == [0] * len(argvs)
    assert cold_io.err == warm_io.err == ""
    assert warm_io.out == cold_io.out
