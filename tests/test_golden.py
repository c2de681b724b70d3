"""Same-seed reports must not change across refactors.

Each file in ``tests/golden/`` is the ``--json`` output of the command
listed here.  The 12 ``check-*`` reports were regenerated when smooth
fans came to be split per cone: cocycles and sections are drawn per
cone (no longer as kernel elements of the whole system), witnesses are
the contraction and the extension by zero parts, and the results gain a
``split`` line; so the sampled data, the certificates and the supports
all changed then.  The eight ``exactness-*`` reports were regenerated
again when smooth-fan cocycles came to be drawn sparse, as z = d(b0)
for one random monomial on each of a few random tuples one level down
(``cech.SPARSE_TUPLES``): the cocycles, their witnesses and their
supports changed, and the reports shrank.  The ``check-flasque``
reports did not change then.  The ``k0-global`` reports did not change
when cocycles were first split per cone, nor when degree-zero
cohomology came to be kept as global sections rather than level-0
cochains; the rank-3 and non-smooth ``k0-global`` reports were captured
before that change.  ``flasque-p1xp1xp1``, the benchmark's largest
flasque job, was captured before coordinate selections and the ray
helpers came to run as compiled pickers, and did not change with them.
The four rank-4 and ``info`` reports (``p4.json`` is P4: rays e1..e4
and -(e1 + .. + e4), five maximal cones) were captured before cones came
to keep the kernel and the smoothness found by the one Smith reduction
of their ray matrix, and ray charts to be inverted by cofactors; in
``info-quadric-cone`` the determinant test decides that the maximal
cone is not smooth.  The three non-smooth ``check-*`` reports
(``weighted-p2.json`` is the weighted projective plane P(1,1,2): rays
(1,0), (0,1), (-1,-2)) were captured before cones came to be built from
their sorted extreme rays, before the cover complex lost its incidence
plan, and before parallelepiped points were found in integers; they go
through the kernel sampler and the support solver, and
``flasque-weighted-p2`` ends in exit 3 when the solver gives up.  The
seven ``*-p1xp1xp1*`` reports of ``info``, ``hilbert``, ``k0-affine``
and ``kclass`` (cone 7 is a 2-dimensional face, cone 1 a ray) were
captured before the faces of simplicial cones came to be certified on
first use.  ``info-p4`` was regenerated when completeness came to be
decided by one ridge count at every rank: its ``complete`` changed from
null to true, and nothing else did.  The three ``*-simplex-113``
reports (``simplex-113.json`` is the one cone on (1,0,0), (0,1,0),
(1,1,3); cone 7 is that non-smooth simplex, with a Hilbert basis of
seven elements, and cone 6 a face whose dual has lineality) were
captured before parallelepiped points came from one Smith reduction of
the ray matrix and a cone monoid's coset group from its cone's
character group.  ``k0-affine-simplex-113`` and
``k0-affine-simplex-113-face`` (non-smooth character groups), and
``info-cube`` and ``hilbert-cube`` (``cube.json`` is the face fan of
the cube [-1, 1]^3: six square maximal cones, ids 21 to 26) were
captured before character groups came to be certified where they are
built and splittings on their first read.  The three ``*-ladder-12``
reports (rank 2, 12 maximal cones, whose stalks are shared by many
cones) were captured before the ray charts moved from the cones to the
sheaf.  ``exactness-p2-mod-z3-level1`` (``p2-mod-z3.json`` is P2 / Z3:
rays (1,0), (1,3), (-2,-3)) pins the bytes of a ``check-exactness``
report whose every trial gives up, with exit 3; it was captured before
the trial loop moved from ``kfan.cech`` into the command.  Its level-1
cohomology is Z^2, so a random cocycle there need not be a coboundary;
deciding exactness on simplicial fans (ROADMAP item 4) will change this
report on purpose.  The three ``*-p1xp1-mod-z2`` reports
(``p1xp1-mod-z2.json`` is (P1 x P1) / Z2: rays (1,1), (-1,1), (-1,-1),
(1,-1), every maximal cone of determinant 2) were captured before the
cover complex and the non-smooth extension search came to take their
equations from one builder, ``kfan.sheaves.cover_system``.  They are the
first to solve a level-1 right-hand side and the first with restriction
equations on four maximal cones.  Its level-1 cohomology is Z, so
``exactness-p1xp1-mod-z2-level1`` ends in exit 3 as every trial gives
up; item 4 will change that exit on purpose too.

Every report golden was re-encoded at once when reports came to be
written as compact canonical JSON by the stdlib's C encoder
(``separators=(",", ":")`` in place of ``indent=2``): each file became
``json.dumps(json.loads(old), sort_keys=True, separators=(",", ":"))``
and a newline, with the same parsed content, so the history above
still holds for what each report says.  A change meant to alter these
reports must say so and regenerate them from the repository root with

    PYTHONPATH=src python -m kfan.cli <arguments> --json > tests/golden/<name>.json
"""

import hashlib
import os
import subprocess
import sys

import pytest

from kfan import cli
from kfan.cli import main, run

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

# chi^(1,0) on three of the four pieces and 1 on the last: not a member
NON_MEMBER = '{"0":[[[1,0],1]],"1":[[[1,0],1]],"2":[[[1,0],1]],"3":[[[0,0],1]]}'
# values on two of the eight octants, zero elsewhere: pieces 0 and 1 already disagree
NON_MEMBER_3D = '{"0":[[[1,0,0],1]],"5":[[[0,0,1],2]]}'
# shifts of a graded module over the monoid of a face of P1xP1xP1
SHIFTS_3D = "[[0,0,0],[1,0,2],[-1,1,0],[2,2,5]]"
# shifts over the monoid of a face of the cone on (1,0,0), (0,1,0), (1,1,3)
SHIFTS_113 = "[[0,0,0],[1,0,0],[0,0,1]]"

GOLDEN = {
    "exactness-p2-level1": "check-exactness fans/p2.json --level 1 --trials 4 --seed 7",
    "exactness-p2-level2": "check-exactness fans/p2.json --level 2 --trials 3 --seed 2",
    "exactness-p1xp1-level1": "check-exactness fans/p1xp1.json --level 1 --trials 3 --seed 11",
    "exactness-p1xp1-level2": "check-exactness fans/p1xp1.json --level 2 --trials 3 --seed 4",
    "exactness-f1-level1": "check-exactness tests/golden/f1.json --level 1 --trials 3 --seed 5",
    "exactness-f1-level2": "check-exactness tests/golden/f1.json --level 2 --trials 2 --seed 8",
    "flasque-p2": "check-flasque fans/p2.json --trials 4 --seed 3",
    "flasque-p1xp1": "check-flasque fans/p1xp1.json --trials 3 --seed 6",
    "flasque-f1": "check-flasque tests/golden/f1.json --trials 3 --seed 9",
    "exactness-p1xp1xp1-level1": "check-exactness tests/golden/p1xp1xp1.json --level 1 --trials 3 --seed 13",
    "exactness-p1xp1xp1-level2": "check-exactness tests/golden/p1xp1xp1.json --level 2 --trials 2 --seed 10",
    "flasque-p3": "check-flasque tests/golden/p3.json --trials 3 --seed 12",
    "flasque-p1xp1xp1": "check-flasque bench/fans/p1xp1xp1.json --trials 10 --seed 3",
    "k0-global-p1xp1-sample": "k0-global fans/p1xp1.json --sample 5",
    "k0-global-p1xp1-element": f"k0-global fans/p1xp1.json --element {NON_MEMBER}",
    "k0-global-hirzebruch2-sample": "k0-global fans/hirzebruch2.json --sample 5",
    "k0-global-hirzebruch2-element": f"k0-global fans/hirzebruch2.json --element {NON_MEMBER}",
    "k0-global-p1xp1xp1-sample": "k0-global tests/golden/p1xp1xp1.json --sample 3 --seed 4",
    "k0-global-quadric-cone-sample": "k0-global fans/quadric-cone.json --sample 2 --seed 1",
    "k0-global-p1xp1xp1-element": f"k0-global tests/golden/p1xp1xp1.json --element {NON_MEMBER_3D}",
    "info-p4": "info tests/golden/p4.json",
    "exactness-p4-level2": "check-exactness tests/golden/p4.json --level 2 --trials 2 --seed 14",
    "flasque-p4": "check-flasque tests/golden/p4.json --trials 2 --seed 15",
    "info-quadric-cone": "info fans/quadric-cone.json",
    "exactness-weighted-p2-level1": "check-exactness tests/golden/weighted-p2.json --level 1 --trials 2 --experimental-nonsmooth",
    "flasque-quadric-cone": "check-flasque fans/quadric-cone.json --trials 2 --seed 1 --experimental-nonsmooth",
    "flasque-weighted-p2": "check-flasque tests/golden/weighted-p2.json --trials 3 --seed 2 --experimental-nonsmooth",
    "info-p1xp1xp1": "info bench/fans/p1xp1xp1.json",
    "hilbert-p1xp1xp1-face": "hilbert bench/fans/p1xp1xp1.json --cone 7",
    "hilbert-p1xp1xp1-ray": "hilbert bench/fans/p1xp1xp1.json --cone 1",
    "k0-affine-p1xp1xp1-face": "k0-affine bench/fans/p1xp1xp1.json --cone 7",
    "k0-affine-p1xp1xp1-ray": "k0-affine bench/fans/p1xp1xp1.json --cone 1",
    "kclass-p1xp1xp1-face": f"kclass --fan bench/fans/p1xp1xp1.json --cone 7 --shifts {SHIFTS_3D}",
    "kclass-p1xp1xp1-ray": f"kclass --fan bench/fans/p1xp1xp1.json --cone 1 --shifts {SHIFTS_3D}",
    "hilbert-simplex-113": "hilbert tests/golden/simplex-113.json --cone 7",
    "hilbert-simplex-113-face": "hilbert tests/golden/simplex-113.json --cone 6",
    "kclass-simplex-113-face": f"kclass --fan tests/golden/simplex-113.json --cone 6 --shifts {SHIFTS_113}",
    "k0-affine-simplex-113": "k0-affine tests/golden/simplex-113.json --cone 7",
    "k0-affine-simplex-113-face": "k0-affine tests/golden/simplex-113.json --cone 6",
    "info-cube": "info tests/golden/cube.json",
    "hilbert-cube": "hilbert tests/golden/cube.json --cone 26",
    "exactness-ladder-12-level1": "check-exactness bench/fans/ladder-12.json --level 1 --trials 3 --seed 17",
    "exactness-ladder-12-level2": "check-exactness bench/fans/ladder-12.json --level 2 --trials 2 --seed 18",
    "flasque-ladder-12": "check-flasque bench/fans/ladder-12.json --trials 3 --seed 19",
    "exactness-p2-mod-z3-level1": "check-exactness tests/golden/p2-mod-z3.json --level 1 --trials 2 --seed 0 --experimental-nonsmooth",
    "exactness-p1xp1-mod-z2-level1": "check-exactness tests/golden/p1xp1-mod-z2.json --level 1 --trials 3 --seed 0 --experimental-nonsmooth",
    "exactness-p1xp1-mod-z2-level2": "check-exactness tests/golden/p1xp1-mod-z2.json --level 2 --trials 3 --seed 0 --experimental-nonsmooth",
    "flasque-p1xp1-mod-z2": "check-flasque tests/golden/p1xp1-mod-z2.json --trials 4 --seed 5 --experimental-nonsmooth",
}
# the reports of these commands end in exit 1 (a non-member, with witness)
# or in exit 3 (the support solver gave up on a non-smooth fan)
EXIT_STATUS = {
    "k0-global-p1xp1-element": 1,
    "k0-global-hirzebruch2-element": 1,
    "k0-global-p1xp1xp1-element": 1,
    "flasque-weighted-p2": 3,
    "exactness-p2-mod-z3-level1": 3,
    "exactness-p1xp1-mod-z2-level1": 3,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden_file(name, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(GOLDEN[name].split() + ["--json"]) == EXIT_STATUS.get(name, 0)
    with open(os.path.join("tests", "golden", f"{name}.json"), encoding="utf-8") as f:
        assert capsys.readouterr().out == f.read()


def test_every_golden_command_twice_in_one_process(monkeypatch, capsys):
    # the first round builds each fan once and its later commands reuse
    # it; the second round runs every command warm, in reverse order, so
    # each one also runs after other fans were built and read
    monkeypatch.chdir(ROOT)
    cli._built.cache_clear()
    for names in (sorted(GOLDEN), sorted(GOLDEN, reverse=True)):
        for name in names:
            assert main(GOLDEN[name].split() + ["--json"]) == EXIT_STATUS.get(name, 0), name
            with open(os.path.join("tests", "golden", f"{name}.json"), encoding="utf-8") as f:
                assert capsys.readouterr().out == f.read(), name


def assert_plain(value, where="report"):
    """Only dicts with str keys, lists, strs, exact ints, bools and None:
    the C encoder would write a tuple as a list, and an ``int`` subclass
    or a float by its own text, without a word."""
    cls = type(value)
    if cls is dict:
        for key, item in value.items():
            assert type(key) is str, f"{where}: key {key!r} is a {type(key).__name__}"
            assert_plain(item, f"{where}[{key!r}]")
    elif cls is list:
        for i, item in enumerate(value):
            assert_plain(item, f"{where}[{i}]")
    else:
        assert cls in (str, int, bool, type(None)), f"{where}: {value!r} is a {cls.__name__}"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_stays_on_the_writers_fast_paths(name, monkeypatch):
    # the report's bytes follow from its parsed content only while it
    # holds the plain JSON types, and bench/jobs.py compares parsed values
    # with lists
    monkeypatch.chdir(ROOT)
    rep = run(GOLDEN[name].split())
    assert_plain(rep.to_jsonable())
    with open(os.path.join("tests", "golden", f"{name}.json"), encoding="utf-8") as f:
        assert rep.to_json() + "\n" == f.read()


class Int(int):
    pass


@pytest.mark.parametrize(
    "value",
    [(1, 2), Int(3), 0.5, {1: 0}, {"a": [[0, 1], (2,)]}, {"b": {"c": [Int(0)]}}],
    ids=["tuple", "int-subclass", "float", "int-key", "nested-tuple", "nested-subclass"],
)
def test_plain_walk_refuses_what_the_encoder_would_write_anyway(value):
    with pytest.raises(AssertionError):
        assert_plain({"results": value})


def test_the_same_seed_sweep_hashes_each_run_of_p1(monkeypatch, capsys):
    # tests/same_seed_sweep.py compares two checkouts: on P1 it runs level
    # 1, check-flasque and k0-global at three seeds, then info and, on
    # each of the three cones, k0-affine, hilbert and kclass, each line
    # the sha256 of what the run printed
    monkeypatch.chdir(ROOT)
    script = os.path.join("tests", "same_seed_sweep.py")
    proc = subprocess.run(
        [sys.executable, script, "fans/p1.json"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    commands = ["check-exactness fans/p1.json --level 1", "check-flasque fans/p1.json"]
    argvs = [f"{cmd} --trials 3 --seed {seed} --json" for cmd in commands for seed in range(3)]
    argvs += [f"k0-global fans/p1.json --sample 3 --seed {seed} --json" for seed in range(3)]
    argvs.append("info fans/p1.json --json")
    for i in range(3):
        argvs += [
            f"k0-affine fans/p1.json --cone {i} --json",
            f"hilbert fans/p1.json --cone {i} --json",
            f"kclass --fan fans/p1.json --cone {i} --shifts [[0],[1]] --json",
        ]
    lines = [line.split("\t") for line in proc.stdout.splitlines()]
    assert [argv for argv, *_ in lines] == argvs
    empty = hashlib.sha256(b"").hexdigest()
    for argv, status, out, err in lines:
        assert (status, err) == ("exit=0", f"stderr={empty}")
        assert main(argv.split()) == 0
        report = capsys.readouterr().out.encode()
        assert out == f"stdout={hashlib.sha256(report).hexdigest()}"
