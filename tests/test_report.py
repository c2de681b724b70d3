"""Report bytes and the strict reading of cochain certificates.

``JobReport.to_json`` writes a report as compact canonical JSON, the
bytes of ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``.
"""

import json
import os
import random
import re
import tracemalloc

import pytest

from kfan import cli
from kfan.cech import CechComplex
from kfan.cli import run
from kfan.fanfile import build_fan, load_fan_file
from kfan.monoids import GroupRingElement
from kfan.report import (
    JobReport,
    cochain_from_jsonable,
    cochain_to_jsonable,
    element_from_jsonable,
    element_to_jsonable,
    section_to_jsonable,
)
from kfan.sheaves import sheaf_a0
from test_golden import assert_plain

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
P2 = os.path.join(ROOT, "fans", "p2.json")


def compact(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize(
    "value",
    [
        {1, 2},
        [1, object()],
        {"a": {"b": frozenset()}},
        {"a": 1, 2: 3},
        {(1, 2): 0},
        {1.5: 0, "x": 1},
        b"bytes",
    ],
    ids=["set", "object", "nested-frozenset", "mixed-keys", "tuple-key", "float-str-keys", "bytes"],
)
def test_writer_raises_type_error_like_stdlib(value):
    # no default and no skipped keys: a value that is not JSON fails the
    # report, never written as some text of its own
    with pytest.raises(TypeError):
        compact(value)
    with pytest.raises(TypeError):
        JobReport("info", results={"value": value}).to_json()


# the top cone: a maximal cone of P2, the quadric cone itself
CONES = {"fans/p2.json": "6", "fans/quadric-cone.json": "3"}


@pytest.mark.parametrize(
    "argv",
    [[cmd, fan] for cmd in ("info", "hilbert", "k0-affine") for fan in CONES]
    + [["kclass", "--generators", "[[1]]", "--shifts", "[[0],[1],[1]]"]]
    + [["kclass", "--fan", fan, "--shifts", "[[0,0],[1,1]]"] for fan in CONES],
    ids=" ".join,
)
def test_reports_beyond_the_goldens_match_stdlib(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    fan = next((a for a in argv if a in CONES), None)
    if argv[0] != "info" and fan is not None:
        argv = argv + ["--cone", CONES[fan]]
    rep = run(argv)
    assert isinstance(rep, JobReport) and rep.exit_status == 0
    assert_plain(rep.to_jsonable())
    assert rep.to_json() == compact(rep.to_jsonable())


def test_writer_peak_memory_stays_under_three_report_lengths(monkeypatch):
    # the bound is the one the indented writer met: three lengths of the
    # same report at indent=2, about nine times its compact length
    monkeypatch.chdir(ROOT)
    rep = run(["check-flasque", "bench/fans/p1xp1xp1.json", "--trials", "10", "--seed", "3"])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = rep.to_json()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    data = rep.to_jsonable()
    assert text == compact(data)
    assert peak < 3 * len(json.dumps(data, sort_keys=True, indent=2))


@pytest.fixture(scope="module")
def p2_complex():
    return CechComplex(build_fan(load_fan_file(P2)))


@pytest.fixture(scope="module")
def cocycle():
    """A level-1 witness cocycle of P2 as the report carries it."""
    rep = run(["check-exactness", P2, "--level", "1", "--trials", "1", "--seed", "3"])
    return json.loads(rep.to_json())["certificates"]["witnesses"][0]["cocycle"]


def test_cochain_round_trip(p2_complex, cocycle):
    c = cochain_from_jsonable(p2_complex, cocycle)
    assert c.level == 1 and p2_complex.is_cocycle(c)
    assert cochain_to_jsonable(c) == cocycle


@pytest.mark.parametrize("level", [1.0, 1.9, True, "1", None])
def test_cochain_level_must_be_an_integer(p2_complex, cocycle, level):
    data = dict(cocycle, level=level)
    with pytest.raises(ValueError, match="level"):
        cochain_from_jsonable(p2_complex, data)


@pytest.mark.parametrize(
    "bad", [[0.0, True], [0, 1.0], [0, "1"], [0, None], (0, 1)], ids=str
)
def test_cochain_tuple_entries_must_be_integers(p2_complex, cocycle, bad):
    # [0.0, True] used to load as the tuple (0, 1)
    comps = [[bad, cocycle["components"][0][1]]] + cocycle["components"][1:]
    with pytest.raises(ValueError, match="integer list"):
        cochain_from_jsonable(p2_complex, dict(cocycle, components=comps))


def test_cochain_tuple_must_not_repeat(p2_complex, cocycle):
    # a second entry for a tuple used to overwrite the first
    first = cocycle["components"][0]
    comps = cocycle["components"] + [[list(first[0]), first[1]]]
    with pytest.raises(ValueError, match="repeated"):
        cochain_from_jsonable(p2_complex, dict(cocycle, components=comps))


@pytest.mark.parametrize("bad", [[1, 0], [0, 7], [-1, 2], [0, 0]], ids=str)
def test_cochain_tuple_shape_is_checked_before_its_stalk(p2_complex, cocycle, bad):
    # each of these used to end in KeyError from the stalk lookup
    comps = [[bad, cocycle["components"][0][1]]] + cocycle["components"][1:]
    with pytest.raises(ValueError, match=re.escape(f"tuple {bad!r} is not a level-1 tuple")):
        cochain_from_jsonable(p2_complex, dict(cocycle, components=comps))


@pytest.mark.parametrize(
    "path",
    [
        "fans/p2.json",
        "bench/fans/ladder-12.json",
        "bench/fans/p1xp1xp1.json",  # charts that are signed permutations
        "tests/golden/p4.json",
    ],
)
def test_element_writes_match_the_chart_term_by_term(path):
    # every size of element, through the unrolled map of T^-1, against T^-1 per term
    sheaf = sheaf_a0(build_fan(load_fan_file(os.path.join(ROOT, path))))
    rng = random.Random(path)
    for cone in sheaf.fan.cones:
        group = sheaf.stalk(cone)
        inverse = group.chart()[1]
        for size in (0, 1, 3, 4, 12):
            keys = {tuple(rng.randint(-4, 4) for _ in cone.rays) for _ in range(size)}
            el = GroupRingElement(group, {key: rng.choice([-3, -1, 1, 2]) for key in keys})
            expected = sorted([list(inverse.apply(e)), k] for e, k in el.terms.items())
            assert element_to_jsonable(el) == expected
            assert element_from_jsonable(group, expected) == el


@pytest.mark.parametrize("path", ["fans/p2.json", "bench/fans/p1xp1xp1.json"])
def test_a_zero_element_is_written_and_read_without_a_chart(path):
    # a sparse section's zero components are [] in a report, and neither
    # writing nor reading one builds its stalk's ray chart
    sheaf = sheaf_a0(build_fan(load_fan_file(os.path.join(ROOT, path))))
    for cone in sheaf.fan.cones:
        group = sheaf.stalk(cone)
        zero = GroupRingElement.zero(group)
        assert element_to_jsonable(zero) == []
        assert element_from_jsonable(group, []) == zero
        assert group._chart is None


@pytest.mark.parametrize("seed", range(5))
def test_a_flasque_witness_writes_what_its_extension_shares_once(monkeypatch, seed):
    # the extension's components on the problem's cones are the problem's
    # written lists, and the bytes are those of writing each section alone
    argv = ["check-flasque", os.path.join(ROOT, "bench", "fans", "p1xp1xp1.json")]
    argv += ["--trials", "10", "--seed", str(seed)]
    rep = run(argv)
    shared = 0
    for witness in rep.certificates["witnesses"]:
        problem = dict(witness["problem"]["components"])
        for c, value in witness["extension"]["components"]:
            if c in problem:
                assert value is problem[c]
                shared += 1
    assert shared

    def alone(section, extension):
        return {"problem": section_to_jsonable(section), "extension": section_to_jsonable(extension)}

    monkeypatch.setattr(cli, "flasque_witness_to_jsonable", alone)
    assert run(argv).to_json() == rep.to_json()
