import argparse
import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kfan import cli, cones, intlinalg, monoids, sheaves
from kfan.cli import main, run
from kfan.cones import Cone
from kfan.fanfile import build_fan, load_fan_file, parse_fan_file, read_fan_text
from kfan.cech import CechComplex, Cochain, H0Ring
from kfan.monoids import GroupRingElement
from kfan.report import (
    JobReport,
    cochain_from_jsonable,
    element_from_jsonable,
)
from kfan.sheaves import (
    Section,
    extend_section,
    random_open_subfan,
    random_section,
    sheaf_a0,
)
from test_cech import exactness_trials
from test_fan_construction import load_gen_fans
from test_fan_memo import bench_jobs
from test_golden import GOLDEN

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

P1 = {
    "name": "P1",
    "lattice_rank": 1,
    "rays": [[1], [-1]],
    "max_cones": [[0], [1]],
}
P2 = {
    "name": "P2",
    "lattice_rank": 2,
    "rays": [[1, 0], [0, 1], [-1, -1]],
    "max_cones": [[0, 1], [1, 2], [2, 0]],
}
SINGULAR = {
    "name": "quadric-cone",
    "lattice_rank": 2,
    "rays": [[1, 0], [1, 2]],
    "max_cones": [[0, 1]],
}
ZERO_FAN = {"lattice_rank": 2, "rays": [[1, 0]], "max_cones": []}


@pytest.fixture
def fanfile(tmp_path):
    def write(data, name="fan.json"):
        p = tmp_path / name
        p.write_text(json.dumps(data))
        return str(p)

    return write


def test_info_p1(fanfile):
    rep = run(["info", fanfile(P1)])
    assert isinstance(rep, JobReport)
    assert rep.results["num_cones"] == 3
    assert rep.results["smooth"] is True
    assert rep.results["complete"] is True
    assert rep.exit_status == 0


def test_info_zero_fan(fanfile):
    rep = run(["info", fanfile(ZERO_FAN)])
    assert rep.results["num_cones"] == 1


def test_info_singular(fanfile):
    rep = run(["info", fanfile(SINGULAR)])
    assert rep.results["smooth"] is False


def test_info_normalizes_rays_with_warning(fanfile):
    data = dict(P1, rays=[[2], [-1]])
    rep = run(["info", fanfile(data)])
    assert any("normalized" in w for w in rep.inputs["warnings"])
    assert rep.results["num_cones"] == 3


def test_parse_error_exit_code(fanfile, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"lattice_rank": 2,')
    assert main(["info", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_bad_ray_index_exit_code(fanfile):
    data = dict(P1, max_cones=[[0], [7]])
    assert run(["info", fanfile(data)]) == 2


def test_a_repeated_ray_index_is_named_in_a_warning(fanfile):
    rep = run(["info", fanfile(dict(P2, max_cones=[[0, 1, 0], [1, 2], [2, 0]]))])
    assert rep.inputs["warnings"] == ["max cone 0 [0, 1, 0] repeats ray index 0"]
    assert rep.results == run(["info", fanfile(P2)]).results


QUADRANT = {"lattice_rank": 2, "rays": [[1, 0], [0, 1], [1, 1]], "max_cones": [[0, 1]]}


@pytest.mark.parametrize(
    "cones, warnings",
    [
        (
            [[0, 1], [0], [1]],
            [
                "max cone 1 [0] spans a face of another max cone; the fan drops it",
                "max cone 2 [1] spans a face of another max cone; the fan drops it",
            ],
        ),
        ([[1], [0, 1]], ["max cone 0 [1] spans a face of another max cone; the fan drops it"]),
        (
            [[0, 1], [1, 0], [0, 2, 1]],
            [
                "max cone 1 [1, 0] spans the same cone as max cone 0; the fan drops it",
                "max cone 2 [0, 2, 1] spans the same cone as max cone 0; the fan drops it",
            ],
        ),
        # ray 2 is not extreme: the entry is the quadrant, kept
        ([[0, 2, 1]], []),
        ([[2, 0, 1], [0]], ["max cone 1 [0] spans a face of another max cone; the fan drops it"]),
    ],
)
def test_max_cone_entries_the_fan_drops_are_named_in_warnings(fanfile, cones, warnings):
    # report indices count the kept entries: a dropped one must be named
    rep = run(["info", fanfile(dict(QUADRANT, max_cones=cones))])
    assert rep.inputs.get("warnings", []) == warnings
    assert rep.results["max_cone_ids"] == [3] and rep.results["num_cones"] == 4


def test_an_element_key_past_the_kept_entries_is_out_of_range_with_a_warning(fanfile, capsys):
    path = fanfile(dict(QUADRANT, max_cones=[[0, 1], [0], [1]]))
    assert main(["k0-global", path, "--element", '{"1": []}']) == 2
    assert "max-cone index 1 out of range" in capsys.readouterr().err
    assert main(["k0-global", path, "--element", '{"0": []}', "--json"]) == 0
    warnings = json.loads(capsys.readouterr().out)["inputs"]["warnings"]
    assert [w.split(" spans")[0] for w in warnings] == ["max cone 1 [0]", "max cone 2 [1]"]


@pytest.mark.parametrize(
    "change",
    [
        {"lattice_rank": "x"},
        {"lattice_rank": "2"},
        {"lattice_rank": 2.7},
        {"lattice_rank": 2.0},
        {"lattice_rank": True},
        {"rays": 5},
        {"max_cones": 3},
        {"rays": [[True, 0], [0, 1], [-1, -1]]},
        {"rays": [[1.0, 0], [0, 1], [-1, -1]]},
        {"max_cones": [[0, True], [1, 2], [2, 0]]},
        {"name": ["P2"]},
    ],
)
def test_malformed_fan_files_are_input_errors(fanfile, change):
    assert run(["info", fanfile(dict(P2, **change))]) == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"lattice_rank": 1e400, "rays": [], "max_cones": []}',
        '{"lattice_rank": 2, "rays": [[1%s, 0]], "max_cones": []}' % ("0" * 5000),
        "[" * 100000,
    ],
)
def test_unreadable_fan_json_is_an_input_error(tmp_path, text):
    path = tmp_path / "fan.json"
    path.write_text(text)
    assert run(["info", str(path)]) == 2


def test_fan_file_with_a_repeated_key_is_an_input_error(tmp_path):
    # read as its last value, the first "rays" would vanish unseen
    path = tmp_path / "fan.json"
    path.write_text('{"lattice_rank": 1, "rays": [[5]], "rays": [[1]], "max_cones": [[0]]}')
    assert run(["info", str(path)]) == 2


def test_undecodable_fan_file_is_an_input_error(tmp_path):
    path = tmp_path / "fan.json"
    path.write_bytes(b"\xff\xfe{")
    assert run(["info", str(path)]) == 2


def test_a_latin_1_fan_file_cannot_be_read(tmp_path, capsys):
    # JSON is UTF-8 (RFC 8259), whatever the locale
    path = tmp_path / "fan.json"
    path.write_bytes(json.dumps(P2, ensure_ascii=False).replace("P2", "P\u00e9").encode("latin-1"))
    assert run(["info", str(path)]) == 2
    assert f"error: cannot read {path}: 'utf-8' codec can't decode" in capsys.readouterr().err


def test_line_endings_do_not_change_the_report(tmp_path, capsys):
    # LF, CRLF and lone CR copies of a fan file read as one text, and
    # their reports differ only in the file's name
    with open(os.path.join(ROOT, "fans", "p2.json"), "rb") as f:
        lf = f.read()
    assert lf.count(b"\n") > 1 and b"\r" not in lf
    reports = set()
    for name, newline in (("lf", b"\n"), ("crlf", b"\r\n"), ("cr", b"\r")):
        path = tmp_path / f"{name}.json"
        path.write_bytes(lf.replace(b"\n", newline))
        assert read_fan_text(path) == lf.decode()
        assert main(["info", str(path), "--json"]) == 0
        reports.add(capsys.readouterr().out.replace(str(path), "FAN"))
    assert len(reports) == 1


def test_fan_text_is_what_path_read_text_gives_in_utf_8():
    folders = ("fans", os.path.join("bench", "fans"), os.path.join("tests", "golden"))
    paths = [p for folder in folders for p in pathlib.Path(ROOT, folder).glob("*.json")]
    assert len(paths) > 50
    for path in paths:
        assert read_fan_text(path) == path.read_text(encoding="utf-8"), path


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.sampled_from([4, -7, 10**30, -(10**30)])
    | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
VALID_FANS = [
    P1,
    P2,
    SINGULAR,
    ZERO_FAN,
    {
        "lattice_rank": 3,
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
        "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    },
]


def _paths(node, prefix=()):
    """The paths of every value below ``node``."""
    keys = sorted(node) if isinstance(node, dict) else range(len(node))
    for k in keys:
        yield prefix + (k,)
        if isinstance(node[k], (dict, list)):
            yield from _paths(node[k], prefix + (k,))


@st.composite
def mutated_fans(draw):
    """A valid fan file with one to three values replaced, deleted or
    appended somewhere below its top-level object."""
    data = json.loads(json.dumps(draw(st.sampled_from(VALID_FANS))))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(data))
        if not paths:
            break
        *up, key = paths[draw(st.integers(0, len(paths) - 1))]
        parent = data
        for k in up:
            parent = parent[k]
        action = draw(st.sampled_from(["replace", "replace", "delete", "append"]))
        if action == "replace":  # a small integer half the time
            parent[key] = draw(st.integers(-3, 3) | JSON_VALUES)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.append(draw(JSON_VALUES))
        else:
            parent[draw(st.text(max_size=3))] = draw(JSON_VALUES)
    return data


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_fans())
def test_mutated_fan_files_give_exit_2_or_a_report(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "fan.json"
    path.write_text(json.dumps(data))
    outcome = run(["info", str(path)])
    if isinstance(outcome, JobReport):
        assert outcome.exit_status == 0
    else:
        assert outcome == 2


def test_k0_affine_zero_cone(fanfile):
    rep = run(["k0-affine", fanfile(P2), "--cone", "0"])
    assert rep.results["character_rank"] == 0
    assert rep.results["k0"] == "Z[Z^0]"


def test_k0_affine_smooth_and_singular_agree_in_shape(fanfile):
    smooth = run(["k0-affine", fanfile(P2), "--cone", "6"])
    assert smooth.results["character_rank"] == 2
    singular = run(["k0-affine", fanfile(SINGULAR), "--cone", "3"])
    assert singular.results["character_rank"] == 2
    assert singular.results["smooth"] is False
    assert "smoothness was not needed" in singular.results["note"]


def test_k0_affine_bad_cone_id(fanfile):
    assert run(["k0-affine", fanfile(P2), "--cone", "99"]) == 2


def test_k0_global_membership_verdicts(fanfile):
    path = fanfile(P1)
    member = json.dumps({"0": [[[2], 1]], "1": [[[0], 1]]})
    rep = run(["k0-global", path, "--element", member])
    assert rep.results["member"] is True
    assert rep.exit_status == 0
    non = json.dumps({"0": [[[2], 1]], "1": [[[0], 1], [[1], 1], [[3], -3]]})
    rep = run(["k0-global", path, "--element", non])
    assert rep.results["member"] is False
    assert rep.exit_status == 1
    assert rep.results["failing_pair"] == [0, 1]


def test_k0_global_constant_tuple_is_member(fanfile):
    const = json.dumps({str(i): [[[0, 0], 4]] for i in range(3)})
    rep = run(["k0-global", fanfile(P2), "--element", const])
    assert rep.results["member"] is True


def test_k0_global_character_sampling(fanfile):
    rep = run(["k0-global", fanfile(P2), "--sample", "3", "--seed", "7"])
    assert len(rep.results["character_members"]) == 3
    fan = build_fan(parse_fan_file(json.dumps(P2)))
    cx = CechComplex(fan)
    ring = H0Ring(fan)
    for entry in rep.results["character_members"]:
        # the emitted member is a level-0 cochain; re-verify it through
        # the library as a global section
        c = cochain_from_jsonable(cx, entry["tuple"])
        comps = {
            cone: c.components.get((i,), GroupRingElement.zero(ring.sheaf.stalk(cone)))
            for i, cone in enumerate(fan.max_cones)
        }
        assert ring.contains(Section(ring.sheaf, ring.domain, comps))


def test_k0_global_builds_no_cover_complex(fanfile, monkeypatch):
    # H^0 is the ring of global sections: no cover complex, no level
    def no_complex(self, fan):
        raise AssertionError("k0-global built a cover complex")

    monkeypatch.setattr(CechComplex, "__init__", no_complex)
    path = fanfile(P2)
    assert run(["k0-global", path, "--sample", "3"]).exit_status == 0
    member = json.dumps({str(i): [[[1, -2], 3]] for i in range(3)})
    assert run(["k0-global", path, "--element", member]).exit_status == 0
    non = json.dumps({"0": [[[1, -2], 3]]})
    rep = run(["k0-global", path, "--element", non])
    assert rep.exit_status == 1 and rep.results["failing_pair"] == [0, 1]


def test_k0_global_malformed_element(fanfile):
    assert run(["k0-global", fanfile(P1), "--element", "[[nope"]) == 2


@pytest.mark.parametrize("text", ["[]", "3", '"x"'], ids=["list", "int", "string"])
def test_k0_global_element_that_is_not_an_object_names_the_shape(fanfile, capsys, text):
    assert run(["k0-global", fanfile(P1), "--element", text]) == 2
    err = capsys.readouterr().err
    assert "expected a JSON object mapping max-cone index to a term list" in err
    assert "Traceback" not in err and "attribute" not in err


@pytest.mark.parametrize(
    "terms",
    ["3", "[5]", "[[1,2,3]]", '"ab"', "[[[1]]]", "[[]]"],
    ids=["int", "bare-int-term", "three-entry-term", "string", "one-entry-term", "empty-term"],
)
def test_k0_global_malformed_term_names_the_term_shape(terms, capsys):
    p1 = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "fans", "p1.json")
    assert main(["k0-global", p1, "--element", '{"0": ' + terms + "}"]) == 2
    err = capsys.readouterr().err
    assert "[integer list, integer]" in err
    assert "unpack" not in err and "iterable" not in err


def test_k0_global_element_with_a_repeated_key_is_an_input_error(fanfile):
    # read as its last value, the first "0" would be dropped unseen
    text = '{"0": [[[0], 1]], "0": [[[3], 1]], "1": [[[0], 1]]}'
    assert run(["k0-global", fanfile(P1), "--element", text]) == 2


@pytest.mark.parametrize(
    "element",
    [
        {"0": [[[0.7], 1]], "1": [[[0], 1]]},  # once read as [0]: a member
        {"0": [[[1.9], 1]], "1": [[[1], 1]]},  # once read as [1]: a member
        {"0": [[[0], 1.5]], "1": [[[0], 1]]},
        {"0": [[[0], 1]], "00": [[[3], 1]], "1": [[[0], 1]]},  # "00" overwrote "0"
        "[" * 100_000,
    ],
    ids=["coordinate-0.7", "coordinate-1.9", "coefficient-1.5", "index-00", "deep-nesting"],
)
def test_k0_global_element_follows_the_integer_rule(fanfile, element):
    text = element if isinstance(element, str) else json.dumps(element)
    assert run(["k0-global", fanfile(P1), "--element", text]) == 2


@pytest.mark.parametrize("key", [[0, 0, 7], [0]], ids=["too-long", "too-short"])
def test_k0_global_element_key_of_the_wrong_length_is_an_input_error(fanfile, capsys, key):
    # a smooth stalk reads a key through an unrolled map, which would take
    # the too-long key for its prefix (0, 0), and the element for a member
    text = json.dumps({"0": [[key, 1]], "1": [[[0, 0], 1]], "2": [[[0, 0], 1]]})
    assert run(["k0-global", fanfile(P2), "--element", text]) == 2
    assert "bad coordinate length" in capsys.readouterr().err


@pytest.mark.parametrize("fan, level", [(P1, "2"), (P2, "0")])
def test_check_exactness_level_out_of_range_is_an_input_error(fanfile, fan, level):
    assert run(["check-exactness", fanfile(fan), "--level", level]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check-exactness", "--level", "1", "--trials", "-3"],
        ["check-exactness", "--level", "1", "--depth", "-1"],
        ["check-flasque", "--trials", "-1"],
        ["check-flasque", "--depth", "-2"],
        ["k0-global", "--sample", "-2"],
        ["k0-global", "--sample", "50"],  # P2 has 7^2 = 49 characters in the box
    ],
)
def test_bad_counts_are_input_errors(fanfile, argv):
    assert run([argv[0], fanfile(P2)] + argv[1:]) == 2


def test_k0_global_can_sample_the_whole_character_box(fanfile):
    rep = run(["k0-global", fanfile(P1), "--sample", "7"])
    chars = sorted(e["character"] for e in rep.results["character_members"])
    assert chars == [[m] for m in range(-3, 4)]


def test_k0_global_oversized_sample_ends_with_exit_2(fanfile):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "kfan.cli", "k0-global", fanfile(P1), "--sample", "8"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "--sample 8" in proc.stderr


def test_closed_stdout_ends_quietly_with_the_report_status():
    # `kfan ... --json | head -c 1`: the report is far larger than a pipe
    # buffer, so the write fails once the reader has gone
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    argv = ["check-flasque", os.path.join(root, "bench", "fans", "p1xp1xp1.json"),
            "--trials", "200", "--seed", "3", "--json"]
    rep = run(argv)
    assert len(rep.to_json()) > 1 << 17
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "kfan.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == rep.exit_status
    assert stderr == b""


def test_check_exactness_report_and_witness_roundtrip(fanfile):
    rep = run(
        [
            "check-exactness",
            fanfile(P2),
            "--level",
            "1",
            "--trials",
            "4",
            "--depth",
            "3",
            "--seed",
            "42",
        ]
    )
    assert rep.exit_status == 0
    assert rep.results["all_solved"] is True
    assert_exactness_witnesses_recheck(build_fan(parse_fan_file(json.dumps(P2))), rep)


def assert_exactness_witnesses_recheck(fan, rep):
    """Every reported cocycle is one, and d of its coboundary gives it back."""
    cx = CechComplex(fan)
    for w in rep.certificates["witnesses"]:
        z = cochain_from_jsonable(cx, w["cocycle"])
        b = cochain_from_jsonable(cx, w["coboundary"])
        assert cx.is_cocycle(z)
        assert cx.d(b) == z


def test_check_exactness_refuses_singular_without_flag(fanfile, capsys):
    data = {
        "lattice_rank": 2,
        "rays": [[1, 0], [0, 1], [-1, -2]],
        "max_cones": [[0, 1], [1, 2], [2, 0]],
    }
    assert run(["check-exactness", fanfile(data), "--level", "1"]) == 2


def test_check_flasque_report_and_witness_roundtrip(fanfile):
    rep = run(
        [
            "check-flasque",
            fanfile(P1),
            "--trials",
            "5",
            "--depth",
            "3",
            "--seed",
            "42",
        ]
    )
    assert rep.exit_status == 0
    assert rep.results["all_extended"] is True
    assert_flasque_witnesses_recheck(build_fan(parse_fan_file(json.dumps(P1))), rep)


def assert_flasque_witnesses_recheck(fan, rep):
    """Every reported extension is a global section restricting to its
    problem section."""
    sheaf = sheaf_a0(fan)
    for w in rep.certificates["witnesses"]:
        ext = w["extension"]
        comps = {}
        for cone_id, data in ext["components"]:
            cone = fan.cones[cone_id]
            comps[cone] = element_from_jsonable(sheaf.stalk(cone), data)
        section = Section(sheaf, fan.full_subfan(), comps)
        assert section.check()
        dom = fan.subfan([fan.cones[i] for i in w["problem"]["domain_cone_ids"]])
        restricted = section.restrict(dom)
        for cone_id, data in w["problem"]["components"]:
            cone = fan.cones[cone_id]
            assert restricted.value_at(cone_id) == element_from_jsonable(
                sheaf.stalk(cone), data
            )


def test_hilbert_quadrant(fanfile):
    data = {"lattice_rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}
    path = fanfile(data)
    info = run(["info", path])
    top = next(c["id"] for c in info.results["cones"] if c["dim"] == 2)
    rep = run(["hilbert", path, "--cone", str(top)])
    assert rep.results["hilbert_basis"] == [[0, 1], [1, 0]]


def test_hilbert_singular_dual(fanfile):
    path = fanfile(SINGULAR)
    rep = run(["hilbert", path, "--cone", "3"])
    assert rep.results["basis_size"] == 3
    assert rep.results["hilbert_basis"] == [[0, 1], [1, 0], [2, -1]]


def test_kclass_from_generators(fanfile):
    rep = run(["kclass", "--generators", "[[1]]", "--shifts", "[[0],[1],[1]]"])
    assert rep.results["k0_class"] == [[[0], 1], [[1], 2]]


def test_kclass_from_cone(fanfile):
    rep = run(
        [
            "kclass",
            "--fan",
            fanfile(P2),
            "--cone",
            "3",
            "--shifts",
            "[[3,5],[3,-2]]",
        ]
    )
    # cone id 3 is the ray (1,0); its dual monoid has units along (0,1),
    # so the two shifts collapse into one coset
    assert rep.results["coset_group"]["free_rank"] == 1
    values = rep.results["k0_class"]
    assert len(values) == 1 and values[0][1] == 2


def test_kclass_from_a_cone_finds_no_hilbert_basis(fanfile, monkeypatch):
    # the report reads the units and the coset quotient, which come from
    # the cone's perp lattice: on the cone with rays (1, 0) and
    # (1, 100000) a Hilbert basis would enumerate 99999 points
    calls = []
    monkeypatch.setattr(monoids, "hilbert_basis", calls.append)
    deep = {"lattice_rank": 2, "rays": [[1, 0], [1, 100000]], "max_cones": [[0, 1]]}
    rep = run(["kclass", "--fan", fanfile(deep), "--cone", "3", "--shifts", "[[0,1],[1,0],[0,0]]"])
    assert calls == []
    assert rep.results["coset_group"] == {"invariant_factors": [], "free_rank": 2}
    assert rep.results["k0_class"] == [[[0, 0], 1], [[0, 1], 1], [[1, 0], 1]]


def test_kclass_needs_a_monoid():
    assert run(["kclass", "--shifts", "[[0]]"]) == 2


@pytest.mark.parametrize(
    "generators, shifts",
    [
        ("[[1]]", "[[0.5]]"),
        ("[[1]]", "[[true]]"),
        ("[[1]]", '[["2"]]'),
        ("[[1.9]]", "[[2]]"),  # once echoed as 1.9 but computed with 1
        ("[" * 100_000, "[[0]]"),
        ("[[1,0],[0]]", "[[1,1]]"),  # a short zero generator was dropped unchecked
        ("[[1,0],[]]", "[[1,1]]"),
    ],
    ids=[
        "shift-0.5",
        "shift-true",
        "shift-string",
        "generator-1.9",
        "deep-nesting",
        "short-zero-generator",
        "empty-generator",
    ],
)
def test_kclass_follows_the_integer_rule(generators, shifts):
    assert run(["kclass", "--generators", generators, "--shifts", shifts]) == 2


INT_ROWS = st.lists(st.integers(-3, 3), max_size=3)
# near misses of each option's shape, besides arbitrary JSON: elements
# keyed by maximal-cone indices, and lists of integer rows
ELEMENTS = JSON_VALUES | st.dictionaries(
    st.sampled_from(["0", "1", "2", "3", "-1", "01"]),
    JSON_VALUES
    | st.lists(
        st.tuples(INT_ROWS | JSON_VALUES, st.integers(-3, 3) | JSON_VALUES).map(list),
        max_size=3,
    ),
    max_size=3,
)
ROWS = JSON_VALUES | st.lists(INT_ROWS | JSON_VALUES, max_size=4)


@st.composite
def json_options(draw):
    """``k0-global --element``, ``kclass --generators`` or ``kclass
    --shifts`` set to a drawn JSON value, the other option well formed.
    The ``--option=value`` form keeps a value such as -Infinity the
    option's argument."""
    option = draw(st.sampled_from(["element", "generators", "shifts"]))
    if option == "element":
        p2 = os.path.join(ROOT, "fans", "p2.json")
        return ["k0-global", p2, "--element=" + json.dumps(draw(ELEMENTS))]
    if option == "generators":
        rank = draw(st.integers(1, 2))
        shifts = [[0] * rank, [1] + [0] * (rank - 1)]
        return ["kclass", "--generators=" + json.dumps(draw(ROWS)), "--shifts=" + json.dumps(shifts)]
    return ["kclass", "--generators=[[1,0],[0,1]]", "--shifts=" + json.dumps(draw(ROWS))]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(json_options())
def test_json_options_never_escape_main(argv):
    assert main(argv) in (0, 1, 2)


def test_kclass_generators_above_the_rank_cap_are_an_input_error(capsys):
    argv = ["kclass", "--generators", "[[1,0,0,0,0]]", "--shifts", "[[0,0,0,0,0]]"]
    assert run(argv) == 2
    assert "rank cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [
        ["--fan", "P2", "--cone", "0", "--generators", "[[1]]"],
        ["--generators", "[[1]]", "--cone", "5"],
    ],
    ids=["fan-and-generators", "generators-and-cone"],
)
def test_kclass_refuses_a_monoid_given_twice(fanfile, capsys, extra):
    # each of these once exited 0, reading one source and ignoring the other
    argv = ["kclass"] + [fanfile(P2) if a == "P2" else a for a in extra]
    assert run(argv + ["--shifts", "[[1,0]]"]) == 2
    assert "not both" in capsys.readouterr().err


WEIGHTED_P2 = {
    "name": "P(1,1,2)",
    "lattice_rank": 2,
    "rays": [[1, 0], [0, 1], [-1, -2]],
    "max_cones": [[0, 1], [1, 2], [2, 0]],
}


def test_the_nonsmooth_gate_comes_after_counts_and_level(fanfile, capsys):
    # the library searches on any fan; only the CLI asks for the flag,
    # after the counts and the level and before the level's existence
    weighted, cone = fanfile(WEIGHTED_P2), fanfile(SINGULAR, name="cone.json")
    exactness, flasque = "exactness is only guaranteed for", "extension is only guaranteed over"
    for argv, message in [
        (["check-exactness", weighted, "--level", "1", "--trials", "-1"], "--trials must be"),
        (["check-exactness", weighted, "--level", "0"], "start at level 1"),
        (["check-exactness", cone, "--level", "5"], f"{exactness} smooth fans (pass"),
        (["check-flasque", weighted, "--depth", "-1"], "--depth must be"),
        (["check-flasque", weighted], f"{flasque} smooth fans (pass"),
    ]:
        assert run(argv) == 2
        assert message in capsys.readouterr().err
    assert run(["check-exactness", cone, "--level", "5", "--experimental-nonsmooth"]) == 2
    assert "no level 5" in capsys.readouterr().err
    for argv in (["check-exactness", weighted, "--level", "1"], ["check-flasque", weighted]):
        rep = run(argv + ["--trials", "2", "--experimental-nonsmooth"])
        assert rep.exit_status == 0


def test_solver_gave_up_exit_code(fanfile):
    # only non-smooth fans reach the search; depth 0 starves the support
    # expansion on extension problems that need joint lifts, so some
    # trials must give up
    rep = run(
        [
            "check-flasque",
            fanfile(WEIGHTED_P2),
            "--experimental-nonsmooth",
            "--trials",
            "10",
            "--depth",
            "0",
            "--seed",
            "42",
        ]
    )
    assert rep.exit_status == 3
    assert rep.results["extended"] < rep.results["trials"]
    gave_up = [t for t in rep.statistics["trials"] if not t["extended"]]
    assert gave_up and all("support_sizes_tried" in t for t in gave_up)


def test_smooth_fans_never_give_up_at_depth_0(fanfile):
    # the witnesses on smooth fans are constructed, so depth is unused
    path = fanfile(P2)
    for argv in (
        ["check-flasque", path, "--trials", "10", "--seed", "42"],
        ["check-exactness", path, "--level", "1", "--trials", "5"],
        ["check-exactness", path, "--level", "2", "--trials", "5"],
    ):
        starved = run(argv + ["--depth", "0"])
        assert starved.exit_status == 0
        deep = run(argv + ["--depth", "5"])
        assert starved.certificates == deep.certificates
        assert starved.statistics == deep.statistics


def test_reports_are_deterministic(fanfile):
    argv = [
        "check-exactness",
        fanfile(P2),
        "--level",
        "1",
        "--trials",
        "3",
        "--depth",
        "3",
        "--seed",
        "99",
    ]
    a = run(argv)
    b = run(argv)
    assert a.to_json() == b.to_json()
    argv2 = ["check-flasque", fanfile(P2), "--trials", "3", "--seed", "5"]
    assert run(argv2).to_json() == run(argv2).to_json()


def test_the_parser_is_built_once(fanfile, monkeypatch):
    cli._parser()

    def rebuild():
        raise AssertionError("the parser was built again")

    monkeypatch.setattr(cli, "make_parser", rebuild)
    path = fanfile(P2)
    assert run(["check-flasque", path, "--trials", "1", "--seed", "3"]).inputs["trials"] == 1
    # a shared parser must not carry values from one call into the next
    rep = run(["check-flasque", path, "--trials", "2"])
    assert (rep.inputs["trials"], rep.inputs["seed"]) == (2, 0)
    assert run(["info", path]).exit_status == 0


def test_main_prints_json(fanfile, capsys):
    code = main(["info", fanfile(P1), "--json"])
    assert code == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["command"] == "info"
    assert data["exit_status"] == 0


def test_main_reads_the_parsed_json_flag(fanfile, capsys):
    # argparse accepts the abbreviation, so output must follow args.json
    assert main(["info", fanfile(P1), "--js"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "info"
    assert main(["info", fanfile(P1)]) == 0
    assert capsys.readouterr().out.startswith("command: info")


def parse_inputs(monkeypatch) -> list:
    """Every golden command, with and without ``--json``, and every job
    of pass 0 of each benchmark workload."""
    argvs = [command.split() + extra for command in GOLDEN.values() for extra in ([], ["--json"])]
    jobs = bench_jobs(monkeypatch)
    for workload, (keys, _) in sorted(jobs.WORKLOADS.items()):
        argvs += [job.argv for job in jobs.make_pass(workload, 1, 0, jobs.setup_fans(keys))]
    return argvs


def test_a_command_is_parsed_by_its_own_parser_to_the_full_parsers_namespace(monkeypatch):
    monkeypatch.chdir(ROOT)
    argvs = parse_inputs(monkeypatch)
    assert len(argvs) > 2 * len(GOLDEN)
    for argv in argvs:
        assert vars(cli._parse(argv)) == vars(cli._parser().parse_args(argv)), argv


P2_FILE = "fans/p2.json"
USAGE_INPUTS = [
    ["info", P2_FILE, "--bogus"],
    ["info"],
    [],
    ["nosuch", P2_FILE],
    ["check-exactness", P2_FILE],
    ["--level", "x"],
    ["-h"],
    ["info", "-h"],
    ["--js"],
    ["--tri", "1"],
    ["--json", "info", P2_FILE],
]


@pytest.mark.parametrize("argv", USAGE_INPUTS, ids=lambda argv: " ".join(argv) or "empty")
def test_help_and_usage_errors_are_the_full_parsers(monkeypatch, capsys, argv):
    # a leftover argument, a missing one, no command or an unknown one:
    # main writes the same bytes and exits with the same code as the
    # full parser, whichever parser saw the input first
    monkeypatch.chdir(ROOT)
    outcomes = []
    for parse in (main, cli._parser().parse_args):
        with pytest.raises(SystemExit) as done:
            parse(list(argv))
        outcomes.append((done.value.code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    code, out, err = outcomes[0]
    assert code == (0 if "-h" in argv else 2) and bool(out) == (code == 0)
    if argv[-1:] == ["--bogus"]:
        assert "kfan: error: unrecognized arguments: --bogus" in err
    if argv[:1] == ["check-exactness"]:
        assert "kfan check-exactness: error: the following arguments are required: --level" in err


def test_warm_jobs_and_golden_commands_make_no_argparse_parse(monkeypatch):
    # the scan reads every benchmark job of pass 0 and every golden
    # command; a form it hands on, such as --trials=2, reaches argparse
    monkeypatch.chdir(ROOT)
    argvs = parse_inputs(monkeypatch)
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for argv in argvs:
        cli._parse(argv)
    assert calls == []
    cli._parse(["check-flasque", P2_FILE, "--trials=2"])
    assert calls


def test_every_declared_action_is_of_a_kind_the_plan_reads():
    # a new kind of option must fail here, not send every job of its
    # command back to argparse unseen
    for name, command in cli._parser().commands.items():
        assert cli._plan(command) is not None, name
    for kwargs in (
        {"choices": ["a"]},
        {"nargs": "?"},
        {"action": "append"},
        {"action": "count"},
        {"action": "store_false"},
        {"type": int, "default": "5"},
    ):
        parser = argparse.ArgumentParser()
        parser.add_argument("--x", **kwargs)
        assert cli._plan(parser) is None, kwargs


def _parse_outcome(parse, argv) -> tuple:
    """``vars()`` of the namespace, or the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return (vars(parse(list(argv))),)
        except SystemExit as e:
            return e.code, out.getvalue(), err.getvalue()


SCAN_VALUES = ["2", "-3", "0x3", " 4", "\u0663", "", "k", "[[0, 0]]", P2_FILE, "-", "--"]
SCAN_ODD_WORDS = ["-h", "--help", "--", "-", "-3", "0x3", " 4", "", "x", P2_FILE]


def _scan_pieces(name: str) -> tuple[list, list, list]:
    """Runs of words for a command: the positional and the required
    options, which make a valid argv; more exact options with plain
    values; and everything else: options abbreviated, ``--opt=v``, odd
    values and odd words."""
    base, plain, odd = [], [], [[w] for w in SCAN_ODD_WORDS]
    for action in cli._parser().commands[name]._actions:
        if not action.option_strings:
            base.append([P2_FILE])
        for option in (o for o in action.option_strings if o not in ("-h", "--help")):
            if action.nargs == 0:
                plain.append([option])
                odd += [[option[:3]], [option[:-1]]]
                continue
            (base if action.required else plain).append([option, "2"])
            odd += [[option, v] for v in SCAN_VALUES] + [[option]]
            odd += [[option[:-1], "2"], [option[:3], "2"], [f"{option}=2"], [f"{option}=-3"]]
    return base, plain, odd


@st.composite
def scan_argvs(draw):
    name = draw(st.sampled_from(sorted(cli._parser().commands)))
    base, plain, odd = _scan_pieces(name)
    runs = base + draw(st.lists(st.sampled_from(plain), max_size=4))
    runs += draw(st.lists(st.sampled_from(odd), max_size=2))
    # a run repeated, or the first one (perhaps a positional) left out
    runs = draw(st.lists(st.sampled_from(runs), max_size=1)) + draw(st.permutations(runs))
    runs = runs[draw(st.sampled_from([0, 0, 0, 1])):]
    return [name, *(word for run in runs for word in run)]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scan_argvs())
def test_the_scan_gives_the_full_parsers_namespace_or_exit(argv):
    assert _parse_outcome(cli._parse, argv) == _parse_outcome(cli._parser().parse_args, argv)


def test_run_and_main_read_sys_argv_by_default(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "argv", ["kfan", "info", P2_FILE, "--json"])
    assert run().results["num_cones"] == 7
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["results"]["num_cones"] == 7
    monkeypatch.setattr(sys, "argv", ["kfan", "info", P2_FILE, "--bogus"])
    for entry in (run, main):
        with pytest.raises(SystemExit) as done:
            entry()
        assert done.value.code == 2
        assert "kfan: error: unrecognized arguments: --bogus" in capsys.readouterr().err


WRONG_SOLVER_SCRIPT = textwrap.dedent(
    """
    import sys
    from kfan import cech, cones, intlinalg, sheaves
    from kfan import cli
    from kfan.monoids import GroupRingElement

    if __debug__:
        sys.exit("run this under python -O")

    def cold(argv):
        # each command builds its fan, sheaf and groups afresh, under its patch
        cli._built.cache_clear()
        intlinalg.quotient.cache_clear()
        return cli.main(argv)

    def wrong_solver(slot_groups, constraints, depth):
        return {s: GroupRingElement.zero(g) for s, g in slot_groups.items()}, 0

    def zero_witness(cx, z):
        return cech.Cochain(cx, z.level - 1, {})

    def zero_extension(section):
        fan = section.sheaf.fan
        zero = {c: GroupRingElement.zero(section.sheaf.stalk(c)) for c in fan.max_cones}
        return sheaves.Section(section.sheaf, fan.full_subfan(), zero)

    def wrong_character(ring, m):
        # chi^m on the first piece only: not a section
        comps = {c: GroupRingElement.zero(ring.sheaf.stalk(c)) for c in ring.fan.max_cones}
        first = ring.fan.max_cones[0]
        comps[first] = GroupRingElement.character(ring.sheaf.stalk(first), m)
        return sheaves.Section(ring.sheaf, ring.domain, comps)

    splitting = intlinalg.QuotientSurjection.splitting

    def from_a_zero_section(self):
        # the splitting is built from the target's section: make it zero
        target, section = self.target, self.target.section
        target.section = intlinalg.IntMatrix.zero(section.nrows, section.ncols)
        try:
            return splitting.fget(self)
        finally:
            target.section = section

    quotient = cones.quotient

    def doubled_projection(ambient, relations):
        # free of the same rank, but P S = 2 I: the projection is not onto
        q = quotient(ambient, relations)
        doubled = [[2 * x for x in row] for row in q.projection.rows]
        projection = intlinalg.IntMatrix(doubled, ncols=ambient.rank)
        return intlinalg.QuotientLattice(ambient, relations, (), q.free_rank, projection, q.section)

    path, nonsmooth, square, simplex, p1xp1xp1 = sys.argv[1:]
    # the non-smooth search lifts through splittings, built from a zero
    # section: the first onto a nonzero group is no right inverse
    intlinalg.QuotientSurjection.splitting = property(from_a_zero_section)
    print(cold(["check-flasque", nonsmooth, "--trials", "2", "--experimental-nonsmooth"]))
    intlinalg.QuotientSurjection.splitting = splitting
    # a smooth fan's ray chart is checked where the report reads it: a
    # zeroed T^-1 fails T T^-1 = I
    adjugate = sheaves.adjugate
    sheaves.adjugate = lambda a: intlinalg.IntMatrix.zero(a.nrows, a.ncols)
    print(cold(["k0-global", path, "--sample", "3"]))
    sheaves.adjugate = adjugate
    # face pickers built permuted: sections and witnesses fail their checks
    picker = sheaves.picker
    sheaves.picker = lambda positions: intlinalg.picker(tuple(reversed(positions)))
    print(cold(["check-flasque", path, "--trials", "2"]))
    print(cold(["check-exactness", path, "--level", "1", "--trials", "2"]))
    # on P1xP1xP1 the drawn cocycle itself fails d d = 0
    print(cold(["check-exactness", p1xp1xp1, "--level", "1", "--trials", "2"]))
    sheaves.picker = picker
    # smooth fans: the contraction and the extension by tau-parts now
    # return zero
    cech.CechComplex._contract = zero_witness
    sheaves._split_extension = zero_extension
    # non-smooth fans: the search returns zero
    cech.solve_pushforward_system = wrong_solver
    sheaves.solve_pushforward_system = wrong_solver
    cech.H0Ring.character = wrong_character
    print(cold(["check-exactness", path, "--level", "1", "--trials", "2"]))
    print(cold(["check-flasque", path, "--trials", "2"]))
    print(cold(["check-flasque", nonsmooth, "--trials", "2", "--experimental-nonsmooth"]))
    print(cold(["k0-global", path]))
    # character groups are certified on every read
    cones.quotient = doubled_projection
    print(cold(["k0-affine", simplex, "--cone", "7"]))
    print(cold(["kclass", "--fan", simplex, "--cone", "7", "--shifts", "[[0,0,0],[1,0,0]]"]))
    cones.quotient = quotient

    dual_ray_generators = cones.dual_ray_generators

    def spurious_lineality(vectors, rank):
        lin, rays = dual_ray_generators(vectors, rank)
        return lin + [(1,) + (0,) * (rank - 1)], rays

    def dropped_facet(vectors, rank):
        # the facets of the square's four rays, one of them dropped
        lin, rays = dual_ray_generators(vectors, rank)
        return (lin, rays[1:]) if len(vectors) == len(rays) == 4 else (lin, rays)

    # the double descriptions run on the square's four dependent rays
    cones.dual_ray_generators = spurious_lineality
    print(cold(["info", square]))
    cones.dual_ray_generators = dropped_facet
    print(cold(["info", square]))
    cones.dual_ray_generators = dual_ray_generators
    # the generators span a plane in Z^3, whose kernel loses its one row
    kernel = cones.kernel
    cones.kernel = lambda a: intlinalg.IntMatrix(kernel(a).rows[:-1], ncols=a.ncols)
    print(cold(["kclass", "--generators", "[[1,0,0],[0,1,0]]", "--shifts", "[[0,0,0]]"]))
    cones.kernel = kernel
    # independent rays take the pairing check instead
    cones.normal_vector = lambda a: (1,) * a.ncols
    print(cold(["info", path]))
    """
)

SQUARE_CONE = {
    "lattice_rank": 3,
    "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
    "max_cones": [[0, 1, 2, 3]],
}


def test_wrong_witness_is_caught_under_python_O(fanfile):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-O",
            "-c",
            WRONG_SOLVER_SCRIPT,
            fanfile(P2),
            fanfile(WEIGHTED_P2, name="weighted.json"),
            fanfile(SQUARE_CONE, name="square.json"),
            os.path.join(ROOT, "tests", "golden", "simplex-113.json"),
            os.path.join(ROOT, "tests", "golden", "p1xp1xp1.json"),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"] * 15
    assert proc.stderr.count("certificate failed its re-check") == 15
    assert "the right-hand side has nonzero differential" in proc.stderr
    assert "fails its cross-check" in proc.stderr
    assert proc.stderr.count("witness fails d(b) = z") == 2
    assert "character tuple for" in proc.stderr
    assert proc.stderr.count("extension does not restrict") + proc.stderr.count(
        "extension is not a global section"
    ) == 3
    assert "splitting is not a right inverse" in proc.stderr
    assert proc.stderr.count("is not onto") == 2
    assert "cut out a line" in proc.stderr
    assert "is not one of its rays" in proc.stderr
    assert "fails the pairing check" in proc.stderr
    assert "rank 2 and kernel rank 0 disagree in Z^3" in proc.stderr


def doubled_projection(ambient, relations):
    """``intlinalg.quotient`` with its projection doubled: free of the
    same rank, but P S = 2 I, so the projection is not onto."""
    q = intlinalg.quotient(ambient, relations)
    doubled = [[2 * x for x in row] for row in q.projection.rows]
    projection = intlinalg.IntMatrix(doubled, ncols=ambient.rank)
    return intlinalg.QuotientLattice(ambient, relations, (), q.free_rank, projection, q.section)


@pytest.mark.parametrize("cone", ["6", "7"])
@pytest.mark.parametrize("command", ["k0-affine", "kclass"])
def test_a_character_group_is_certified_where_it_is_built(monkeypatch, capsys, command, cone):
    # k0-affine and kclass read character groups outside any sheaf: the
    # check P S = I runs on every Cone.character_quotient call
    monkeypatch.setattr(cones, "quotient", doubled_projection)
    path = os.path.join(ROOT, "tests", "golden", "simplex-113.json")
    argv = ["k0-affine", path] if command == "k0-affine" else ["kclass", "--fan", path]
    argv += ["--cone", cone] + (["--shifts", "[[0,0,0],[1,0,0]]"] if command == "kclass" else [])
    assert main(argv) == 1
    assert "is not onto" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path", ["fans/p2.json", "bench/fans/p1xp1xp1.json", "fans/quadric-cone.json"]
)
def test_a_cone_entry_rechecks_its_character_rank(monkeypatch, capsys, path):
    # each perp lattice loses a generator: M / perp would be of rank one
    # more than the cone's dimension, first on the zero cone
    perp_lattice = Cone.perp_lattice

    def dropped_generator(cone):
        perp = perp_lattice(cone)
        return intlinalg.IntMatrix(perp.rows[1:], ncols=perp.ncols)

    monkeypatch.setattr(Cone, "perp_lattice", dropped_generator)
    assert main(["info", os.path.join(ROOT, path)]) == 1
    assert "character group of Cone(rays=[]) has rank 1, not 0" in capsys.readouterr().err


def test_smooth_commands_read_no_splitting(monkeypatch):
    def refuse(self):
        raise RuntimeError(f"the splitting of {self!r} was read")

    monkeypatch.setattr(intlinalg.QuotientSurjection, "splitting", property(refuse))
    path = os.path.join(ROOT, "bench", "fans", "p1xp1xp1.json")
    for argv in (
        ["check-exactness", path, "--level", "1", "--trials", "2"],
        ["check-exactness", path, "--level", "2", "--trials", "2"],
        ["check-flasque", path, "--trials", "2"],
        ["k0-global", path, "--sample", "3"],
    ):
        assert main(argv) == 0


@pytest.mark.parametrize("name", ["p1xp1xp1", "ladder-12"])
def test_smooth_commands_build_no_canonical_surjection(monkeypatch, name):
    # a smooth fan restricts by pickers: no canonical surjection is built,
    # and every command exits as before
    def refuse(source, target):
        raise RuntimeError("a canonical surjection was built")

    monkeypatch.setattr(intlinalg, "canonical_surjection", refuse)
    monkeypatch.setattr(sheaves, "canonical_surjection", refuse)
    path = os.path.join(ROOT, "bench", "fans", f"{name}.json")
    rank = build_fan(load_fan_file(path)).lattice.rank
    non_member = json.dumps({"0": [[[1] + [0] * (rank - 1), 1]]})  # chi^e1 on one piece only
    for argv, code in (
        (["check-exactness", path, "--level", "1", "--trials", "3"], 0),
        (["check-exactness", path, "--level", "2", "--trials", "3"], 0),
        (["check-flasque", path, "--trials", "3"], 0),
        (["k0-global", path, "--sample", "3"], 0),
        (["k0-global", path, "--element", non_member], 1),
    ):
        assert main(argv + ["--json"]) == code


@pytest.mark.parametrize("name", ["p1xp1xp1", "ladder-12"])
def test_smooth_computations_read_no_character_group(monkeypatch, name):
    # the character groups are the report's coordinates: the sampling,
    # the witnesses and their checks run in ray coordinates without them
    fan = build_fan(load_fan_file(os.path.join(ROOT, "bench", "fans", f"{name}.json")))

    def refuse(cone):
        raise RuntimeError(f"the character group of {cone!r} was read")

    monkeypatch.setattr(Cone, "character_quotient", refuse)
    for level in (1, 2):
        pairs = exactness_trials(fan, level, trials=3, seed=level)
        assert all(isinstance(b, Cochain) for _, b in pairs)
    sheaf = sheaf_a0(fan)
    rng = random.Random(0)
    for _ in range(3):
        assert extend_section(random_section(sheaf, random_open_subfan(fan, rng), rng)).check()
    ring = H0Ring(fan)
    member = ring.character((1,) * fan.lattice.rank)
    assert ring.membership(member) == (True, None)
    first = fan.max_cones[0]
    comps = {**member.components, first: GroupRingElement.zero(ring.sheaf.stalk(first))}
    assert not ring.contains(Section(ring.sheaf, ring.domain, comps))


def test_a_wrong_splitting_is_caught_at_its_first_lift(monkeypatch, capsys):
    splitting = intlinalg.QuotientSurjection.splitting
    reads = []

    def from_a_zero_section(self):
        # the splitting is built from the target's section: make it zero
        reads.append(self)
        target, section = self.target, self.target.section
        target.section = intlinalg.IntMatrix.zero(section.nrows, section.ncols)
        try:
            return splitting.fget(self)
        finally:
            target.section = section

    monkeypatch.setattr(intlinalg.QuotientSurjection, "splitting", property(from_a_zero_section))
    path = os.path.join(ROOT, "tests", "golden", "weighted-p2.json")
    assert main(["check-flasque", path, "--experimental-nonsmooth"]) == 1
    assert "splitting is not a right inverse" in capsys.readouterr().err
    # onto the zero group any splitting is a right inverse: the check
    # fails at the first read onto a nonzero group, and nothing follows
    assert [phi.target.is_zero for phi in reads] == [True] * (len(reads) - 1) + [False]


def test_a_character_tuple_that_is_no_section_is_caught(monkeypatch, capsys):
    # chi^m on the first piece only, zero on the others: not a section
    def wrong_character(ring, m):
        values = {c: GroupRingElement.zero(ring.sheaf.stalk_at(c)) for c in ring.fan.max_ids}
        first = ring.fan.max_ids[0]
        values[first] = GroupRingElement.character(ring.sheaf.stalk_at(first), m)
        return Section.by_id(ring.sheaf, ring.domain, values)

    monkeypatch.setattr(H0Ring, "character", wrong_character)
    assert main(["k0-global", os.path.join(ROOT, P2_FILE), "--sample", "3"]) == 1
    assert "character tuple for" in capsys.readouterr().err


def test_info_compares_cones_linearly_on_a_256_cone_ladder(fanfile, monkeypatch):
    # each cone's "maximal" flag is one set lookup, not a scan of the
    # maximal cones with Cone.__eq__, and its character rank is read
    # off the perp lattice: no quotient is built
    path = fanfile(load_gen_fans().ladder(256))
    calls = []
    eq = Cone.__eq__

    def counting(self, other):
        calls.append(other)
        return eq(self, other)

    quotients = []
    for module in (cones, intlinalg, monoids):
        build = module.quotient
        monkeypatch.setattr(
            module, "quotient", lambda *a, build=build: quotients.append(a) or build(*a)
        )
    monkeypatch.setattr(Cone, "__eq__", counting)
    rep = run(["info", path])
    assert rep.results["num_cones"] == 513
    assert sum(c["maximal"] for c in rep.results["cones"]) == 256
    assert all(c["character_rank"] == c["dim"] for c in rep.results["cones"])
    assert len(calls) <= rep.results["num_cones"]
    assert quotients == []
