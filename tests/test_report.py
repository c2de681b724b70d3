"""The report writer and the strict reading of cochain certificates.

``JobReport.to_json`` writes reports with ``report._encode``, which must
give exactly the bytes of ``json.dumps(obj, sort_keys=True, indent=2)``
on every value, and raise ``TypeError`` wherever the stdlib does.
"""

import json
import math
import os
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfan.cech import CechComplex
from kfan.cli import run
from kfan.fanfile import build_fan, load_fan_file
from kfan.monoids import GroupRingElement
from kfan.report import (
    JobReport,
    _encode,
    cochain_from_jsonable,
    cochain_to_jsonable,
    element_from_jsonable,
    element_to_jsonable,
)
from kfan.sheaves import sheaf_a0

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
P2 = os.path.join(ROOT, "fans", "p2.json")


def stdlib(value):
    return json.dumps(value, sort_keys=True, indent=2)


def outcome(fn, value):
    """(result, None) or (None, exception type) of ``fn(value)``."""
    try:
        return fn(value), None
    except (TypeError, ValueError) as exc:
        return None, type(exc)


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.just(-0.0)
    | st.text()
    | st.text(alphabet='"\\\n\t\x00\x1f\x7f/é€😀 ')
)
keys = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    # one key type per dict: mixed types would not sort
    | st.one_of(
        st.dictionaries(st.integers(), inner, max_size=4),
        st.dictionaries(st.floats(allow_nan=False), inner, max_size=4),
        st.dictionaries(st.booleans(), inner, max_size=2),
        st.dictionaries(st.none(), inner, max_size=1),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_writer_equals_stdlib(value):
    assert _encode(value, "\n") == stdlib(value)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(keys, scalars, max_size=4))
def test_writer_raises_where_stdlib_does_on_keys(value):
    # mixed key types may or may not sort; either way both agree
    assert outcome(lambda v: _encode(v, "\n"), value) == outcome(stdlib, value)


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
    with pytest.raises(TypeError):
        stdlib(value)
    with pytest.raises(TypeError):
        _encode(value, "\n")


class Str(str):
    pass


class Int(int):
    def __repr__(self):
        return "not this"


class Float(float):
    def __repr__(self):
        return "not this"


class List(list):
    pass


class Dict(dict):
    pass


def test_writer_subclasses_follow_stdlib():
    value = Dict(
        {
            "a": List([Int(3), Float(0.5), Str("s"), True, None]),
            "b": (Float(math.inf), Float(-math.inf), Float(math.nan), -0.0),
            "c": List(),
            "d": (),
            "e": Dict({Int(7): Dict(), Int(-2): Str("t"), 10: (List(),)}),
            "f": {Float(0.25): 1, -math.inf: 2, 1e300: 3},
        }
    )
    assert _encode(value, "\n") == stdlib(value)
    assert _encode(Str("top"), "\n") == stdlib(Str("top"))
    assert _encode({True: 1, False: 2}, "\n") == stdlib({True: 1, False: 2})


# group-ring terms [[c_1, .., c_n], k] take the writer's term templates;
# near misses must fall back to the generic path with the same outcome
exact_ints = st.integers() | st.integers(min_value=-(10**60), max_value=10**60)
misses = (
    st.booleans()
    | st.integers().map(Int)
    | st.floats(allow_nan=False)
    # beyond the default limit of int-to-str conversion: ValueError
    | st.sampled_from([10**4300, -(10**4400)])
)
terms = st.tuples(st.lists(exact_ints, max_size=4), exact_ints).map(list)
near_terms = st.one_of(
    terms,
    st.tuples(st.lists(exact_ints | misses, max_size=4), exact_ints | misses).map(list),
    st.tuples(st.lists(exact_ints, max_size=4)).map(list),
    st.tuples(st.lists(exact_ints, max_size=4), exact_ints, exact_ints).map(list),
    st.tuples(st.lists(exact_ints, max_size=4), exact_ints),
    st.tuples(st.lists(exact_ints, max_size=4).map(tuple), exact_ints).map(list),
    exact_ints | misses,
)


@st.composite
def one_miss(draw):
    """Terms with one coordinate or coefficient replaced by a near miss."""
    value = draw(st.lists(terms, min_size=1, max_size=6))
    term = draw(st.sampled_from(value))
    slots = [(term[0], i) for i in range(len(term[0]))] + [(term, 1)]
    where, i = draw(st.sampled_from(slots))
    where[i] = draw(misses)
    return value


@settings(max_examples=300, deadline=None)
@given(st.lists(terms, max_size=6) | st.lists(near_terms, max_size=6) | one_miss())
def test_writer_term_lists_equal_stdlib(value):
    for nested in (value, {"components": [[[0, 1], value]]}):
        assert outcome(lambda v: _encode(v, "\n"), nested) == outcome(stdlib, nested)


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
    assert rep.to_json() == stdlib(rep.to_jsonable())


def test_writer_peak_memory_stays_under_three_report_lengths(monkeypatch):
    # the stdlib's indent path peaks near 4.7 report lengths here
    monkeypatch.chdir(ROOT)
    rep = run(["check-flasque", "bench/fans/p1xp1xp1.json", "--trials", "10", "--seed", "3"])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = rep.to_json()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert text == stdlib(rep.to_jsonable())
    assert peak < 3 * len(text)


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
    "path", ["fans/p2.json", "bench/fans/ladder-12.json", "tests/golden/p4.json"]
)
def test_element_writes_match_the_chart_term_by_term(path):
    # every size of element, one pass over the rows of T^-1, against T^-1 per term
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
