"""The sheaf and the cover complex are keyed by cone number.

A fan numbers its cones (``Fan.cones``), and every table that the sheaf,
its sections and the cover complex keep or walk holds those numbers.
The fan finds a ``Cone`` by its ray set (``Fan.find``), so a command
hashes no ``Cone`` at all, building its fan included.  The boundary
(``FanSheaf.stalk`` and ``restriction``, ``Section`` built from cones,
and the report readers) accepts any cone equal to one of the fan's, and
refuses a cone outside the fan as it always did.
"""

import os
import random

import pytest

from kfan import cli
from kfan.cech import CechComplex
from kfan.cli import main
from kfan.cones import Cone, ConeNotInFan
from kfan.fanfile import build_fan, load_fan_file
from kfan.intlinalg import Lattice
from kfan.monoids import GroupRingElement
from kfan.report import (
    cochain_from_jsonable,
    cochain_to_jsonable,
    element_from_jsonable,
    element_to_jsonable,
)
from kfan.sheaves import Section, random_open_subfan, random_section, sheaf_a0

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
P1XP1XP1 = os.path.join(ROOT, "bench", "fans", "p1xp1xp1.json")


def cone_hashes(monkeypatch, capsys, args) -> int:
    """How many times ``Cone.__hash__`` runs in one in-process command,
    its report written."""
    calls = []
    original = Cone.__hash__

    def counting(cone):
        calls.append(cone)
        return original(cone)

    cli._built.cache_clear()  # count a cold command: the fan is built afresh
    with monkeypatch.context() as m:
        m.setattr(Cone, "__hash__", counting)
        assert main(args + ["--json"]) == 0
    capsys.readouterr()
    return len(calls)


def test_flasque_trials_hash_no_cone(monkeypatch, capsys):
    one, ten = (
        cone_hashes(monkeypatch, capsys, ["check-flasque", P1XP1XP1, "--seed", "3", "--trials", t])
        for t in ("1", "10")
    )
    assert one == ten == 0


@pytest.mark.parametrize("level", ["1", "2"])
def test_exactness_trials_hash_no_cone(monkeypatch, capsys, level):
    command = ["check-exactness", P1XP1XP1, "--level", level, "--trials"]
    one, six = (cone_hashes(monkeypatch, capsys, command + [t]) for t in ("1", "6"))
    assert one == six == 0


def twin_fans():
    """Two loads of the same fan file: equal cones, distinct instances."""
    fan, other = build_fan(load_fan_file(P1XP1XP1)), build_fan(load_fan_file(P1XP1XP1))
    for mine, theirs in zip(fan.cones, other.cones):
        assert mine == theirs and mine is not theirs
    return fan, other


def test_the_sheaf_reads_equal_but_distinct_cones_as_its_own():
    fan, other = twin_fans()
    sheaf = sheaf_a0(fan)
    twin = dict(zip(fan.cones, other.cones))
    for sigma in fan.cones:
        assert sheaf.stalk(twin[sigma]) is sheaf.stalk(sigma)
        assert sheaf.stalk(twin[sigma]).chart() is sheaf.stalk(sigma).chart()
        for tau in fan.faces_of(sigma):
            assert sheaf.restriction(twin[sigma], twin[tau]) is sheaf.restriction(sigma, tau)
        data = [[[1] * len(sigma.rays), 2], [[0] * len(sigma.rays), -1]]
        read = element_from_jsonable(sheaf.stalk(twin[sigma]), data)
        assert read == element_from_jsonable(sheaf.stalk(sigma), data)
        if sigma.rays:  # on the zero cone both terms are the one monomial
            assert element_to_jsonable(read) == sorted(data)


def test_sections_take_equal_but_distinct_cones():
    fan, other = twin_fans()
    sheaf = sheaf_a0(fan)
    twin = dict(zip(fan.cones, other.cones))
    rng = random.Random(41)
    for _ in range(6):
        domain = random_open_subfan(fan, rng)
        section = random_section(sheaf, domain, rng)
        same_domain = fan.subfan([twin[c] for c in domain.members])
        assert same_domain == domain
        copy = Section(sheaf, same_domain, {twin[c]: v for c, v in section.components.items()})
        assert copy == section and copy.check()
        assert copy.components == section.components
        smaller = fan.subfan(fan.faces_of(domain.max_cones()[0]))
        assert copy.restrict(smaller) == section.restrict(smaller)


def test_cochains_read_through_either_load():
    fan, other = twin_fans()
    cx, cx_other = CechComplex(fan), CechComplex(other)
    rng = random.Random(42)
    for level in (1, 2):
        z = cx.random_cocycle(level, rng)
        data = cochain_to_jsonable(z)
        assert cochain_from_jsonable(cx, data) == z
        assert cochain_to_jsonable(cochain_from_jsonable(cx_other, data)) == data
        assert cx_other.cone_of(min(z.components)) == cx.cone_of(min(z.components))


def test_a_cone_outside_the_fan_is_refused_as_before():
    fan, _ = twin_fans()
    sheaf = sheaf_a0(fan)
    outside = Cone.from_rays(Lattice(3), [(1, 1, 1)])
    inside = fan.max_cones[0]
    for call in (
        lambda: sheaf.stalk(outside),
        lambda: sheaf.restriction(outside, fan.cones[0]),
        lambda: sheaf.restriction(inside, outside),
    ):
        with pytest.raises(KeyError):
            call()
    for call in (
        lambda: fan.index_of(outside),
        lambda: fan.faces_of(outside),
        lambda: fan.intersection(inside, outside),
        lambda: fan.subfan([outside]),
    ):
        with pytest.raises(ConeNotInFan):
            call()
    # a component at a cone outside the fan is one off the domain's maximal cones
    domain = fan.star_open(inside)
    one = GroupRingElement.one(sheaf.stalk(inside))
    stray = GroupRingElement.one(sheaf.stalk(fan.cones[1]))
    with pytest.raises(ValueError, match="not a maximal cone of the domain"):
        Section(sheaf, domain, {inside: one, outside: stray})
    assert outside not in domain and inside in domain
