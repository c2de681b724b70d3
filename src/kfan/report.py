"""Job reports and the canonical serialization of values.

Reports are deterministic: identical inputs and seeds give bit-identical
JSON, so iteration is always over sorted structures.  Every success
carries enough certificate data (witness cochains, extended sections)
to re-verify the claim through the library independently.

``JobReport.to_json`` writes a report as compact canonical JSON:
``json.dumps(obj, sort_keys=True, separators=(",", ":"))``, one line
with sorted keys and no whitespace, written by the stdlib's C encoder
(any ``indent`` would drop it to the pure-Python one).  A report holds
only dicts with str keys, lists, strs, exact ints, bools and None, so
its bytes follow from its parsed content.  To read one, pipe it through
``python -m json.tool``.
The ``*_to_jsonable`` functions here write every value a report carries.
A smooth fan's stalk elements, kept in ray coordinates, are written and
read in the coordinates of the character groups, through each stalk's
ray chart (``kfan.sheaves.RayStalk.chart``): on a smooth fan, only here.
Keys go through its unrolled maps (``RayStalk.chart_maps``), a read key
checked for length first.  ``flasque_witness_to_jsonable`` writes the
components an extension shares with its problem once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .cech import Cochain
from .fanfile import is_int, is_int_list
from .monoids import GroupRingElement
from .sheaves import RayStalk

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_SOLVER_GAVE_UP = 3


def element_to_jsonable(el: GroupRingElement) -> list:
    """A group-ring element as a sorted list of [coords, coeff] pairs.
    An element of a smooth fan's stalk (``RayStalk``) is written in the
    coordinates of the cone's character group, through T^-1 of the
    stalk's ray chart."""
    if not el.terms or not isinstance(el.group, RayStalk):
        return [[list(coords), coeff] for coords, coeff in sorted(el.terms.items())]
    to_smith = el.group.chart_maps()[1]
    return sorted([[to_smith(e), k] for e, k in el.terms.items()])


def element_from_jsonable(group, data) -> GroupRingElement:
    """Inverse of ``element_to_jsonable``; coordinates and coefficients
    must be JSON integers (see ``fanfile.is_int``), never coerced.  The
    shape is checked before a term is unpacked: a list of two-entry
    lists.  Coordinates are those ``element_to_jsonable`` writes, read
    into a ``RayStalk`` through T of the stalk's ray chart, each key
    checked for length (``RayStalk.reduce``) before the unrolled map
    reads it."""
    if not isinstance(data, list):
        raise ValueError(f"element {data!r} is not a list of [integer list, integer] terms")
    terms = {}
    for term in data:
        if not isinstance(term, list) or len(term) != 2:
            raise ValueError(f"term {term!r} is not [integer list, integer]")
        coords, coeff = term
        if not is_int_list(coords) or not is_int(coeff):
            raise ValueError(f"term {term!r} is not [integer list, integer]")
        key = tuple(coords)
        terms[key] = terms.get(key, 0) + coeff
    if terms and isinstance(group, RayStalk):
        to_rays = group.chart_maps()[0]
        terms = {tuple(to_rays(group.reduce(e))): k for e, k in terms.items()}
    return GroupRingElement(group, terms)


def cochain_to_jsonable(c: Cochain) -> dict:
    return {
        "level": c.level,
        "components": [
            [list(t), element_to_jsonable(v)] for t, v in sorted(c.components.items())
        ],
    }


def cochain_from_jsonable(complex, data) -> Cochain:
    """Inverse of ``cochain_to_jsonable``; the level and the tuple entries
    must be JSON integers, never coerced, no tuple may repeat, and each
    must have the level's shape (``CechComplex.is_level_tuple``) before
    its stalk is looked up."""
    level = data["level"]
    if not is_int(level):
        raise ValueError(f"level {level!r} is not an integer")
    comps = {}
    for t, val in data["components"]:
        if not is_int_list(t):
            raise ValueError(f"tuple {t!r} is not an integer list")
        key = tuple(t)
        if key in comps:
            raise ValueError(f"tuple {t!r} is repeated")
        if not complex.is_level_tuple(key, level):
            raise ValueError(f"tuple {t!r} is not a level-{level} tuple")
        comps[key] = element_from_jsonable(complex.stalk(key), val)
    return Cochain(complex, level, comps)


def section_to_jsonable(section) -> dict:
    """A section as its domain's cone ids and its values, by cone id."""
    return _section_to_jsonable(section, {})


def flasque_witness_to_jsonable(section, extension) -> dict:
    """A ``check-flasque`` witness: the section as its problem and its
    extension.  ``extend_section`` checked that the extension restricts
    to the section, so the two agree on the cones they share: those
    components are written once, as the problem's lists."""
    problem = section_to_jsonable(section)
    shared = dict(problem["components"])
    return {"problem": problem, "extension": _section_to_jsonable(extension, shared)}


def _section_to_jsonable(section, written: dict) -> dict:
    # the values in ``written``, by cone id, are taken as they are
    comps = [
        [c, written[c] if c in written else element_to_jsonable(v)]
        for c, v in sorted(section.values.items())
    ]
    return {"domain_cone_ids": sorted(section.domain.ids), "components": comps}


def h0_to_jsonable(fan, section) -> dict:
    """A global section in the level-0 cochain layout of ``k0-global``
    reports: its nonzero values, keyed [i] by maximal-cone index."""
    values = enumerate(section.values[c] for c in fan.max_ids)
    comps = [[[i], element_to_jsonable(v)] for i, v in values if not v.is_zero()]
    return {"level": 0, "components": comps}


@dataclass
class JobReport:
    command: str
    inputs: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    certificates: dict = field(default_factory=dict)
    statistics: dict = field(default_factory=dict)
    exit_status: int = EXIT_OK

    def to_jsonable(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "certificates": self.certificates,
            "statistics": self.statistics,
            "exit_status": self.exit_status,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":"))

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for section in ("inputs", "results", "statistics", "certificates"):
            data = getattr(self, section)
            if data:
                lines.append(f"{section}:")
                lines += (f"  {key}: {_render(data[key])}" for key in sorted(data))
        lines.append(f"exit status: {self.exit_status}")
        return "\n".join(lines)


def _render(value) -> str:
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, sort_keys=True)
    return str(value)
