"""Job reports and the canonical serialization of values.

Reports are deterministic: identical inputs and seeds give bit-identical
JSON, so iteration is always over sorted structures.  Every success
carries enough certificate data (witness cochains, extended sections)
to re-verify the claim through the library independently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .cech import Cochain
from .fanfile import is_int, is_int_list
from .monoids import GroupRingElement

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_SOLVER_GAVE_UP = 3


def element_to_jsonable(el: GroupRingElement) -> list:
    """A group-ring element as a sorted list of [coords, coeff] pairs."""
    return [[list(coords), coeff] for coords, coeff in el.items()]


def element_from_jsonable(group, data) -> GroupRingElement:
    """Inverse of ``element_to_jsonable``; coordinates and coefficients
    must be JSON integers (see ``fanfile.is_int``), never coerced."""
    terms = {}
    for coords, coeff in data:
        if not is_int_list(coords) or not is_int(coeff):
            raise ValueError(f"term {[coords, coeff]} is not [integer list, integer]")
        key = tuple(coords)
        terms[key] = terms.get(key, 0) + coeff
    return GroupRingElement(group, terms)


def cochain_to_jsonable(c: Cochain) -> dict:
    return {
        "level": c.level,
        "components": [
            [list(t), element_to_jsonable(v)] for t, v in sorted(c.components.items())
        ],
    }


def cochain_from_jsonable(complex, data) -> Cochain:
    comps = {}
    for t, val in data["components"]:
        t = tuple(int(x) for x in t)
        comps[t] = element_from_jsonable(complex.stalk(t), val)
    return complex.cochain(int(data["level"]), comps)


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
        return json.dumps(self.to_jsonable(), sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for section in ("inputs", "results", "statistics"):
            data = getattr(self, section)
            if not data:
                continue
            lines.append(f"{section}:")
            for key in sorted(data):
                lines.append(f"  {key}: {_render(data[key])}")
        if self.certificates:
            lines.append("certificates:")
            for key in sorted(self.certificates):
                lines.append(f"  {key}: {_render(self.certificates[key])}")
        lines.append(f"exit status: {self.exit_status}")
        return "\n".join(lines)


def _render(value) -> str:
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, sort_keys=True)
    return str(value)
