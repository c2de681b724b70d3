"""Fan input files: a single JSON object with rays and maximal cones.

    {
      "name": "P2",                      # optional
      "lattice_rank": 2,
      "rays": [[1, 0], [0, 1], [-1, -1]],
      "max_cones": [[0, 1], [1, 2], [2, 0]]
    }

Rays are primitivized on load (with a warning) and indices are checked:
an unknown ray index is an error, and a ``max_cones`` entry that
repeats a ray index is named in a warning, as is each entry the fan
drops (``dropped_entries``) because it spans the same cone as an
earlier entry or a face of another.
Every number must be a JSON integer: floats, strings and booleans are
rejected, never rounded or coerced.  An object with a repeated key is
rejected too, rather than read as its last value.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .cones import Cone, Fan
from .intlinalg import Lattice, primitive


class FanFileError(Exception):
    """Malformed fan file; the message carries position info when the
    JSON itself is broken."""


@dataclass(frozen=True)
class FanFile:
    """A parsed fan file, frozen: the CLI shares one per file content
    between the jobs of a process."""

    lattice_rank: int
    rays: tuple
    max_cones: tuple
    name: str | None = None
    warnings: tuple = ()

    def to_jsonable(self) -> dict:
        out = {
            "lattice_rank": self.lattice_rank,
            "rays": [list(r) for r in self.rays],
            "max_cones": [list(c) for c in self.max_cones],
        }
        if self.name:
            out["name"] = self.name
        return out


def is_int(x) -> bool:
    """A JSON integer: ``bool`` is a subclass of ``int`` in Python."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_int_list(x) -> bool:
    return isinstance(x, list) and all(is_int(v) for v in x)


def _unique_keys(pairs: list) -> dict:
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"repeated key {key!r}")
        data[key] = value
    return data


def strict_json(text: str):
    """``json.loads``, except that a repeated key in an object raises
    ``ValueError`` instead of silently keeping the last value."""
    return json.loads(text, object_pairs_hook=_unique_keys)


def parse_fan_file(text: str, origin: str = "<string>") -> FanFile:
    try:
        data = strict_json(text)
    except json.JSONDecodeError as e:
        raise FanFileError(
            f"{origin}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    except (ValueError, RecursionError) as e:  # a repeated key, an oversized integer, deep nesting
        raise FanFileError(f"{origin}: unreadable JSON: {e}") from e
    if not isinstance(data, dict):
        raise FanFileError(f"{origin}: expected a JSON object")
    try:
        rank = data["lattice_rank"]
        rays_in = data["rays"]
        cones_in = data["max_cones"]
    except KeyError as e:
        raise FanFileError(f"{origin}: missing field {e.args[0]!r}") from e
    if not is_int(rank) or rank < 1:
        raise FanFileError(f"{origin}: lattice_rank must be a positive integer")
    for key, value in (("rays", rays_in), ("max_cones", cones_in)):
        if not isinstance(value, list):
            raise FanFileError(f"{origin}: {key} must be a list")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise FanFileError(f"{origin}: name must be a string")
    warnings = []
    rays = []
    for i, r in enumerate(rays_in):
        if not is_int_list(r) or len(r) != rank:
            raise FanFileError(f"{origin}: ray {i} is not an integer vector of length {rank}")
        p = primitive(r)
        if p is None:
            raise FanFileError(f"{origin}: ray {i} is zero")
        if list(p) != r:
            warnings.append(f"ray {i} {r} normalized to primitive {list(p)}")
        rays.append(p)
    cones = []
    for i, c in enumerate(cones_in):
        if not is_int_list(c):
            raise FanFileError(f"{origin}: max cone {i} is not a list of ray indices")
        for x in c:
            if not 0 <= x < len(rays):
                raise FanFileError(f"{origin}: max cone {i} uses unknown ray index {x}")
        for x, k in sorted(Counter(c).items()):
            if k > 1:
                warnings.append(f"max cone {i} {c} repeats ray index {x}")
        cones.append(tuple(c))
    return FanFile(
        lattice_rank=rank,
        rays=tuple(rays),
        max_cones=tuple(cones),
        name=name,
        warnings=tuple(warnings),
    )


def read_fan_text(path: str | Path) -> str:
    """The text of the fan file at ``path``: its bytes decoded as UTF-8
    (JSON's encoding, RFC 8259), whatever the locale, with ``\\r\\n`` and
    a lone ``\\r`` read as ``\\n``, as ``Path.read_text`` reads them in a
    UTF-8 locale."""
    try:
        with open(path, "rb") as f:
            text = f.read().decode()
    except (OSError, UnicodeDecodeError) as e:
        raise FanFileError(f"cannot read {Path(path)}: {e}") from e
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def load_fan_file(path: str | Path, text: str | None = None) -> FanFile:
    """The fan file at ``path``, parsed from ``text`` when given, else read."""
    path = Path(path)
    return parse_fan_file(read_fan_text(path) if text is None else text, origin=str(path))


def build_fan(ff: FanFile) -> Fan:
    return Fan.from_rays_and_indices(
        Lattice(ff.lattice_rank), ff.rays, ff.max_cones
    )


def dropped_entries(ff: FanFile, fan: Fan) -> list[str]:
    """A warning for each entry of ``ff.max_cones`` that ``fan``, built
    from ``ff``, dropped: one that spans the same cone as an earlier
    entry, or a proper face of another entry's cone.  The fan keeps the
    other entries, in order, as ``max_ids``, so the two lists are walked
    side by side: an entry is the next maximal cone when that cone's rays
    are among the entry's and the cone contains the entry's other rays."""
    warnings = []
    kept: list[int] = []  # the entry of each maximal cone found so far
    max_ids = fan.max_ids
    for i, entry in enumerate(ff.max_cones):
        rays = {ff.rays[x] for x in entry}
        if len(kept) < len(max_ids):
            top = max_ids[len(kept)]
            cone = fan.cones[top]
            if fan.ray_sets[top] <= rays and all(map(cone.contains, rays - fan.ray_sets[top])):
                kept.append(i)
                continue
        c = fan.index_of(Cone.from_rays(fan.lattice, rays))
        why = (f"the same cone as max cone {kept[max_ids.index(c)]}" if c in max_ids
               else "a face of another max cone")
        warnings.append(f"max cone {i} {list(entry)} spans {why}; the fan drops it")
    return warnings
