"""Same-seed sweep: every randomized command on every fan file, one line
per run, for comparing two checkouts.

    python3 tests/same_seed_sweep.py [FAN_FILE ...] > sweep.txt

On the fan files in ``fans/``, ``bench/fans/`` and ``tests/golden/``
(or on those given, relative to the repository root) it runs
``check-exactness`` at levels 1 to min(top, 3), top being the number of
maximal cones less one, and ``check-flasque``, each with ``--trials 3``
at seeds 0 to 2 and ``--json``, adding ``--experimental-nonsmooth`` on
non-smooth fans, and ``k0-global --sample 3`` (the global-section
writer) at seeds 0 to 2 with ``--json``.  The readers of the quotient
layer follow, each with ``--json``: ``info``, then for every cone id i
``k0-affine --cone i``, ``hilbert --cone i`` and ``kclass --fan FAN
--cone i`` with the shifts 0 and the first unit vector.  Each run is
its own process, started in the repository root on this checkout's
``src`` and stopped by SIGALRM after ``ALARM_S`` seconds (the cube's
face fan runs past it), so its exit code is then -14.  Each line holds
the argv, the exit code and the sha256 of the run's stdout and of its
stderr.  A change that keeps same-seed reports prints the same lines as
its parent: run the script in both checkouts and diff the outputs.
pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from kfan.fanfile import build_fan, load_fan_file  # noqa: E402

FAN_DIRS = ("fans", "bench/fans", "tests/golden")
ALARM_S = 10
SEEDS = (0, 1, 2)
MAX_LEVEL = 3
CHILD = (
    "import signal, sys\n"
    f"signal.alarm({ALARM_S})\n"
    "from kfan.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def fan_files() -> list[str]:
    """The fan files of ``FAN_DIRS``, relative to the root: the JSON files
    with rays and maximal cones (``tests/golden/`` also holds reports)."""
    found = []
    for d in FAN_DIRS:
        for path in sorted((ROOT / d).glob("*.json")):
            data = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(data, dict) and "rays" in data and "max_cones" in data:
                found.append(path.relative_to(ROOT).as_posix())
    return found


def runs(fan_file: str) -> list[list[str]]:
    """The argvs of the sweep on one fan file."""
    fan = build_fan(load_fan_file(ROOT / fan_file))
    extra = [] if fan.is_smooth() else ["--experimental-nonsmooth"]
    levels = range(1, min(len(fan.max_cones) - 1, MAX_LEVEL) + 1)
    commands = [["check-exactness", fan_file, "--level", str(p)] for p in levels]
    commands.append(["check-flasque", fan_file])
    checks = [
        cmd + ["--trials", "3", "--seed", str(seed), "--json"] + extra
        for cmd in commands
        for seed in SEEDS
    ]
    sample = ["k0-global", fan_file, "--sample", "3"]
    samples = [sample + ["--seed", str(seed), "--json"] for seed in SEEDS]
    n = fan.lattice.rank
    shifts = json.dumps([[0] * n, [1] + [0] * (n - 1)], separators=(",", ":"))
    readers = [["info", fan_file, "--json"]]
    for i in map(str, range(len(fan.cones))):
        readers += [
            ["k0-affine", fan_file, "--cone", i, "--json"],
            ["hilbert", fan_file, "--cone", i, "--json"],
            ["kclass", "--fan", fan_file, "--cone", i, "--shifts", shifts, "--json"],
        ]
    return checks + samples + readers


def sweep_line(argv: list[str]) -> str:
    """One run, in its own process, as a line of the sweep."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
    )
    out, err = (hashlib.sha256(b).hexdigest() for b in (proc.stdout, proc.stderr))
    return f"{' '.join(argv)}\texit={proc.returncode}\tstdout={out}\tstderr={err}"


def main(paths: list[str]) -> int:
    for fan_file in paths or fan_files():
        for argv in runs(fan_file):
            print(sweep_line(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
