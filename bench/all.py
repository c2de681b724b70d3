"""Run every workload, each in a fresh process, and summarize.

    python3 bench/all.py                       # seed 1, one run each
    python3 bench/all.py --seeds 1-10          # the README's baseline table

For each workload: one untraced run per seed (``--trace 0``), then one
traced run at the first seed (``--trace 1``).  Each run lasts
``run_seconds`` of BENCHMARK.json, the default of ``run.py --seconds``.
Prints every run's output, then each end-to-end metric's median and
quartile spread over the seeds, and next to ``wall_s`` the same for the
plain wall time of a pass (``plain_wall_s``), which is not calibrated.
Exits 1 if any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


PLAIN_WALL = re.compile(r"^\s*plain_wall_s\s+([0-9.]+) s", re.MULTILINE)


def run_once(workload: str, seed: int, trace: int):
    """(exit code, result object or None, plain pass wall time or None)"""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    plain = PLAIN_WALL.search(proc.stdout)
    return (proc.returncode, json.loads(lines[-1]) if lines else None,
            float(plain.group(1)) if plain else None)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=[1])
    args = p.parse_args(argv)
    ok = True
    summary = {}
    for workload in jobs.WORKLOADS:
        for seed in args.seeds:
            code, result, plain = run_once(workload, seed, 0)
            ok &= code == 0
            for name, m in (result or {}).get("metrics", {}).items():
                summary.setdefault((workload, name, m["unit"]), []).append(m["value"])
                if name == "wall_s" and plain is not None:
                    summary.setdefault((workload, "plain_wall_s", "s"), []).append(plain)
        code, _, _ = run_once(workload, args.seeds[0], 1)
        ok &= code == 0
    print(f"\n{'workload':<10} {'metric':<14} {'median':>10} {'unit':<6} iqr/median  n")
    for (workload, name, unit), values in summary.items():
        med = statistics.median(values)
        spread = 0.0
        if len(values) > 1 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
        print(f"{workload:<10} {name:<14} {med:10.4f} {unit:<6} {spread:10.4f}  {len(values)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
