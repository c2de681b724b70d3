"""The kfan benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload k0-ladder --seed 1 --seconds 45 --trace 0

Drives ``kfan.cli.run([...])`` in-process as a closed loop with one
client: a job starts when the previous one has finished.  A run makes a
fixed number of passes (lists of jobs, ``jobs.make_pass``, each from the
seed and its index; ``jobs.passes`` gives how many fit in ``--seconds``)
and reports the median over passes.  Every outcome is re-checked independently
(``jobs.Checker``), and a pass must give byte-identical reports in
every run with the same seed.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs the pass untraced and then twice with spans around
the public ``kfan`` functions (``tracing.py``), checks that both traced
passes give the same counts, and prints the per-layer metrics and the
tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every check passed, 1 when a check failed and 2 when the
program cannot be found.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import tracing  # noqa: E402

# end-to-end metric -> unit; the order is the order of BENCHMARK.json
E2E_UNITS = {
    "wall_s": "s",
    "largest_job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "solved_ratio": "ratio",
    "correct_ratio": "ratio",
}
SETUP_SAMPLES = 3  # this process, then fresh ones after the first passes
# Safety stops only: the number of passes does not depend on them.
JOB_LIMIT_S = 30.0  # a job running longer is a counted failure
RUN_LIMIT_S = 140.0  # jobs not started by then are counted failures
# Seconds that calibration_work() takes on the reference machine (a
# 2-vCPU x86-64 VM, Python 3.11) when it is not slowed by neighbours.
CAL_REFERENCE_S = 0.00107
SAMPLE_EVERY_S = 0.05


@functools.cache
def benchmark_spec() -> dict:
    """BENCHMARK.json, which also sets the default run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class JobTimeout(BaseException):
    """Raised inside a job that ran past JOB_LIMIT_S.  A BaseException,
    so that no ``except Exception`` in the program swallows it."""


def calibration_work() -> int:
    """A fixed pure-Python workload: integer arithmetic and a dict, like
    the exact linear algebra it stands in for.  Its keys and values are
    ints, so it allocates nothing that the garbage collector tracks: a
    sample never starts a collection that would traverse the program's
    objects (and be taken out of the program's time with the sample),
    nor brings the program's next collection closer."""
    acc: dict = {}
    x = 1
    for i in range(3000):
        x = (x * 48271 + i) % 2147483647
        key = (x & 255) << 3 | (i & 7)
        acc[key] = acc.get(key, 0) + x
    return len(acc)


class Clock:
    """Times spans in reference seconds.

    The speed of this kind of machine drifts by up to a factor of two
    over seconds, because other virtual machines share its cores; CPU
    time drifts with it.  So the clock measures the speed while a span
    runs: a timer signal every SAMPLE_EVERY_S runs ``calibration_work``
    (about 2% of the time, which is taken out again), and the span's
    wall time is scaled by the mean of CAL_REFERENCE_S / calibration
    time over those samples and one on each side of the span: evenly
    spaced samples of the speed, whose mean is the span's mean speed.
    The same signal enforces JOB_LIMIT_S.
    """

    def __init__(self):
        self.ratios: list[float] = []
        self.inside_s = 0.0
        self.deadline = 0.0

    def _sample(self) -> float:
        start = time.perf_counter()
        calibration_work()
        cal = time.perf_counter() - start
        self.ratios.append(CAL_REFERENCE_S / cal)
        return cal

    def _tick(self, signum, frame):
        self.inside_s += self._sample()
        if time.perf_counter() > self.deadline:
            raise JobTimeout()

    def time(self, fn):
        """(fn(), wall seconds, reference seconds), calibration excluded."""
        self.ratios = []
        self.inside_s = 0.0
        self._sample()
        signal.signal(signal.SIGALRM, self._tick)
        start = time.perf_counter()
        self.deadline = start + JOB_LIMIT_S
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start - self.inside_s
        self._sample()
        return result, elapsed, elapsed * statistics.fmean(self.ratios)


@dataclass
class PassResult:
    """Per job: reference seconds and report digest (None if the job
    failed); ``raw_s`` is the pass's plain wall time."""

    times: list = field(default_factory=list)
    raw_s: float = 0.0
    digests: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    attempts: int = 0
    gave_up: int = 0

    @property
    def wall_s(self) -> float:
        return sum(t for t in self.times if t is not None)


def run_job(cli, job, clock):
    """(outcome, report JSON or None, wall seconds, reference seconds).
    The JSON rendering is part of the job: it is what
    ``kfan ... --json`` prints."""

    def job_fn():
        outcome = cli.run(job.argv)
        return outcome, None if isinstance(outcome, int) else outcome.to_json()

    (outcome, text), wall, ref = clock.time(job_fn)
    return outcome, text, wall, ref


def run_pass(cli, job_list, checker=None, tracer=None, deadline=None) -> PassResult:
    """Run every job once; re-check the outcomes when given a checker.
    Jobs due after ``deadline`` (a perf_counter value) fail unrun."""
    res = PassResult()
    clock = Clock()
    for k, job in enumerate(job_list):
        if deadline is not None and time.perf_counter() > deadline:
            res.failures.append(f"{job.argv[:2]}: not run, the run passed {RUN_LIMIT_S} s")
            res.times.append(None)
            res.digests.append(None)
            continue
        if tracer is not None:
            tracer.job = k
            tracer.on = True
        try:
            outcome, text, wall, ref = run_job(cli, job, clock)
        except JobTimeout:
            outcome = f"timed out after {JOB_LIMIT_S} s"
        except (Exception, SystemExit):
            outcome = f"raised\n{traceback.format_exc()}"
        finally:
            if tracer is not None:
                tracer.on = False
        if isinstance(outcome, str):
            res.failures.append(f"{job.argv[:2]}: {outcome}")
            res.times.append(None)
            res.digests.append(None)
            continue
        res.raw_s += wall
        res.times.append(ref)
        res.digests.append(hashlib.sha256((text or str(outcome)).encode()).hexdigest())
        if checker is not None:
            try:
                checker.check(job, outcome)
            except (jobs.CheckFailed, KeyError, TypeError, ValueError) as e:
                res.failures.append(f"{job.argv[:2]}: {type(e).__name__}: {e}")
        if not isinstance(outcome, int):
            attempts, gave_up = jobs.trials_of(job, outcome)
            res.attempts += attempts
            res.gave_up += gave_up
    return res


def setup(workload: str):
    """Import kfan, then load and build every fan of the workload.
    Returns (reference seconds, cli module, fans)."""
    def setup_fn():
        from kfan import cli

        return cli, jobs.setup_fans(jobs.WORKLOADS[workload][0])

    (cli, fans), _wall, ref = Clock().time(setup_fn)
    return ref, cli, fans


def fresh_setup_s(workload: str) -> float:
    """Set-up time measured in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def program_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.glob("kfan/**/*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_digests(workload: str, seed: int, passes: dict) -> list[str]:
    """Same seed => same reports.  ``passes`` maps a pass index to the
    digest lists of its runs in this process; each must equal the one
    recorded for that pass by an earlier run of the same program,
    workload and seed in this checkout (recorded now if there is none)."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"digests-{program_fingerprint()}-{workload}-{seed}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    failures = []
    for index, runs in sorted(passes.items()):
        ref = known.setdefault(str(index), runs[0])
        failures += [
            f"pass {index} job {k}: report differs from a same-seed run"
            for digests in runs
            for k, (a, b) in enumerate(zip(ref, digests))
            if a != b
        ]
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known))
    os.replace(tmp, path)
    return failures


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(args, cli, fans, setup_samples):
    """Run the workload's fixed number of passes; after each of the
    first, time set-up once more in a fresh process."""
    checker = jobs.Checker(fans)
    largest = jobs.WORKLOADS[args.workload][1]
    passes, largest_s = [], []
    deadline = time.perf_counter() + RUN_LIMIT_S
    for index in range(jobs.passes(args.workload, args.seconds)):
        job_list = jobs.make_pass(args.workload, args.seed, index, fans)
        res = run_pass(cli, job_list, checker, deadline=deadline)
        passes.append(res)
        largest_s.append(sum(
            t for t, job in zip(res.times, job_list) if job.fan == largest and t is not None
        ))
        if len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(fresh_setup_s(args.workload))
    failures = [f for p in passes for f in p.failures]
    failures += compare_digests(
        args.workload, args.seed, {i: [p.digests] for i, p in enumerate(passes)}
    )
    n_jobs = sum(len(p.times) for p in passes)
    attempts = sum(p.attempts for p in passes)
    gave_up = sum(p.gave_up for p in passes)
    failed = min(len(failures), n_jobs)
    values = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "largest_job_s": statistics.median(largest_s),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "solved_ratio": 1 - gave_up / attempts,
        "correct_ratio": 1 - failed / n_jobs,
    }
    metrics = {name: (values[name], unit) for name, unit in E2E_UNITS.items()}
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"jobs {n_jobs}  (times in reference seconds, see Clock)")
    for name, samples in (
        ("wall_s", [p.wall_s for p in passes]),
        ("largest_job_s", largest_s),
        ("setup_s", setup_samples),
        ("plain_wall_s", [p.raw_s for p in passes]),
    ):
        q1, q2, q3 = quartiles(samples)
        print(f"  {name:<16} {q2:10.4f} s    q1 {q1:.4f}  q3 {q3:.4f}  n={len(samples)}")
    print(f"  {'peak_rss_mb':<16} {values['peak_rss_mb']:10.1f} MB")
    print(f"  {'gave_up_ratio':<16} {gave_up / attempts:10.4f}      ({gave_up}/{attempts} attempts)")
    print(f"  {'failed_ratio':<16} {failed / n_jobs:10.4f}      ({failed}/{n_jobs} jobs)")
    print(f"  {'solved_ratio':<16} {values['solved_ratio']:10.4f}      (1 - gave_up_ratio)")
    print(f"  {'correct_ratio':<16} {values['correct_ratio']:10.4f}      (1 - failed_ratio)")
    return n_jobs, failures, metrics


def measure_traced(args, cli, fans):
    job_list = jobs.make_pass(args.workload, args.seed, 0, fans)
    deadline = time.perf_counter() + RUN_LIMIT_S
    plain = run_pass(cli, job_list, jobs.Checker(fans), deadline=deadline)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    traced, layers = [], []
    try:
        for _ in range(2):
            tracer.reset()
            traced.append(run_pass(cli, job_list, tracer=tracer, deadline=deadline))
            layers.append(tracing.per_layer_metrics(tracer))
    finally:
        uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl.gz")
    runs = [plain] + traced
    failures = [f for r in runs for f in r.failures]
    failures += compare_digests(args.workload, args.seed, {0: [r.digests for r in runs]})
    differing = [
        name for name in layers[0]
        if name not in tracing.TIMED and layers[0][name] != layers[1][name]
    ]
    if differing:
        failures.append(f"per-layer counts differ between two traced passes: {differing}")
    values = {
        name: statistics.median([m[name] for m in layers]) if name in tracing.TIMED else layers[0][name]
        for name in layers[0]
    }
    values["trace.spans"] = len(tracer.spans)
    values["trace.overhead_s"] = statistics.median([r.wall_s for r in traced]) - plain.wall_s
    n_jobs = len(job_list) * len(runs)
    print(f"workload {args.workload}  seed {args.seed}  jobs {len(job_list)}  "
          f"untraced pass {plain.wall_s:.4f} s, traced "
          f"{', '.join(f'{r.wall_s:.4f}' for r in traced)} s")
    metrics = {}
    for name, unit in tracing.PER_LAYER_UNITS.items():
        metrics[name] = (values[name], unit)
        print(f"  {name:<40} {values[name]:14.6g} {unit}")
    return n_jobs, failures, metrics


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kfan" / "cli.py").is_file():
        print(f"error: no kfan sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # fan paths in the reports are relative to the root
    sys.path.insert(0, str(SRC))
    setup_s, cli, fans = setup(args.workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        n_jobs, failures, metrics = measure_traced(args, cli, fans)
    else:
        n_jobs, failures, metrics = measure(args, cli, fans, [setup_s])
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": n_jobs,
        "failed": min(len(failures), n_jobs),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
