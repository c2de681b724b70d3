"""The three workloads as lists of CLI jobs, and the independent checks
of every job's outcome.

A pass is one list of jobs.  Pass ``i`` of a run with seed ``s`` depends
only on (workload, s, i), so the same seed gives the same inputs.  The program sees only
the fan files, the element and shift arguments made here, and
``--seed``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

BENCH_FANS = "bench/fans"
REPO_FANS = "fans"

# fan key -> (file, complete).  Keys are the names used in the reports.
FANS = {
    "p1": (f"{REPO_FANS}/p1.json", True),
    "p2": (f"{REPO_FANS}/p2.json", True),
    "p1xp1": (f"{REPO_FANS}/p1xp1.json", True),
    "f2": (f"{REPO_FANS}/hirzebruch2.json", True),
    "quadric-cone": (f"{REPO_FANS}/quadric-cone.json", False),
    "f1": (f"{BENCH_FANS}/f1.json", True),
    "bl1p2": (f"{BENCH_FANS}/bl1p2.json", True),
    "a2": (f"{BENCH_FANS}/a2.json", False),
    "ladder-6": (f"{BENCH_FANS}/ladder-6.json", True),
    "ladder-8": (f"{BENCH_FANS}/ladder-8.json", True),
    "ladder-10": (f"{BENCH_FANS}/ladder-10.json", True),
    "ladder-12": (f"{BENCH_FANS}/ladder-12.json", True),
    "p3": (f"{BENCH_FANS}/p3.json", True),
    "p1xp1xp1": (f"{BENCH_FANS}/p1xp1xp1.json", True),
}

K0_FANS = ("ladder-6", "ladder-8", "ladder-10", "ladder-12", "p3", "p1xp1xp1")
AFFINE_FANS = ("p1", "p2", "p1xp1", "f2", "quadric-cone")
EXACTNESS_FANS = ("p2", "p1xp1", "f2", "f1", "bl1p2", "p3", "p1xp1xp1")
# P3 is left out: random_section gives up on about one in five samples
# over the whole P3 fan, and the job dies with a RuntimeError.
FLASQUE_FANS = (
    "p1", "p2", "p1xp1", "f1", "f2", "bl1p2", "a2", "ladder-8", "p1xp1xp1",
)
# Trials per randomized job.  A trial's cost depends on its seed, with a
# long tail, so a run needs many trials on the largest fan
# (largest_job_s) to be steady.  A check-exactness job spends about half
# a second building its complex before the first trial, so exactness
# jobs get 6 trials.  Flasque jobs cost little beyond their trials, so
# the small fans get 2 and P1xP1xP1 gets 10.
EXACTNESS_TRIALS = 6
FLASQUE_TRIALS = 2
FLASQUE_LARGEST_TRIALS = 10
# Run seconds given to one pass.  A run makes as many passes as fit in
# --seconds, at least MIN_PASSES; the count never depends on measured
# time, so the inputs of a run depend only on its seed and --seconds.
# At the machine's usual shared speed (1.5-2x slower than its full
# speed) a pass and its checks take about 7 s in k0-ladder, 7.5 s in
# exactness and 6.5 s in flasque.  Randomized passes spread most, so
# flasque gets 8 passes (a run of about 55 s) and exactness 5 (about
# 42 s); k0-ladder passes repeat nearly the same work, so three are
# enough (about 26 s).
PASS_SECONDS = {"k0-ladder": 15.0, "exactness": 9.0, "flasque": 5.6}
MIN_PASSES = 3

WORKLOADS = {
    # name -> (fans set up before the first job, largest fan)
    "k0-ladder": (K0_FANS + AFFINE_FANS, "ladder-12"),
    "exactness": (EXACTNESS_FANS, "p1xp1xp1"),
    "flasque": (FLASQUE_FANS, "p1xp1xp1"),
}

EXIT_OK, EXIT_FAILURE = 0, 1


class CheckFailed(Exception):
    """A job's outcome is wrong."""


@dataclass
class FanData:
    """What set-up learns about one fan file."""

    key: str
    path: str
    rank: int
    n_max: int
    complete: bool
    max_cone_ids: list
    max_cone_dims: list
    max_cone_rays: list
    max_cone_smooth: list
    fan: object = None


@dataclass
class Job:
    fan: str
    argv: list
    kind: str
    expect: dict = field(default_factory=dict)


def setup_fans(keys) -> dict[str, FanData]:
    """Load and build every fan of a workload once, through the
    library's own loader."""
    from kfan.fanfile import build_fan, load_fan_file

    out = {}
    for key in keys:
        path, complete = FANS[key]
        ff = load_fan_file(path)
        fan = build_fan(ff)
        out[key] = FanData(
            key=key,
            path=path,
            rank=ff.lattice_rank,
            n_max=len(ff.max_cones),
            complete=complete,
            max_cone_ids=[fan.index_of(c) for c in fan.max_cones],
            max_cone_dims=[c.dim for c in fan.max_cones],
            max_cone_rays=[[list(r) for r in c.rays] for c in fan.max_cones],
            max_cone_smooth=[c.is_smooth() for c in fan.max_cones],
            fan=fan,
        )
    return out


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1_000_000))


def _character(rng: random.Random, rank: int) -> list:
    return [rng.randint(-2, 2) for _ in range(rank)]


def _nonzero(rng: random.Random) -> int:
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _k0_global_job(f: FanData, mode: int, rng: random.Random) -> Job:
    if mode == 0:
        return Job(f.key, ["k0-global", f.path, "--seed", _seed(rng), "--json"], "sample")
    # a sum of character tuples: the same element on every piece
    terms = [[_character(rng, f.rank), _nonzero(rng)] for _ in range(2)]
    element = {str(i): [list(t) for t in terms] for i in range(f.n_max)}
    expect = {"member": True}
    if mode == 2:
        # one piece gets an extra monomial, so its coefficient sum
        # differs from every other piece's
        k = rng.randrange(f.n_max)
        extra = _nonzero(rng)
        element[str(k)] = element[str(k)] + [[_character(rng, f.rank), extra]]
        pair = [0, k] if k else [0, 1]
        # d(c) on (a, b) is c_b - c_a pushed to the meet
        expect = {"member": False, "pair": pair, "aug": extra if k else -extra}
    argv = ["k0-global", f.path, "--element", json.dumps(element), "--json"]
    return Job(f.key, argv, "element", expect)


def make_pass(workload: str, seed: int, index: int, fans: dict) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}:{index}")
    jobs = []
    if workload == "k0-ladder":
        for j, key in enumerate(K0_FANS):
            f = fans[key]
            jobs.append(Job(key, ["info", f.path, "--json"], "info"))
            # over three consecutive passes every fan gets a sample, a
            # member and a non-member query
            jobs.append(_k0_global_job(f, (seed + index + j) % 3, rng))
        for key in AFFINE_FANS:
            f = fans[key]
            m = rng.randrange(f.n_max)
            cone = str(f.max_cone_ids[m])
            shifts = [_character(rng, f.rank) for _ in range(3)]
            expect = {"max_index": m}
            jobs.append(Job(key, ["k0-affine", f.path, "--cone", cone, "--json"], "k0-affine", expect))
            jobs.append(Job(key, ["hilbert", f.path, "--cone", cone, "--json"], "hilbert", expect))
            jobs.append(
                Job(
                    key,
                    ["kclass", "--fan", f.path, "--cone", cone,
                     "--shifts", json.dumps(shifts), "--json"],
                    "kclass",
                    {"shifts": shifts},
                )
            )
    elif workload == "exactness":
        for key in EXACTNESS_FANS:
            for level in (1, 2):
                argv = ["check-exactness", fans[key].path, "--level", str(level),
                        "--trials", str(EXACTNESS_TRIALS), "--seed", _seed(rng), "--json"]
                jobs.append(Job(key, argv, "exactness", {"level": level}))
    elif workload == "flasque":
        for key in FLASQUE_FANS:
            trials = FLASQUE_LARGEST_TRIALS if key == "p1xp1xp1" else FLASQUE_TRIALS
            argv = ["check-flasque", fans[key].path,
                    "--trials", str(trials), "--seed", _seed(rng), "--json"]
            jobs.append(Job(key, argv, "flasque"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def passes(workload: str, seconds: float) -> int:
    """How many passes a run of ``seconds`` makes."""
    return max(MIN_PASSES, int(seconds // PASS_SECONDS[workload]))


def trials_of(job: Job, report) -> tuple[int, int]:
    """(attempts, gave up) for one job.  A solver trial is an attempt;
    a job that runs no solver is one attempt that cannot give up."""
    if job.kind == "exactness":
        trials = report.statistics.get("trials", [])
        return len(trials), sum(1 for t in trials if not t["solved"])
    if job.kind == "flasque":
        trials = report.statistics.get("trials", [])
        return len(trials), sum(1 for t in trials if not t["extended"])
    return 1, 0


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _augmentation(element_json) -> int:
    return sum(coeff for _coords, coeff in element_json)


class Checker:
    """Re-verifies job outcomes without trusting the report's verdicts.
    Complexes and sheaves for re-checking certificates are built once
    per fan."""

    def __init__(self, fans: dict[str, FanData]):
        self.fans = fans
        self._complexes = {}
        self._sheaves = {}

    def check(self, job: Job, outcome) -> None:
        """Raise CheckFailed when the outcome is wrong."""
        _need(not isinstance(outcome, int), f"exit code {outcome}, no report")
        expected_exit = EXIT_FAILURE if job.expect.get("member") is False else EXIT_OK
        _need(
            outcome.exit_status == expected_exit,
            f"exit status {outcome.exit_status}, expected {expected_exit}",
        )
        getattr(self, "_check_" + job.kind.replace("-", "_"))(job, outcome.results, outcome)

    def _check_info(self, job, r, _report):
        f = self.fans[job.fan]
        _need(r["smooth"] is True, "info: fan is not smooth")
        _need(len(r["max_cone_ids"]) == f.n_max, "info: wrong number of maximal cones")
        _need(r["complete"] is f.complete, f"info: complete is {r['complete']}")

    def _check_sample(self, job, r, _report):
        f = self.fans[job.fan]
        members = r["character_members"]
        _need(len(members) == 5, "k0-global: expected the default 5 members")
        chars = [tuple(m["character"]) for m in members]
        _need(len(set(chars)) == len(chars), "k0-global: repeated character")
        for m in members + [{"tuple": r["unit"], "character": [0] * f.rank}]:
            comps = m["tuple"]["components"]
            _need([c[0] for c in comps] == [[i] for i in range(f.n_max)],
                  "k0-global: member does not cover every piece")
            for _t, el in comps:
                _need(len(el) == 1 and el[0][1] == 1,
                      "k0-global: a character member is one monomial per piece")
                if f.complete:  # full-dimensional pieces keep ambient coordinates
                    _need(el[0][0] == list(m["character"]), "k0-global: wrong character")

    def _check_element(self, job, r, _report):
        e = job.expect
        _need(r["member"] is e["member"], f"k0-global: member is {r['member']}")
        if e["member"]:
            return
        _need(r["failing_pair"] == e["pair"], f"k0-global: failing pair {r['failing_pair']}")
        _need(_augmentation(r["restriction_difference"]) == e["aug"],
              "k0-global: restriction difference has the wrong coefficient sum")

    def _check_k0_affine(self, job, r, _report):
        f = self.fans[job.fan]
        dim = f.max_cone_dims[job.expect["max_index"]]
        _need(r["cone_dim"] == dim and r["character_rank"] == dim,
              "k0-affine: character rank differs from the cone dimension")
        _need(r["k0"] == f"Z[Z^{dim}]", f"k0-affine: k0 is {r['k0']}")

    def _check_hilbert(self, job, r, _report):
        f = self.fans[job.fan]
        m = job.expect["max_index"]
        rays = f.max_cone_rays[m]
        basis = r["hilbert_basis"]
        _need(len(basis) == r["basis_size"] and basis, "hilbert: empty or miscounted basis")
        _need(len({tuple(v) for v in basis}) == len(basis), "hilbert: repeated element")
        for v in basis:
            _need(all(sum(a * b for a, b in zip(v, ray)) >= 0 for ray in rays),
                  f"hilbert: {v} is not in the dual cone")
        if f.max_cone_dims[m] == f.rank and f.max_cone_smooth[m]:
            # a smooth full-dimensional cone has a free dual monoid
            _need(len(basis) == f.rank, "hilbert: smooth cone, wrong basis size")

    def _check_kclass(self, job, r, _report):
        shifts = job.expect["shifts"]
        _need(sorted(r["shifts"]) == sorted(shifts), "kclass: shifts not echoed")
        _need(_augmentation(r["k0_class"]) == len(shifts),
              "kclass: class coefficient sum differs from the number of shifts")
        _need(r["effective"] is True, "kclass: a shift multiset is effective")

    def _complex(self, key):
        if key not in self._complexes:
            from kfan.cech import CechComplex

            self._complexes[key] = CechComplex(self.fans[key].fan)
        return self._complexes[key]

    def _sheaf(self, key):
        if key not in self._sheaves:
            from kfan.sheaves import sheaf_a0

            self._sheaves[key] = sheaf_a0(self.fans[key].fan)
        return self._sheaves[key]

    def _check_exactness(self, job, r, report):
        from kfan.report import cochain_from_jsonable

        level = job.expect["level"]
        witnesses = report.certificates["witnesses"]
        _need(r["all_solved"] is True and r["solved"] == r["trials"] == len(witnesses),
              "check-exactness: not every trial solved")
        cx = self._complex(job.fan)
        for w in witnesses:
            z = cochain_from_jsonable(cx, w["cocycle"])
            b = cochain_from_jsonable(cx, w["coboundary"])
            _need(z.level == level and b.level == level - 1, "check-exactness: wrong levels")
            _need(not z.is_zero(), "check-exactness: zero cocycle")
            _need(cx.d(b) == z, "check-exactness: d(b) != z")

    def _check_flasque(self, job, r, report):
        from kfan.report import element_from_jsonable
        from kfan.sheaves import Section

        fan = self.fans[job.fan].fan
        sheaf = self._sheaf(job.fan)
        witnesses = report.certificates["witnesses"]
        _need(r["all_extended"] is True and r["extended"] == r["trials"] == len(witnesses),
              "check-flasque: not every trial extended")

        def section(data, domain):
            comps = {}
            for cone_id, el in data["components"]:
                cone = fan.cones[cone_id]
                comps[cone] = element_from_jsonable(sheaf.stalk(cone), el)
            return Section(sheaf, domain, comps)

        for w in witnesses:
            extension = section(w["extension"], fan.full_subfan())
            _need(extension.check(), "check-flasque: extension is not a section")
            domain = fan.subfan([fan.cones[i] for i in w["problem"]["domain_cone_ids"]])
            problem = section(w["problem"], domain)
            _need(extension.restrict(domain) == problem,
                  "check-flasque: extension does not restrict to the problem")

