"""Spans and counters around the public functions of each ``kfan`` module.

The program itself carries no instrumentation, so the traced run wraps
functions from outside: a wrapper records one span per call (name,
start, end, parent span, job id) and, for some functions, a count taken
from the arguments or the result.  Modules bind names such as ``solve``
and ``kernel`` with ``from .intlinalg import ...``, so a wrapper replaces
the original in every loaded ``kfan`` module that holds it.

Spans stay in memory; ``per_layer_metrics`` folds them into the metrics
named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

# (module, attribute path, span name).  Methods are "Class.method".
TARGETS = (
    ("intlinalg", "smith_with_inverses", "intlinalg.snf"),
    ("intlinalg", "kernel", "intlinalg.kernel"),
    ("intlinalg", "solve", "intlinalg.solve"),
    ("intlinalg", "canonical_surjection", "intlinalg.canonical_surjection"),
    ("cones", "Cone.from_rays", "cones.from_rays"),
    ("cones", "Fan.from_rays_and_indices", "cones.fan_build"),
    ("cones", "Fan.intersection", "cones.intersection"),
    ("cones", "Fan.index_of", "cones.index_of"),
    ("cones", "Subfan.max_cones", "cones.subfan_max_cones"),
    ("cech", "CechComplex.__init__", "cech.complex_build"),
    ("cech", "CechComplex.d", "cech.d"),
    ("cech", "CechComplex.random_cocycle", "cech.random_cocycle"),
    ("cech", "CechComplex.solve_coboundary", "cech.solve_coboundary"),
    ("cech", "H0Ring.membership", "cech.membership"),
    ("support_solver", "solve_pushforward_system", "support_solver.solve"),
    ("sheaves", "sheaf_a0", "sheaves.sheaf_a0"),
    ("sheaves", "random_section", "sheaves.random_section"),
    ("sheaves", "extend_section", "sheaves.extend_section"),
    ("sheaves", "Section.check", "sheaves.check"),
    ("monoids", "hilbert_basis", "monoids.hilbert_basis"),
    ("monoids", "GroupRingElement.pushforward", "monoids.pushforward"),
    ("graded", "k0_affine_toric", "graded.k0_affine"),
    ("fanfile", "load_fan_file", "fanfile.load"),
    ("report", "JobReport.to_json", "report.to_json"),
)

# per-layer metric -> unit; the order is the order of BENCHMARK.json
PER_LAYER_UNITS = {
    "intlinalg.snf_calls": "count",
    "intlinalg.snf_self_s": "s",
    "intlinalg.snf_max_cells": "count",
    "intlinalg.kernel_calls": "count",
    "intlinalg.solve_calls": "count",
    "intlinalg.solve_none": "count",
    "intlinalg.canonical_surjection_calls": "count",
    "cones.fan_build_s": "s",
    "cones.from_rays_calls": "count",
    "cones.intersection_calls": "count",
    "cones.intersection_self_s": "s",
    "cones.subfan_max_cones_calls": "count",
    "cones.subfan_max_cones_s": "s",
    "cones.index_of_calls": "count",
    "cech.complex_builds": "count",
    "cech.complex_build_s": "s",
    "cech.tuples": "count",
    "cech.incidences": "count",
    "cech.d_calls": "count",
    "cech.d_s": "s",
    "cech.random_cocycle_s": "s",
    "cech.solve_coboundary_s": "s",
    "cech.membership_s": "s",
    "support_solver.calls": "count",
    "support_solver.self_s": "s",
    "support_solver.rounds_total": "count",
    "support_solver.rounds_max": "count",
    "support_solver.gave_up": "count",
    "support_solver.expand_solves": "count",
    "support_solver.expand_solves_useful": "ratio",
    "support_solver.block_solves": "count",
    "support_solver.block_max_vars": "count",
    "support_solver.block_max_eqs": "count",
    "sheaves.sheaf_a0_s": "s",
    "sheaves.random_section_s": "s",
    "sheaves.random_section_kernel_calls": "count",
    "sheaves.extend_section_s": "s",
    "sheaves.check_calls": "count",
    "sheaves.check_s": "s",
    "sheaves.extended_ratio": "ratio",
    "monoids.hilbert_basis_calls": "count",
    "monoids.hilbert_basis_s": "s",
    "monoids.pushforward_calls": "count",
    "monoids.pushforward_s": "s",
    "graded.k0_affine_s": "s",
    "fanfile.load_s": "s",
    "report.to_json_s": "s",
    "report.json_bytes": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# metrics that are not counts: they may differ between two traced passes
TIMED = {name for name, unit in PER_LAYER_UNITS.items() if unit == "s"}


class Tracer:
    """Spans of the traced calls, plus counts read from arguments and
    results.  A span is (name, start, end, parent index, job id, outer),
    where ``outer`` says no enclosing span has the same name."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.job = None
        self.on = False

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.maxima.clear()

    def note_max(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as f:
            for name, start, end, parent, job, _outer in self.spans:
                f.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "job": job}
                    )
                    + "\n"
                )


def _hook_snf(t, args, result, caller):
    a = args[0]
    t.note_max("snf_cells", a.nrows * a.ncols)


def _hook_solve(t, args, result, caller):
    if result is None:
        t.counts["solve_none"] += 1
    if caller == "_expand":
        t.counts["expand_solves"] += 1
        if result is not None:
            t.counts["expand_solves_useful"] += 1
    elif caller == "_try_solve":
        a = args[0]
        t.counts["block_solves"] += 1
        t.note_max("block_vars", a.ncols)
        t.note_max("block_eqs", a.nrows)


def _hook_kernel(t, args, result, caller):
    if caller == "random_section":
        t.counts["random_section_kernel"] += 1


def _hook_pushforward_system(t, args, result, caller):
    if isinstance(result, tuple):
        rounds = result[1]
        t.counts["rounds_total"] += rounds
        t.note_max("rounds_max", rounds)
    else:
        t.counts["gave_up"] += 1


def _hook_complex(t, args, result, caller):
    tuples = args[0].tuples
    t.counts["tuples"] += sum(len(ts) for ts in tuples.values())
    t.counts["incidences"] += sum((p + 1) * len(ts) for p, ts in tuples.items() if p >= 1)


def _hook_extend(t, args, result, caller):
    if hasattr(result, "check"):  # a Section, not SolverGaveUp
        t.counts["extended"] += 1


def _hook_to_json(t, args, result, caller):
    t.counts["json_bytes"] += len(result)


HOOKS = {
    "intlinalg.snf": _hook_snf,
    "intlinalg.solve": _hook_solve,
    "intlinalg.kernel": _hook_kernel,
    "support_solver.solve": _hook_pushforward_system,
    "cech.complex_build": _hook_complex,
    "sheaves.extend_section": _hook_extend,
    "report.to_json": _hook_to_json,
}
# the caller's name decides how these calls are counted
WANTS_CALLER = {"intlinalg.solve", "intlinalg.kernel"}


def _wrap(t: Tracer, name: str, fn):
    hook = HOOKS.get(name)
    wants_caller = name in WANTS_CALLER
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        if not t.on:
            return fn(*args, **kwargs)
        caller = sys._getframe(1).f_code.co_name if wants_caller else None
        spans = t.spans
        index = len(spans)
        spans.append(None)
        parent = t.stack[-1] if t.stack else -1
        t.stack.append(index)
        outer = t.depth[name] == 0
        t.depth[name] += 1
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            t.depth[name] -= 1
            t.stack.pop()
            spans[index] = (name, start, end, parent, t.job, outer)
        if hook is not None:
            hook(t, args, result, caller)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def install(t: Tracer):
    """Wrap every target in every loaded ``kfan`` module; returns a
    function that undoes it."""
    import importlib

    undo = []
    modules = [m for n, m in sorted(sys.modules.items()) if n == "kfan" or n.startswith("kfan.")]
    for mod_name, path, name in TARGETS:
        mod = importlib.import_module(f"kfan.{mod_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(mod, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(t, name, raw.__func__))
            else:
                new = _wrap(t, name, raw)
            setattr(owner, attr, new)
            undo.append((owner, attr, raw))
            continue
        original = getattr(mod, path)
        wrapped = _wrap(t, name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
                    undo.append((m, key, original))

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its
    children (the union of their intervals, clipped to the span)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_name, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda k: spans[k][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def per_layer_metrics(t: Tracer) -> dict[str, float]:
    """Fold the spans and counts of one traced pass into the per-layer
    metrics (without the two ``trace.*`` entries)."""
    calls = defaultdict(int)
    total = defaultdict(float)  # outermost spans only, so nesting is not counted twice
    self_s = defaultdict(float)
    for span, own in zip(t.spans, self_times(t.spans)):
        name = span[0]
        calls[name] += 1
        self_s[name] += own
        if span[5]:
            total[name] += span[2] - span[1]
    c, mx = t.counts, t.maxima
    solver_calls = calls["support_solver.solve"]
    extend_calls = calls["sheaves.extend_section"]
    return {
        "intlinalg.snf_calls": calls["intlinalg.snf"],
        "intlinalg.snf_self_s": self_s["intlinalg.snf"],
        "intlinalg.snf_max_cells": mx["snf_cells"],
        "intlinalg.kernel_calls": calls["intlinalg.kernel"],
        "intlinalg.solve_calls": calls["intlinalg.solve"],
        "intlinalg.solve_none": c["solve_none"],
        "intlinalg.canonical_surjection_calls": calls["intlinalg.canonical_surjection"],
        "cones.fan_build_s": total["cones.fan_build"],
        "cones.from_rays_calls": calls["cones.from_rays"],
        "cones.intersection_calls": calls["cones.intersection"],
        "cones.intersection_self_s": self_s["cones.intersection"],
        "cones.subfan_max_cones_calls": calls["cones.subfan_max_cones"],
        "cones.subfan_max_cones_s": total["cones.subfan_max_cones"],
        "cones.index_of_calls": calls["cones.index_of"],
        "cech.complex_builds": calls["cech.complex_build"],
        "cech.complex_build_s": total["cech.complex_build"],
        "cech.tuples": c["tuples"],
        "cech.incidences": c["incidences"],
        "cech.d_calls": calls["cech.d"],
        "cech.d_s": total["cech.d"],
        "cech.random_cocycle_s": total["cech.random_cocycle"],
        "cech.solve_coboundary_s": total["cech.solve_coboundary"],
        "cech.membership_s": total["cech.membership"],
        "support_solver.calls": solver_calls,
        "support_solver.self_s": self_s["support_solver.solve"],
        "support_solver.rounds_total": c["rounds_total"],
        "support_solver.rounds_max": mx["rounds_max"],
        "support_solver.gave_up": c["gave_up"],
        "support_solver.expand_solves": c["expand_solves"],
        "support_solver.expand_solves_useful": (
            c["expand_solves_useful"] / c["expand_solves"] if c["expand_solves"] else 0.0
        ),
        "support_solver.block_solves": c["block_solves"],
        "support_solver.block_max_vars": mx["block_vars"],
        "support_solver.block_max_eqs": mx["block_eqs"],
        "sheaves.sheaf_a0_s": total["sheaves.sheaf_a0"],
        "sheaves.random_section_s": total["sheaves.random_section"],
        "sheaves.random_section_kernel_calls": c["random_section_kernel"],
        "sheaves.extend_section_s": total["sheaves.extend_section"],
        "sheaves.check_calls": calls["sheaves.check"],
        "sheaves.check_s": total["sheaves.check"],
        "sheaves.extended_ratio": c["extended"] / extend_calls if extend_calls else 0.0,
        "monoids.hilbert_basis_calls": calls["monoids.hilbert_basis"],
        "monoids.hilbert_basis_s": total["monoids.hilbert_basis"],
        "monoids.pushforward_calls": calls["monoids.pushforward"],
        "monoids.pushforward_s": total["monoids.pushforward"],
        "graded.k0_affine_s": total["graded.k0_affine"],
        "fanfile.load_s": total["fanfile.load"],
        "report.to_json_s": total["report.to_json"],
        "report.json_bytes": c["json_bytes"],
    }
