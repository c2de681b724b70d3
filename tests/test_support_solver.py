"""The expanding-support solver reduces each stacked pair of maps once
and pushes each candidate once per round, the Smith reductions behind
``kernel`` and ``solve`` track only the transforms those functions
read, and a traced run reads the solver's result as it is returned."""

import importlib.util
import os
import random
import sys
from collections import Counter

from kfan import intlinalg, support_solver
from kfan.catalog import hirzebruch, p1_times_p1, projective_plane
from kfan.cech import CechComplex, Cochain
from kfan.cli import main
from kfan.intlinalg import IntMatrix, kernel, solve
from kfan.sheaves import FanSheaf, cover_system


def _slot_pairs(constraints) -> int:
    """The number of (slot, two constraint terms on it) the joint-lift
    step of ``_expand`` can stack, over slots with a nonzero group."""
    per_slot: dict = {}
    for c in constraints:
        for slot, _sign, phi in c.terms:
            if phi.source.coords_len:
                per_slot[slot] = per_slot.get(slot, 0) + 1
    return sum(k * (k - 1) // 2 for k in per_slot.values())


def smith_complex(fan) -> CechComplex:
    """The cover complex of a fan over the stalks of non-smooth fans,
    the character groups and their canonical surjections, where the
    solver runs: on a smooth fan too.  It takes a sheaf of its own, so
    the fan's shared one stays smooth."""
    cx = CechComplex(fan)
    cx.sheaf = FanSheaf(fan)
    cx.sheaf.smooth = False
    return cx


def kernel_cocycle(cx, level, rng) -> Cochain:
    """A random level-``level`` cocycle drawn by the kernel sampler, with
    the arguments ``random_cocycle`` passes it on non-smooth fans, also
    on a smooth fan."""
    found = support_solver.sample_nonzero_solution(
        *cover_system(cx.sheaf, cx.fan.max_ids, level, {}), rng, extra_points=3
    )
    assert found is not None
    return Cochain(cx, level, found)


def test_expand_reduces_each_stacked_pair_once(monkeypatch):
    reductions, solves, rounds = [], [], []
    reduce, solve_with = support_solver.smith_with_inverses, support_solver.solve_factored
    expand = support_solver._expand

    def counting_reduce(a, **kwargs):
        reductions.append(kwargs.get("keep"))
        return reduce(a, **kwargs)

    def counting_solve(*args):
        solves.append(args[-1])
        return solve_with(*args)

    def watched_expand(cand, constraints, *rest):
        before = len(reductions), len(solves)
        expand(cand, constraints, *rest)
        made, solved = len(reductions) - before[0], len(solves) - before[1]
        assert made <= _slot_pairs(constraints)
        rounds.append((made, solved))

    monkeypatch.setattr(support_solver, "smith_with_inverses", counting_reduce)
    monkeypatch.setattr(support_solver, "solve_factored", counting_solve)
    monkeypatch.setattr(support_solver, "_expand", watched_expand)
    # smooth fans never reach the solver through the complex, so it is
    # driven directly on the systems d(x) = z of sampled cocycles
    for fan in (projective_plane(), p1_times_p1(), hirzebruch(1)):
        cx = smith_complex(fan)
        for level in (1, 2):
            rng = random.Random(level)
            for _ in range(3):
                z = kernel_cocycle(cx, level, rng)
                outcome = support_solver.solve_pushforward_system(
                    *cover_system(cx.sheaf, cx.fan.max_ids, level - 1, z.components), 3
                )
                assert not isinstance(outcome, support_solver.SolverGaveUp)
                assert cx.d(Cochain(cx, level - 1, outcome[0])) == z

    assert rounds, "no expansion round ran"
    # many target pairs share one reduction
    assert sum(solved for _made, solved in rounds) > sum(made for made, _solved in rounds)
    assert all(keep == ("u", "v") for keep in reductions)


def test_each_candidate_is_pushed_once_per_round(monkeypatch, capsys):
    # ``_equations`` pushes every candidate of every slot and hands its
    # target points to the next round's ``_expand``, which pushes none
    pushes, rounds = Counter(), []
    apply, expand = intlinalg.QuotientSurjection.apply, support_solver._expand

    def counting(self, coords):
        pushes[sys._getframe(1).f_code.co_name] += 1
        return apply(self, coords)

    def watched_expand(*args):
        rounds.append(args)
        return expand(*args)

    monkeypatch.setattr(intlinalg.QuotientSurjection, "apply", counting)
    monkeypatch.setattr(support_solver, "_expand", watched_expand)
    fan = os.path.join(os.path.dirname(__file__), "golden", "weighted-p2.json")
    main(["check-flasque", fan, "--trials", "25", "--seed", "3", "--experimental-nonsmooth"])
    capsys.readouterr()
    assert rounds and pushes["_equations"]
    assert "_expand" not in pushes


def test_each_solve_builds_its_slot_table_once(monkeypatch, capsys):
    # the (constraint, map) pairs on each slot depend on the constraints
    # alone: every expansion round of a solve reads the one table
    tables, used = [], []
    by_slot, expand = support_solver._by_slot, support_solver._expand

    def counting(constraints):
        tables.append(by_slot(constraints))
        return tables[-1]

    def watched_expand(cand, constraints, table, targets):
        used.append(table)
        return expand(cand, constraints, table, targets)

    monkeypatch.setattr(support_solver, "_by_slot", counting)
    monkeypatch.setattr(support_solver, "_expand", watched_expand)
    fan = os.path.join(os.path.dirname(__file__), "golden", "weighted-p2.json")
    # its searches give up after every round of depth 3
    assert main(["check-flasque", fan, "--trials", "3", "--seed", "2", "--experimental-nonsmooth"]) == 3
    capsys.readouterr()
    assert len(used) > len(tables) > 0
    assert [id(t) for t in tables] == list(dict.fromkeys(id(t) for t in used))


def test_kernel_and_solve_track_neither_inverse(monkeypatch):
    requests = []
    reduce = intlinalg.smith_with_inverses

    def recording(a, **kwargs):
        requests.append(set(kwargs["keep"]))
        return reduce(a, **kwargs)

    monkeypatch.setattr(intlinalg, "smith_with_inverses", recording)
    a = IntMatrix([[2, 4, 4, 1], [-6, 6, 12, 0], [10, -4, -16, 3]])
    assert kernel(a).nrows == 1
    assert solve(a, a.apply((1, 2, 3, 4))) is not None
    assert requests == [{"v"}, {"u", "v"}]


def load_tracing():
    """``bench/tracing.py``, which wraps kfan's functions in a traced run."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_traced_non_smooth_solve_counts_no_give_up(capsys):
    # the smooth benchmark workloads never reach the solver, so only a
    # non-smooth fan shows how the trace reads the solver's result
    tracing = load_tracing()
    fan = os.path.join(os.path.dirname(__file__), "golden", "weighted-p2.json")
    t = tracing.Tracer()
    uninstall = tracing.install(t)
    t.on = True
    try:
        for command in ("check-exactness", "check-flasque"):
            argv = [command, fan, "--trials", "2", "--seed", "0", "--experimental-nonsmooth"]
            assert main(argv + (["--level", "1"] if command == "check-exactness" else [])) == 0
    finally:
        t.on = False
        uninstall()
    capsys.readouterr()
    metrics = tracing.per_layer_metrics(t)
    assert metrics["support_solver.calls"] > 0
    assert metrics["support_solver.gave_up"] == 0
    assert metrics["support_solver.rounds_max"] <= metrics["support_solver.rounds_total"]
