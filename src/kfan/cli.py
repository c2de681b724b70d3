"""Command-line front end.

Commands: info, k0-affine, k0-global, check-exactness, check-flasque,
hilbert, kclass.  Output is human-readable text, or a machine-readable
JSON job report with ``--json``.  Exit codes: 0 success, 1 verification
failure (with witness), 2 input error, 3 solver gave up.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys

from .cech import H0Ring, LevelOverflow, verify_exactness
from .cones import MAX_RANK, ConeNotInFan, NotAFan, NotStronglyConvex, UnsupportedRank
from .fanfile import FanFile, FanFileError, build_fan, is_int_list, load_fan_file, strict_json
from .graded import CoefficientSpec, GradedFreeData, k0_affine_toric, k0_class
from .intlinalg import Lattice
from .monoids import AffineMonoid, GroupRingElement, hilbert_basis
from .report import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_SOLVER_GAVE_UP,
    EXIT_VERIFICATION_FAILURE,
    JobReport,
    cochain_to_jsonable,
    element_from_jsonable,
    element_to_jsonable,
)
from .sheaves import Section, extend_section, random_open_subfan, random_section, sheaf_a0
from .support_solver import CertificateError, SolverGaveUp


# k0-global samples distinct characters from [-CHARACTER_BOX, CHARACTER_BOX]^rank
CHARACTER_BOX = 3


class InputError(Exception):
    pass


def _load(path: str) -> tuple[FanFile, "Fan"]:
    ff = load_fan_file(path)
    try:
        fan = build_fan(ff)
    except (NotStronglyConvex, NotAFan, UnsupportedRank, ValueError) as e:
        raise InputError(f"{path}: {e}") from e
    return ff, fan

def _fan_inputs(ff: FanFile, path: str) -> dict:
    out = {"fan_file": path, "fan": ff.to_jsonable()}
    if ff.warnings:
        out["warnings"] = list(ff.warnings)
    return out


def _cone_entry(fan, i, cone) -> dict:
    return {
        "id": i,
        "dim": cone.dim,
        "rays": [list(r) for r in cone.rays],
        "smooth": cone.is_smooth(),
        "simplicial": cone.is_simplicial(),
        "character_rank": cone.character_quotient().free_rank,
        "maximal": cone in fan.max_cones,
    }


def _json_option(name: str, text: str):
    try:
        return strict_json(text)
    except (ValueError, RecursionError) as e:  # a repeated key, an oversized integer, deep nesting
        raise InputError(f"malformed {name}: {e}") from e


def _int_vectors(name: str, text: str) -> list:
    """A JSON list of integer lists, read by the fan-file rule: floats,
    strings and booleans are rejected, never rounded or coerced."""
    data = _json_option(name, text)
    if not isinstance(data, list) or not all(is_int_list(v) for v in data):
        raise InputError(f"malformed {name}: expected a JSON list of integer lists")
    return data


def _check_counts(args, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if value < 0:
            raise InputError(f"--{name} must be nonnegative, got {value}")


def _require_smooth(fan, args, claim: str) -> None:
    """The one gate on non-smooth fans: the library searches there, and
    a search is run only when ``--experimental-nonsmooth`` asks for it."""
    if not fan.is_smooth() and not args.experimental_nonsmooth:
        raise InputError(f"{claim} (pass --experimental-nonsmooth to try anyway)")


def _get_cone(fan, cone_id: int):
    if not 0 <= cone_id < len(fan.cones):
        raise InputError(
            f"cone id {cone_id} out of range (fan has {len(fan.cones)} cones; run info)"
        )
    return fan.cones[cone_id]


def cmd_info(args) -> JobReport:
    ff, fan = _load(args.fanfile)
    try:
        complete = fan.is_complete()
    except UnsupportedRank:
        complete = None
    results = {
        "num_cones": len(fan.cones),
        "cones": [_cone_entry(fan, i, c) for i, c in enumerate(fan.cones)],
        "max_cone_ids": [fan.index_of(c) for c in fan.max_cones],
        "smooth": fan.is_smooth(),
        "complete": complete,
    }
    return JobReport(
        command="info", inputs=_fan_inputs(ff, args.fanfile), results=results
    )


def cmd_k0_affine(args) -> JobReport:
    ff, fan = _load(args.fanfile)
    cone = _get_cone(fan, args.cone)
    desc = k0_affine_toric(cone, CoefficientSpec(args.coeff))
    basis_chars = []
    n = fan.lattice.rank
    for j in range(n):
        e = tuple(1 if i == j else 0 for i in range(n))
        basis_chars.append(
            [list(e), element_to_jsonable(desc.element(e))]
        )
    results = {
        "cone_id": args.cone,
        "cone_rays": [list(r) for r in cone.rays],
        "cone_dim": cone.dim,
        "character_rank": desc.laurent_rank,
        "k_theory": desc.symbolic("q"),
        "k0": f"Z[Z^{desc.laurent_rank}]",
        "sample_basis_characters": basis_chars,
        "smooth": cone.is_smooth(),
        "note": "the description holds for every strongly convex cone; smoothness was not needed",
    }
    return JobReport(
        command="k0-affine", inputs=_fan_inputs(ff, args.fanfile), results=results
    )


def _h0_to_jsonable(fan, section) -> dict:
    """A global section in the level-0 cochain layout of ``k0-global``
    reports: its nonzero values, keyed [i] by maximal-cone index."""
    values = enumerate(section.components[c] for c in fan.max_cones)
    comps = [[[i], element_to_jsonable(v)] for i, v in values if not v.is_zero()]
    return {"level": 0, "components": comps}


def cmd_k0_global(args) -> JobReport:
    ff, fan = _load(args.fanfile)
    _check_counts(args, "sample")
    n = fan.lattice.rank
    box_size = (2 * CHARACTER_BOX + 1) ** n
    if args.sample > box_size:
        raise InputError(
            f"--sample {args.sample} exceeds the {box_size} characters "
            f"in the box [-{CHARACTER_BOX},{CHARACTER_BOX}]^{n}"
        )
    ring = H0Ring(fan)
    inputs = _fan_inputs(ff, args.fanfile)
    results = {"smooth": fan.is_smooth()}
    if fan.is_smooth():
        results["k_theory"] = "K_q(k) (x) K_0^T(X)"
    else:
        results["warning"] = (
            "fan is not smooth: computing degree-zero cover cohomology anyway, "
            "without the identification with equivariant K_0"
        )
    if args.element is not None:
        data = _json_option("element", args.element)
        try:
            comps = {}
            for key, val in data.items():
                i = int(key)
                if str(i) != key:  # "00" and "+0" would overwrite "0"
                    raise InputError(f"max-cone index {key!r} is not written canonically")
                if not 0 <= i < len(fan.max_cones):
                    raise InputError(f"max-cone index {i} out of range")
                cone = fan.max_cones[i]
                comps[cone] = element_from_jsonable(ring.sheaf.stalk(cone), val)
            for cone in fan.max_cones:
                comps.setdefault(cone, GroupRingElement.zero(ring.sheaf.stalk(cone)))
            c = Section(ring.sheaf, ring.domain, comps)
        except (ValueError, TypeError, AttributeError) as e:
            raise InputError(f"malformed element: {e}") from e
        ok, witness = ring.membership(c)
        results["member"] = ok
        if not ok:
            pair, diff = witness
            results["failing_pair"] = list(pair)
            results["restriction_difference"] = element_to_jsonable(diff)
            return JobReport(
                command="k0-global",
                inputs=inputs,
                results=results,
                exit_status=EXIT_VERIFICATION_FAILURE,
            )
        return JobReport(command="k0-global", inputs=inputs, results=results)
    rng = random.Random(args.seed)
    sampled = []
    seen = set()
    while len(sampled) < args.sample:
        m = tuple(rng.randint(-CHARACTER_BOX, CHARACTER_BOX) for _ in range(n))
        if m in seen:
            continue
        seen.add(m)
        c = ring.character(m)
        if not ring.contains(c):
            raise CertificateError(f"character tuple for {list(m)} is not a cocycle")
        sampled.append({"character": list(m), "tuple": _h0_to_jsonable(fan, c)})
    results["character_members"] = sampled
    results["unit"] = _h0_to_jsonable(fan, ring.unit())
    return JobReport(command="k0-global", inputs=inputs, results=results)


def cmd_check_exactness(args) -> JobReport:
    ff, fan = _load(args.fanfile)
    _check_counts(args, "trials", "depth")
    if args.level < 1:
        raise InputError(f"--level {args.level}: exactness questions start at level 1")
    _require_smooth(fan, args, "exactness is only guaranteed for smooth fans")
    inputs = _fan_inputs(ff, args.fanfile)
    inputs.update(
        {"level": args.level, "trials": args.trials, "depth": args.depth, "seed": args.seed}
    )
    try:
        report = verify_exactness(
            fan,
            level=args.level,
            trials=args.trials,
            depth=args.depth,
            seed=args.seed,
        )
    except LevelOverflow as e:
        raise InputError(f"--level {args.level}: {e}") from e
    certificates = {
        "witnesses": [
            {"cocycle": cochain_to_jsonable(z), "coboundary": cochain_to_jsonable(b)}
            for z, b in report.witnesses
        ]
    }
    statistics = {
        "solved": report.solved,
        "gave_up": report.trials - report.solved,
        "trials": [
            {
                "index": t.index,
                "cocycle_support": t.cocycle_support,
                "solved": t.solved,
                "witness_support": t.witness_support,
                "support_sizes_tried": (
                    list(t.gave_up.support_sizes) if t.gave_up else None
                ),
            }
            for t in report.resolutions
        ],
    }
    results = {
        "level": args.level,
        "all_solved": report.all_solved,
        "solved": report.solved,
        "trials": report.trials,
    }
    if fan.is_smooth():
        results["split"] = "the complex splits per cone, so it is exact; trials check the code"
    return JobReport(
        command="check-exactness",
        inputs=inputs,
        results=results,
        certificates=certificates,
        statistics=statistics,
        exit_status=EXIT_OK if report.all_solved else EXIT_SOLVER_GAVE_UP,
    )


def _section_to_jsonable(fan, section) -> dict:
    return {
        "domain_cone_ids": sorted(fan.index_of(c) for c in section.domain.members),
        "components": [
            [fan.index_of(c), element_to_jsonable(v)]
            for c, v in sorted(
                section.components.items(), key=lambda kv: fan.index_of(kv[0])
            )
        ],
    }


def cmd_check_flasque(args) -> JobReport:
    ff, fan = _load(args.fanfile)
    _check_counts(args, "trials", "depth")
    inputs = _fan_inputs(ff, args.fanfile)
    inputs.update({"trials": args.trials, "depth": args.depth, "seed": args.seed})
    _require_smooth(fan, args, "extension is only guaranteed over smooth fans")
    sheaf = sheaf_a0(fan)
    rng = random.Random(args.seed)
    trials = []
    witnesses = []
    extended = 0
    for i in range(args.trials):
        domain = random_open_subfan(fan, rng)
        section = random_section(sheaf, domain, rng)
        outcome = extend_section(section, depth=args.depth)
        entry = {
            "index": i,
            "domain_cone_ids": sorted(fan.index_of(c) for c in domain.members),
            "section_support": sum(len(v.terms) for v in section.components.values()),
        }
        if isinstance(outcome, SolverGaveUp):
            entry["extended"] = False
            entry["support_sizes_tried"] = list(outcome.support_sizes)
        else:
            extended += 1
            entry["extended"] = True
            witnesses.append(
                {
                    "problem": _section_to_jsonable(fan, section),
                    "extension": _section_to_jsonable(fan, outcome),
                }
            )
        trials.append(entry)
    all_ok = extended == args.trials
    results = {"all_extended": all_ok, "extended": extended, "trials": args.trials}
    if fan.is_smooth():
        results["split"] = "the sheaf splits per cone, so it is flasque; trials check the code"
    return JobReport(
        command="check-flasque",
        inputs=inputs,
        results=results,
        certificates={"witnesses": witnesses},
        statistics={"trials": trials},
        exit_status=EXIT_OK if all_ok else EXIT_SOLVER_GAVE_UP,
    )


def cmd_hilbert(args) -> JobReport:
    ff, fan = _load(args.fanfile)
    cone = _get_cone(fan, args.cone)
    try:
        basis = hilbert_basis(cone.dual())
    except UnsupportedRank as e:
        raise InputError(str(e)) from e
    results = {
        "cone_id": args.cone,
        "cone_rays": [list(r) for r in cone.rays],
        "dual_cone_rays": [list(r) for r in cone.dual().rays],
        "hilbert_basis": sorted([list(v) for v in basis]),
        "basis_size": len(basis),
    }
    return JobReport(
        command="hilbert", inputs=_fan_inputs(ff, args.fanfile), results=results
    )


def cmd_kclass(args) -> JobReport:
    inputs = {}
    if args.generators is not None and (args.fan is not None or args.cone is not None):
        raise InputError("give a monoid once: --fan/--cone or --generators, not both")
    if args.fan is not None:
        if args.cone is None:
            raise InputError("--fan needs --cone to pick the monoid")
        ff, fan = _load(args.fan)
        cone = _get_cone(fan, args.cone)
        monoid = AffineMonoid.from_cone(cone)
        inputs.update(_fan_inputs(ff, args.fan))
        inputs["cone_id"] = args.cone
    elif args.generators is not None:
        gens = _int_vectors("generators", args.generators)
        if not gens:
            raise InputError("malformed generators: none given")
        rank = len(gens[0])
        if rank > MAX_RANK:
            raise InputError(f"generators of rank {rank}: the rank cap is {MAX_RANK}")
        try:
            monoid = AffineMonoid.from_generators(Lattice(rank), gens)
        except ValueError as e:
            raise InputError(f"malformed generators: {e}") from e
        inputs["generators"] = gens
    else:
        raise InputError("give a monoid: --fan/--cone or --generators")
    shifts = _int_vectors("shifts", args.shifts)
    try:
        data = GradedFreeData(monoid, shifts)
    except ValueError as e:
        raise InputError(f"malformed shifts: {e}") from e
    cls = k0_class(data, CoefficientSpec(args.coeff))
    q = monoid.coset_quotient
    results = {
        "shifts": [list(s) for s in data.shifts],
        "coset_group": {
            "invariant_factors": list(q.invariant_factors),
            "free_rank": q.free_rank,
        },
        "k0_class": element_to_jsonable(cls.value),
        "effective": cls.is_effective(),
    }
    inputs["coefficients"] = args.coeff
    return JobReport(command="kclass", inputs=inputs, results=results)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kfan",
        description="equivariant K-theory of toric varieties from fan data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("info", cmd_info, help="cones, faces, smoothness, character ranks")
    p.add_argument("fanfile")

    p = add("k0-affine", cmd_k0_affine, help="K-theory of one affine piece")
    p.add_argument("fanfile")
    p.add_argument("--cone", type=int, required=True, help="cone id from info")
    p.add_argument("--coeff", default="k", help="coefficient ring label")

    p = add("k0-global", cmd_k0_global, help="global K_0 membership / generators")
    p.add_argument("fanfile")
    p.add_argument(
        "--element",
        help='JSON {"max-cone index": [[coords, coeff], ...]} to test membership',
    )
    p.add_argument("--sample", type=int, default=5, help="character members to emit")
    p.add_argument("--seed", type=int, default=0)

    p = add("check-exactness", cmd_check_exactness, help="randomized exactness runs")
    p.add_argument("fanfile")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--experimental-nonsmooth", action="store_true")

    p = add("check-flasque", cmd_check_flasque, help="randomized extension runs")
    p.add_argument("fanfile")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--experimental-nonsmooth", action="store_true")

    p = add("hilbert", cmd_hilbert, help="Hilbert basis of a cone's dual monoid")
    p.add_argument("fanfile")
    p.add_argument("--cone", type=int, required=True, help="cone id from info")

    p = add("kclass", cmd_kclass, help="K_0 class of a shift multiset")
    p.add_argument("--fan", help="fan file giving the monoid by a cone")
    p.add_argument("--cone", type=int, help="cone id from info")
    p.add_argument("--generators", help="JSON list of monoid generators")
    p.add_argument("--shifts", required=True, help="JSON list of shift degrees")
    p.add_argument("--coeff", default="k")

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call
    in the process: parsing leaves it unchanged."""
    return make_parser()


def run(argv=None) -> JobReport | int:
    """Parse and dispatch, returning the JobReport (or an error exit
    code); the in-process entry point used by tests."""
    return _dispatch(_parser().parse_args(argv))


def _dispatch(args) -> JobReport | int:
    try:
        return args.fn(args)
    except (FanFileError, InputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ConeNotInFan as e:
        print(f"error: cone not in fan: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except CertificateError as e:
        print(f"error: certificate failed its re-check: {e}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    outcome = _dispatch(args)
    if isinstance(outcome, int):
        return outcome
    try:
        print(outcome.to_json() if args.json else outcome.to_text())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (``| head``): send what is still buffered
        # to devnull, so that the interpreter's last flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return outcome.exit_status


if __name__ == "__main__":
    sys.exit(main())
