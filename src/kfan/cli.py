"""Command-line front end.

Commands: info, k0-affine, k0-global, check-exactness, check-flasque,
hilbert, kclass.  Output is human-readable text, or a machine-readable
JSON job report with ``--json``.  Exit codes: 0 success, 1 verification
failure (with witness), 2 input error, 3 solver gave up.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import random
import sys

from .cech import CechComplex, H0Ring, NotACocycle
from .cones import MAX_RANK, NotAFan, NotStronglyConvex, UnsupportedRank
from .fanfile import (
    FanFile, FanFileError, build_fan, dropped_entries, is_int_list, load_fan_file, read_fan_text,
    strict_json,
)
from .graded import CoefficientSpec, GradedFreeData, k0_affine_toric, k0_class
from .intlinalg import CertificateError, IntMatrix, Lattice
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
    flasque_witness_to_jsonable,
    h0_to_jsonable,
)
from .sheaves import Section, extend_section, random_open_subfan, random_section, sheaf_a0
from .support_solver import SolverGaveUp


# k0-global samples distinct characters from [-CHARACTER_BOX, CHARACTER_BOX]^rank
CHARACTER_BOX = 3


class InputError(Exception):
    pass


def _load(path: str) -> tuple[FanFile, "Fan"]:
    """The fan file at ``path`` and its fan.  The file is read on every
    call, and each distinct (path, text) is built once per process."""
    return _built(path, read_fan_text(path))


@functools.lru_cache(maxsize=16)
def _built(path: str, text: str) -> tuple[FanFile, "Fan"]:
    """The parse and the certified fan of one file content, kept for the
    later jobs of the process, which share the fan's sheaf too.  A file
    that fails to load raises, so it is never kept."""
    ff = load_fan_file(path, text)
    try:
        fan = build_fan(ff)
    except (NotStronglyConvex, NotAFan, UnsupportedRank, ValueError) as e:
        raise InputError(f"{path}: {e}") from e
    dropped = dropped_entries(ff, fan)
    if dropped:
        ff = dataclasses.replace(ff, warnings=ff.warnings + tuple(dropped))
    return ff, fan


def _fan_inputs(ff: FanFile, path: str) -> dict:
    out = {"fan_file": path, "fan": ff.to_jsonable()}
    if ff.warnings:
        out["warnings"] = list(ff.warnings)
    return out


def _cone_entry(i, cone, maximal: set) -> dict:
    """The cone's ``info`` entry.  Its character group M / perp is free
    of rank n - rank(perp), so that rank is read off the perp lattice,
    with no quotient built, and must be the cone's dimension."""
    rank = cone.lattice.rank - cone.perp_lattice().nrows
    if rank != cone.dim:
        raise CertificateError(f"character group of {cone!r} has rank {rank}, not {cone.dim}")
    return {
        "id": i,
        "dim": cone.dim,
        "rays": [list(r) for r in cone.rays],
        "smooth": cone.is_smooth(),
        "simplicial": cone.is_simplicial(),
        "character_rank": rank,
        "maximal": i in maximal,
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
    maximal = set(fan.max_ids)
    results = {
        "num_cones": len(fan.cones),
        "cones": [_cone_entry(i, c, maximal) for i, c in enumerate(fan.cones)],
        "max_cone_ids": list(fan.max_ids),
        "smooth": fan.is_smooth(),
        "complete": fan.is_complete(),
    }
    return JobReport(
        command="info", inputs=_fan_inputs(ff, args.fanfile), results=results
    )


def cmd_k0_affine(args) -> JobReport:
    ff, fan = _load(args.fanfile)
    cone = _get_cone(fan, args.cone)
    desc = k0_affine_toric(cone, CoefficientSpec(args.coeff))
    basis = IntMatrix.identity(fan.lattice.rank).rows
    basis_chars = [[list(e), element_to_jsonable(desc.element(e))] for e in basis]
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
        if not isinstance(data, dict):
            raise InputError(
                "malformed element: expected a JSON object mapping max-cone index "
                "to a term list"
            )
        try:
            comps = {}
            for key, val in data.items():
                i = int(key)
                if str(i) != key:  # "00" and "+0" would overwrite "0"
                    raise InputError(f"max-cone index {key!r} is not written canonically")
                if not 0 <= i < len(fan.max_ids):
                    raise InputError(f"max-cone index {i} out of range")
                cone = fan.max_ids[i]
                comps[cone] = element_from_jsonable(ring.sheaf.stalk_at(cone), val)
            for cone in fan.max_ids:
                comps.setdefault(cone, GroupRingElement.zero(ring.sheaf.stalk_at(cone)))
            c = Section.by_id(ring.sheaf, ring.domain, comps)
        except ValueError as e:
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
        sampled.append({"character": list(m), "tuple": h0_to_jsonable(fan, c)})
    results["character_members"] = sampled
    results["unit"] = h0_to_jsonable(fan, ring.unit())
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
    complex = CechComplex(fan)
    if args.level > complex.top_level:
        raise InputError(f"--level {args.level}: fan cover has no level {args.level}")
    rng = random.Random(args.seed)
    trials = []
    witnesses = []
    for i in range(args.trials):
        z = complex.random_cocycle(args.level, rng)
        outcome = complex.solve_coboundary(z, depth=args.depth)
        gave_up = isinstance(outcome, SolverGaveUp)
        trials.append(
            {
                "index": i,
                "cocycle_support": sum(len(v.terms) for v in z.components.values()),
                "solved": not gave_up,
                "witness_support": (
                    None if gave_up else sum(len(v.terms) for v in outcome.components.values())
                ),
                "support_sizes_tried": list(outcome.support_sizes) if gave_up else None,
            }
        )
        if not gave_up:
            witnesses.append(
                {"cocycle": cochain_to_jsonable(z), "coboundary": cochain_to_jsonable(outcome)}
            )
    solved = len(witnesses)
    all_ok = solved == args.trials
    results = {"level": args.level, "all_solved": all_ok, "solved": solved, "trials": args.trials}
    if fan.is_smooth():
        results["split"] = "the complex splits per cone, so it is exact; trials check the code"
    return JobReport(
        command="check-exactness",
        inputs=inputs,
        results=results,
        certificates={"witnesses": witnesses},
        statistics={"solved": solved, "gave_up": args.trials - solved, "trials": trials},
        exit_status=EXIT_OK if all_ok else EXIT_SOLVER_GAVE_UP,
    )


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
            "domain_cone_ids": sorted(domain.ids),
            "section_support": sum(len(v.terms) for v in section.values.values()),
        }
        if isinstance(outcome, SolverGaveUp):
            entry["extended"] = False
            entry["support_sizes_tried"] = list(outcome.support_sizes)
        else:
            extended += 1
            entry["extended"] = True
            witnesses.append(flasque_witness_to_jsonable(section, outcome))
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
    dual = cone.dual()
    basis = hilbert_basis(dual)
    results = {
        "cone_id": args.cone,
        "cone_rays": [list(r) for r in cone.rays],
        "dual_cone_rays": [list(r) for r in dual.rays],
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
    parser.commands = sub.choices  # command name -> its parser, for ``_parse``

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


@functools.lru_cache(maxsize=None)
def _plan(command: argparse.ArgumentParser) -> tuple | None:
    """A command parser's exact option names, positionals, defaults
    (``set_defaults`` too) and required dests, read off its actions for
    ``_scan``; None if it declares what the scan does not read as argparse
    does: an exclusive group, choices, or any but these two kinds."""
    # -h is no exact option name here, so the full parser writes help
    actions = [a for a in command._actions if not isinstance(a, argparse._HelpAction)]
    kinds = (argparse._StoreAction, argparse._StoreTrueAction)  # nargs None and 0
    if command._mutually_exclusive_groups or any(
        type(a) not in kinds or a.nargs not in (None, 0) or a.choices is not None
        or (isinstance(a.default, str) and a.type is not None)  # argparse would convert it
        for a in actions
    ):
        return None
    return (
        {s: a for a in actions for s in a.option_strings},
        [a for a in actions if not a.option_strings],
        {**command._defaults, **{a.dest: a.default for a in actions}},
        {a.dest for a in actions if a.required},
    )


def _scan(name: str, words: list) -> argparse.Namespace | None:
    """Command ``name``'s namespace for ``words`` in one pass, or None
    where argparse would do more than match exact words (``_parse``)."""
    plan = _plan(_parser().commands[name])
    if plan is None:
        return None
    options, positionals, defaults, required = plan
    values, free, words = {}, iter(positionals), iter(words)
    for word in words:
        if word[:1] != "-":
            action = next(free, None)
        elif (action := options.get(word)) is not None and action.nargs == 0:
            values[action.dest] = action.const
            continue
        elif action is not None:
            word = next(words, "-")  # a missing value is refused as "-"
        if action is None or word[:1] == "-":
            return None
        try:
            values[action.dest] = word if action.type is None else action.type(word)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None  # the full parser writes the usage error
    if next(free, None) is not None or not required <= values.keys():
        return None
    return argparse.Namespace(**{**defaults, **values, "command": name})


def _parse(argv) -> argparse.Namespace:
    """The namespace the full parser gives for ``argv`` (None reads
    ``sys.argv[1:]``).  After a command name, one scan (``_scan``) reads
    the rest: an exact option name takes the next word, converted by its
    ``type``, another word fills the next positional, defaults fill the
    rest.  The full parser, which writes help, usage errors and exit 2,
    takes all else: a word starting with ``-`` that is no exact option
    name (``--opt=v``, ``-h``, ``--``, ``-3``, an abbreviation), a value
    starting with ``-``, a ``type`` that raises, a missing or left-over
    word or required option, and a command the plan cannot read."""
    argv = sys.argv[1:] if argv is None else argv
    parser = _parser()
    if argv and argv[0] in parser.commands and (args := _scan(argv[0], argv[1:])) is not None:
        return args
    return parser.parse_args(argv)


def run(argv=None) -> JobReport | int:
    """Parse (``_parse``) and dispatch, returning the JobReport (or an
    error exit code); the in-process entry point used by tests."""
    return _dispatch(_parse(argv))


def _dispatch(args) -> JobReport | int:
    try:
        return args.fn(args)
    except (FanFileError, InputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (CertificateError, NotACocycle) as e:
        print(f"error: certificate failed its re-check: {e}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE


def main(argv=None) -> int:
    """Parse (``_parse``), dispatch, print the report and return its
    exit status: the ``kfan`` console script."""
    args = _parse(argv)
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
