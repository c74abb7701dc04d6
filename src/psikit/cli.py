"""Command-line driver: run pass pipelines, verify, fuzz, emit copy stats.

    psikit run file.pir --passes=ssa,ifconvert,out-of-ssa --verify
    psikit run file.pir --passes=ssa --dump-after=ssa
    psikit run file.pir --stats
    psikit fuzz --trials 1000 --seed 0 --passes=ssa,fold,ifconvert,psi-promote,out-of-ssa

Exit codes: 0 success, 1 diagnostics or bad flags, 2 verification mismatch
(for fuzz: a mismatch or a program the pipeline refused).
"""

from __future__ import annotations

import argparse
import sys

from . import analysis, interp, ir, pipeline
from .machine import MachineModel, machine_from_flags
from .out_of_ssa import OutOfSsaOptions, PassStats
from .predicates import guard_env_or_conservative


class CliError(Exception):
    pass


def _load(path: str, mode: str) -> ir.Module:
    """Parse `path` and validate it in `mode` ('ssa' or 'non_ssa')."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CliError(str(exc)) from None
    try:
        mod = ir.parse_module(text)
    except ir.ParseError as exc:
        raise CliError(f"{path}:{exc}") from None
    diags = ir.validate(mod, mode)
    errors = [d for d in diags if d.severity == "error"]
    for d in sorted(str(x) for x in diags):
        print(d, file=sys.stderr)
    if errors:
        raise CliError(f"{path}: {len(errors)} validation error(s)")
    return mod


def _options_from_args(args) -> OutOfSsaOptions:
    return OutOfSsaOptions(
        reorder_disjoint=not args.no_reorder_disjoint,
        disjoint_interference=not args.no_disjoint_interference,
        left_only=not args.no_left_only,
        ignore_result=not args.no_ignore_result,
        phi_naive=args.phi_naive,
    )


STAT_ROWS = ["psi-normalize", "psi-congruence", "phi-congruence",
             "total copies"]
STAT_VARIANTS = [
    ("no if-conv", ["ssa", "out-of-ssa"]),
    ("if-conv", ["ssa", "ifconvert", "out-of-ssa"]),
    ("if-conv + folding", ["ssa", "ifconvert", "fold", "out-of-ssa"]),
]


def _stats_matrix(mod: ir.Module, args, promote: bool):
    columns = []
    for title, passes in STAT_VARIANTS:
        # Every variant starts with `ssa`, which a psi-SSA input skips.
        passes = passes[1:] if args.in_ssa else list(passes)
        if promote:
            passes.insert(passes.index("out-of-ssa"), "psi-promote")
        s = _run_module(mod.clone(), passes, args)
        columns.append((title, [s.copies_normalize, s.copies_psi_congruence,
                                s.copies_phi_congruence, s.total_copies]))
    return columns


def _print_stats(mod: ir.Module, args):
    fmt = args.stats_format
    for promote in (False, True):
        columns = _stats_matrix(mod, args, promote)
        title = ("with" if promote else "without") + " psi-predicate promotion"
        if fmt == "csv":
            print(f"# {title}")
            print("phase," + ",".join(t for t, _ in columns))
            for i, row in enumerate(STAT_ROWS):
                print(row + "," + ",".join(str(c[1][i]) for c in columns))
        else:
            print(f"copies inserted ({title})")
            width = max(len(r) for r in STAT_ROWS) + 2
            cols = [t for t, _ in columns]
            print(" " * width + "  ".join(f"{t:>18}" for t in cols))
            for i, row in enumerate(STAT_ROWS):
                cells = "  ".join(f"{c[1][i]:>18}" for c in columns)
                print(f"{row:<{width}}" + cells)
        print()


def _machine_from_args(args) -> MachineModel:
    try:
        return machine_from_flags(args.machine, args.predicable,
                                  args.speculatable)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _run_module(mod: ir.Module, passes: list[str], args,
                after=None) -> PassStats:
    """Run `passes` over each function of `mod`, in place; returns the
    copies out-of-SSA inserted, summed over the functions."""
    machine, opts = _machine_from_args(args), _options_from_args(args)
    total = PassStats()
    for func in mod.functions:
        total.add(pipeline.run(func, passes, machine, opts, after))
    return total


def _call_from_args(mod: ir.Module, args) -> tuple[str, list[int]]:
    """The function named by --func and the integers given by --args."""
    name = args.func.lstrip("@")
    try:
        func = mod.function(name)
    except KeyError:
        raise CliError(f"{args.file}: no function @{name}") from None
    try:
        values = [int(x) for x in args.args.split(",")] if args.args else []
    except ValueError:
        raise CliError(f"--args must be comma-separated integers, "
                       f"got {args.args!r}") from None
    if len(values) != len(func.params):
        raise CliError(f"@{name} expects {len(func.params)} args, "
                       f"got {len(values)}")
    return name, values


def _check_run_flags(args) -> None:
    """Raise CliError for flags that would be silently ignored: `--stats`
    runs its own pipelines and prints only its table."""
    if args.stats:
        ignored = ["--" + name.replace("_", "-") for name in (
            "passes", "verify", "dump_after", "dump_liveness",
            "dump_interference", "func", "args") if getattr(args, name)]
        if ignored:
            raise CliError("--stats cannot be combined with "
                           + ", ".join(ignored))
    if args.args and not args.func:
        raise CliError("--args needs --func")


def cmd_run(args) -> int:
    _check_run_flags(args)
    mod = _load(args.file, "ssa" if args.in_ssa else "non_ssa")
    passes = [p for p in args.passes.split(",") if p] if args.passes else []
    pipeline.check(passes, args.in_ssa, args.dump_after)
    call = _call_from_args(mod, args) if args.func else None
    original = mod.clone()
    # Each function's text at each --dump-after point, by function name.
    dumps: dict[str, list[str]] = {f.name: [] for f in mod.functions}

    def dump(name: str, func: ir.Function):
        if name == args.dump_after:
            dumps[func.name].append(ir.print_function(func))

    try:
        if args.stats:
            _print_stats(mod, args)
            return 0
        _run_module(mod, passes, args, dump)
    except pipeline.FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for k in range(passes.count(args.dump_after)):
        print(f"# after {args.dump_after}\n"
              + "\n".join(texts[k] for texts in dumps.values()), end="")
    if args.dump_after is None:
        print(ir.print_module(mod), end="")
    if args.dump_liveness or args.dump_interference:
        for func in mod.functions:
            env = guard_env_or_conservative(func)
            live = analysis.liveness(func)
            if args.dump_liveness:
                print(f"# liveness @{func.name}")
                print(live.dump(), end="")
            if args.dump_interference:
                graph = analysis.interference_graph(func, live, env)
                print(f"# interference @{func.name}")
                print(graph.dump(), end="")
    if args.verify:
        for before, after in zip(original.functions, mod.functions):
            report = interp.differential_check(before, after,
                                               trials=args.trials,
                                               seed=args.seed)
            for mm in report.mismatches:
                print(f"mismatch @{before.name}: {mm}", file=sys.stderr)
            if report.mismatches:
                return 2
    if call is not None:
        name, call_args = call
        result = interp.eval_function(mod.function(name), call_args)
        if result.trap:
            print(f"trap: {result.trap}")
        else:
            print(f"result: {result.value}")
    return 0


def cmd_fuzz(args) -> int:
    passes = [p for p in args.passes.split(",") if p]
    pipeline.check(passes)
    machine, opts = _machine_from_args(args), _options_from_args(args)
    mismatch_total = refused = compared = 0
    for i in range(args.trials):
        seed = args.seed + i
        profile = args.profile
        if profile == "mix":
            profile = "tiny" if i % 2 == 0 else "small"
        func = interp.gen_random_program(seed, profile, name=f"f{seed}")
        work = func.clone()
        try:
            pipeline.run(work, passes, machine, opts)
        except pipeline.FAILURES as exc:
            print(f"seed {seed}: pipeline error: {exc}", file=sys.stderr)
            refused += 1
            continue
        report = interp.differential_check(func, work, trials=args.vectors,
                                           seed=seed)
        compared += report.compared
        for mm in report.mismatches:
            print(f"seed {seed}: {mm}", file=sys.stderr)
        mismatch_total += len(report.mismatches)
    print(f"fuzz: {args.trials} programs, {compared} runs compared, "
          f"{mismatch_total} mismatches, {refused} refused")
    return 2 if mismatch_total or refused else 0


def _add_common(parser):
    parser.add_argument("--machine", choices=["full", "partial"],
                        default="full")
    parser.add_argument("--predicable", default=None,
                        help="comma-separated opcode override")
    parser.add_argument("--speculatable", default=None,
                        help="comma-separated opcode override")
    parser.add_argument("--no-reorder-disjoint", action="store_true")
    parser.add_argument("--no-disjoint-interference", action="store_true")
    parser.add_argument("--no-left-only", action="store_true")
    parser.add_argument("--no-ignore-result", action="store_true")
    parser.add_argument("--phi-naive", action="store_true")
    parser.add_argument("--seed", type=int, default=0)


def _count(text: str) -> int:
    """A count flag's value: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="psikit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a pass pipeline over a .pir file")
    run.add_argument("file")
    run.add_argument("--passes", default="")
    run.add_argument("--in-ssa", action="store_true",
                     help="input is already in (psi-)SSA form")
    run.add_argument("--verify", action="store_true",
                     help="differential-check the final program against the input")
    run.add_argument("--trials", type=_count, default=32)
    run.add_argument("--stats", action="store_true",
                     help="emit the per-phase copy table over the standard "
                          "pipeline variants")
    run.add_argument("--stats-format", choices=["text", "csv"], default="text")
    run.add_argument("--dump-after", default=None, metavar="PASS")
    run.add_argument("--dump-liveness", action="store_true")
    run.add_argument("--dump-interference", action="store_true")
    run.add_argument("--func", default=None, help="function to evaluate")
    run.add_argument("--args", default="", help="comma-separated integers")
    run.set_defaults(handler=cmd_run)
    _add_common(run)

    fuzz = sub.add_parser("fuzz", help="differential fuzzing of a pipeline")
    fuzz.add_argument("--trials", type=_count, default=100)
    fuzz.add_argument("--vectors", type=_count, default=32,
                      help="input vectors per program")
    fuzz.add_argument("--passes", default=",".join(pipeline.STANDARD))
    fuzz.add_argument("--profile", choices=["tiny", "small", "mix"],
                      default="mix")
    fuzz.set_defaults(handler=cmd_fuzz)
    _add_common(fuzz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (CliError, pipeline.PipelineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


if __name__ == "__main__":
    sys.exit(main())
