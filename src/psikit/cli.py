"""Command-line driver: run pass pipelines, verify, fuzz, emit copy stats.

    psikit run file.pir --passes=ssa,ifconvert,out-of-ssa --verify
    psikit run file.pir --passes=ssa --dump-after=ssa
    psikit run file.pir --stats
    psikit fuzz --trials 1000 --seed 0 --passes=ssa,fold,ifconvert,psi-promote,out-of-ssa

Exit codes: 0 success, 1 diagnostics or bad flags, 2 verification mismatch.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from . import analysis, interp, ir
from .ifconvert import NotConvertible, if_convert_pass
from .machine import MachineModel, machine_from_flags
from .out_of_ssa import OutOfSsaOptions, PassStats, run_out_of_ssa
from .predicates import guard_env_or_conservative
from .ssa import (construct_ssa, copy_fold, psi_inline_all, psi_promote_pass,
                  psi_reduce_all)

PASS_NAMES = ["ssa", "fold", "ifconvert", "psi-inline", "psi-reduce",
              "psi-promote", "out-of-ssa"]
SSA_REQUIRED = {"fold", "ifconvert", "psi-inline", "psi-reduce",
                "psi-promote", "out-of-ssa"}


class CliError(Exception):
    pass


@dataclass
class PipelineConfig:
    passes: list[str]
    machine: MachineModel
    opts: OutOfSsaOptions
    in_ssa: bool = False
    dump_after: str | None = None
    stats: PassStats = field(default_factory=PassStats)
    printed: list[str] = field(default_factory=list)


def _check_pipeline(passes: list[str], in_ssa: bool):
    for name in passes:
        if name not in PASS_NAMES:
            raise CliError(f"unknown pass {name!r} (known: {', '.join(PASS_NAMES)})")
    have_ssa = in_ssa
    for name in passes:
        if name == "ssa":
            have_ssa = True
        elif name in SSA_REQUIRED and not have_ssa:
            raise CliError(
                f"pass {name!r} requires 'ssa' earlier in the pipeline "
                "(or --in-ssa for inputs already in SSA form)")


def _apply_pass(name: str, func: ir.Function, config: PipelineConfig) -> ir.Function:
    if name == "ssa":
        return construct_ssa(func)
    if name == "fold":
        copy_fold(func, guard_env_or_conservative(func))
    elif name == "ifconvert":
        if_convert_pass(func, config.machine)
    elif name == "psi-inline":
        psi_inline_all(analysis.Analyses(func))
    elif name == "psi-reduce":
        psi_reduce_all(func, guard_env_or_conservative(func))
    elif name == "psi-promote":
        psi_promote_pass(func, guard_env_or_conservative(func),
                         config.machine)
    elif name == "out-of-ssa":
        config.stats.add(run_out_of_ssa(func, config.opts))
    return func


def run_pipeline(mod: ir.Module, config: PipelineConfig) -> ir.Module:
    for name in config.passes:
        mod.functions = [_apply_pass(name, f, config) for f in mod.functions]
        if config.dump_after == name:
            config.printed.append(f"# after {name}\n" + ir.print_module(mod))
    return mod


def _load(path: str) -> ir.Module:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CliError(str(exc)) from None
    try:
        mod = ir.parse_module(text)
    except ir.ParseError as exc:
        raise CliError(f"{path}:{exc}") from None
    diags = ir.validate(mod, "non_ssa")
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
        passes = list(passes)
        if promote:
            passes.insert(passes.index("out-of-ssa"), "psi-promote")
        config = PipelineConfig(passes=passes,
                                machine=_machine_from_args(args),
                                opts=_options_from_args(args))
        run_pipeline(mod.clone(), config)
        s = config.stats
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
    return machine_from_flags(args.machine, args.predicable, args.speculatable)


def cmd_run(args) -> int:
    mod = _load(args.file)
    passes = [p for p in args.passes.split(",") if p] if args.passes else []
    _check_pipeline(passes, args.in_ssa)
    original = mod.clone()
    config = PipelineConfig(passes=passes, machine=_machine_from_args(args),
                            opts=_options_from_args(args),
                            in_ssa=args.in_ssa, dump_after=args.dump_after)
    try:
        if args.stats:
            _print_stats(mod, args)
            return 0
        mod = run_pipeline(mod, config)
    except (NotConvertible, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for chunk in config.printed:
        print(chunk, end="")
    if config.dump_after is None:
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
    if args.func:
        name = args.func.lstrip("@")
        call_args = [int(x) for x in args.args.split(",")] if args.args else []
        result = interp.eval_function(mod.function(name), call_args)
        if result.trap:
            print(f"trap: {result.trap}")
        else:
            print(f"result: {result.value}")
    return 0


def cmd_fuzz(args) -> int:
    passes = [p for p in args.passes.split(",") if p]
    _check_pipeline(passes, in_ssa=False)
    mismatch_total = 0
    compared = 0
    for i in range(args.trials):
        seed = args.seed + i
        profile = args.profile
        if profile == "mix":
            profile = "tiny" if i % 2 == 0 else "small"
        func = interp.gen_random_program(seed, profile, name=f"f{seed}")
        config = PipelineConfig(passes=passes,
                                machine=_machine_from_args(args),
                                opts=_options_from_args(args))
        work = func.clone()
        try:
            mod = ir.Module([work])
            run_pipeline(mod, config)
            work = mod.functions[0]
        except (NotConvertible, ValueError) as exc:
            print(f"seed {seed}: pipeline error: {exc}", file=sys.stderr)
            mismatch_total += 1
            continue
        report = interp.differential_check(func, work, trials=args.vectors,
                                           seed=seed)
        compared += report.compared
        for mm in report.mismatches:
            print(f"seed {seed}: {mm}", file=sys.stderr)
        mismatch_total += len(report.mismatches)
    print(f"fuzz: {args.trials} programs, {compared} runs compared, "
          f"{mismatch_total} mismatches")
    return 2 if mismatch_total else 0


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
    run.add_argument("--trials", type=int, default=32)
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
    fuzz.add_argument("--trials", type=int, default=100)
    fuzz.add_argument("--vectors", type=int, default=32,
                      help="input vectors per program")
    fuzz.add_argument("--passes",
                      default="ssa,fold,ifconvert,psi-promote,out-of-ssa")
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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


if __name__ == "__main__":
    sys.exit(main())
