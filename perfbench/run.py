"""psikit benchmark: compile and verify one workload, print its metrics.

    python3 perfbench/run.py --workload fuzz_mix --seed 1 --seconds 35 --trace 0

Runs from the root of a psikit checkout and imports `src/psikit` from it.
Every program is compiled with ssa,fold,ifconvert,psi-promote,out-of-ssa
through psikit's public pass functions, one program at a time (closed
loop, one client, one thread), and checked against the reference
interpreter on the original input.  Rounds of set-up plus one pass over
the corpus repeat while the next is expected to end within `--seconds`,
at least twice, and every pass must print the same modules and counts.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics of
traced passes (see tracer.py), alternated with untraced ones.  The line
before it is a JSON report stamped with the seed and the machine.  Exit
status: 0 on a completed run, 1 if psikit cannot be loaded, 2 on invalid
arguments.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"           # span files of traced runs
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from clock import Clock  # noqa: E402

MODULES = ("ir", "predicates", "analysis", "machine", "ssa", "ifconvert",
           "out_of_ssa", "interp")
MIN_PASSES = 2

# Module expected to lead the traced self time, or the modules expected to
# take most of it, per workload (the reason each workload exists).
LAYER_EXPECTATION = {
    "fuzz_mix": "predicates has the largest self time",
    "ladder": "predicates under 20%; ir+analysis+ifconvert+"
              "out_of_ssa over 50% of self time",
    "verify_partial": "interp has the largest self time",
}


class SetupError(Exception):
    pass


def import_psikit():
    """Import psikit's modules from this checkout, dropping earlier copies."""
    src = ROOT / "src"
    if not (src / "psikit" / "__init__.py").is_file():
        raise SetupError(f"no psikit package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for key in [k for k in sys.modules
                if k == "psikit" or k.startswith("psikit.")]:
        del sys.modules[key]
    mods = SimpleNamespace(**{name: importlib.import_module(f"psikit.{name}")
                              for name in MODULES})
    if Path(mods.ir.__file__).resolve().parent != (src / "psikit").resolve():
        raise SetupError(f"imported psikit from {mods.ir.__file__}")
    return mods


def setup(workload: str, seed: int, held_out: bool, clock: Clock):
    """Import psikit and build the corpus: (seconds, modules, corpus)."""
    def once():
        mods = import_psikit()
        return mods, workloads.build_corpus(workload, seed, mods, held_out)

    (mods, corpus), seconds = clock.time(once)
    return seconds, mods, corpus


CHECK_CHUNK = 32   # vectors per differential_check call


@dataclass
class Outcome:
    """One program's result in one pass: the time of each compile step and
    of each differential-check call, the printed output and its counts."""
    steps: list[float]
    checks: list[float] = field(default_factory=list)
    text: str = ""
    copies: int = 0
    instrs: int = 0
    error: str | None = None


def run_program(m, spec, machine, prog, clock: Clock) -> Outcome:
    """Compile one program with ssa,fold,ifconvert,psi-promote,out-of-ssa,
    check it against the interpreter on the original, count its output."""
    ir, ssa, env_of = m.ir, m.ssa, m.predicates.guard_env_or_conservative
    steps: list[float] = []

    def step(fn):
        result, seconds = clock.time(fn)
        steps.append(seconds)
        return result

    try:
        if spec.via_text:
            mod = step(lambda: ir.parse_module(prog.text))
            errors = [d for d in step(lambda: ir.validate(mod, "non_ssa"))
                      if d.severity == "error"]
            if errors:
                raise ValueError(f"validation: {errors[0]}")
            func = mod.functions[0]
        else:
            func = step(prog.func.clone)
        func = step(lambda: ssa.construct_ssa(func))
        step(lambda: ssa.copy_fold(func, env_of(func)))
        step(lambda: m.ifconvert.if_convert_pass(func, machine))
        step(lambda: ssa.psi_promote_pass(func, env_of(func), machine))
        step(lambda: m.out_of_ssa.run_out_of_ssa(func))
        text = (step(lambda: ir.print_module(ir.Module([func])))
                if spec.via_text else None)
    except Exception as exc:  # noqa: BLE001 - a failing program is counted
        return Outcome(steps, error=f"pipeline: {exc!r}")
    out = Outcome(steps)
    for j, start in enumerate(range(0, spec.vectors, CHECK_CHUNK)):
        report, seconds = clock.time(lambda: m.interp.differential_check(
            prog.func, func, min(CHECK_CHUNK, spec.vectors - start),
            prog.check_seed + j))
        out.checks.append(seconds)
        if report.mismatches and out.error is None:
            out.error = f"mismatch: {report.mismatches[0]}"
    out.text = text or ir.print_module(ir.Module([func]))
    out.copies = sum(1 for _, ins in func.instructions()
                     if ins.opcode == "mov")
    out.instrs = sum(1 for _ in func.instructions())
    return out


@dataclass
class Pass:
    elapsed_s: float                 # the whole pass, digest printing too
    outcomes: list[Outcome] = field(default_factory=list)

    def digest(self) -> str:
        h = hashlib.sha256()
        for o in self.outcomes:
            h.update((o.text or o.error or "").encode())
            h.update(b"\0")
        return h.hexdigest()

    def exact(self) -> tuple:
        return (self.digest(), sum(o.copies for o in self.outcomes),
                sum(o.instrs for o in self.outcomes))


def run_pass(m, spec, machine, corpus, clock: Clock, tr=None) -> Pass:
    gc.collect()
    outcomes = []
    t0 = time.perf_counter()
    for prog in corpus:
        if tr is not None:
            tr.request += 1
        outcomes.append(run_program(m, spec, machine, prog, clock))
    return Pass(time.perf_counter() - t0, outcomes)


def run_rounds(seconds: float, min_rounds: int, one_round) -> None:
    """Call one_round() while the next call is expected to end within
    `seconds` of the start, and at least min_rounds times."""
    start = time.perf_counter()
    rounds = 0
    while True:
        one_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return


def tail_percentile(n: int) -> int:
    """Highest percentile with at least ten samples beyond it (nearest-rank),
    or 100 (the maximum) when there are too few samples for one."""
    for q in range(99, 49, -1):
        if n - math.ceil(q * n / 100) >= 10:
            return q
    return 100


def percentile(values, q: int) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered) / 100), 1) - 1]


def per_program(passes: list[Pass], attr: str) -> list[float]:
    """Each program's time in ms: the sum over its timed steps (`steps`:
    compile steps, `checks`: differential-check calls) of each step's
    median time over the passes.  Short steps keep each sample's speed
    correction (see clock.py) close to the speed the step ran at."""
    out = []
    for i in range(len(passes[0].outcomes)):
        samples = zip(*(getattr(p.outcomes[i], attr) for p in passes))
        out.append(1e3 * sum(statistics.median(step) for step in samples))
    return out


def program_ms(passes: list[Pass]) -> list[float]:
    return [c + v for c, v in zip(per_program(passes, "steps"),
                                  per_program(passes, "checks"))]


def rung_medians(corpus, passes: list[Pass]) -> dict:
    """Ladder: median compile time and input size per rung, plus the
    least-squares exponent of compile time against size across rungs."""
    compile_ms = per_program(passes, "steps")
    rungs: dict[str, dict] = {}
    for prog, ms in zip(corpus, compile_ms):
        entry = rungs.setdefault(prog.label, {"ms": [], "instrs": []})
        entry["ms"].append(ms)
        entry["instrs"].append(sum(1 for _ in prog.func.instructions()))
    out = {label: {"programs": len(e["ms"]),
                   "instrs_median": statistics.median(e["instrs"]),
                   "compile_ms_p50": statistics.median(e["ms"])}
           for label, e in rungs.items()}
    xs = [math.log(e["instrs_median"]) for e in out.values()]
    ys = [math.log(e["compile_ms_p50"]) for e in out.values()]
    if len(xs) > 1:
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                 / sum((x - mx) ** 2 for x in xs))
        out["growth_exponent"] = slope
    return out


def failures(passes: list[Pass]) -> tuple[int, int, list[str]]:
    attempted = sum(len(p.outcomes) for p in passes)
    errors = [o.error for p in passes for o in p.outcomes if o.error]
    return attempted, len(errors), errors[:3]


def end_to_end(passes, setup_s) -> dict:
    compile_ms = per_program(passes, "steps")
    verify_ms = per_program(passes, "checks")
    attempted, failed, _ = failures(passes)
    _, copies, instrs = passes[0].exact()
    q = tail_percentile(len(compile_ms))
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(program_ms(passes)) / 1e3, "s"),
        "compile_ms_p50": (statistics.median(compile_ms), "ms"),
        "compile_ms_tail": (percentile(compile_ms, q), "ms"),
        "verify_ms_p50": (statistics.median(verify_ms), "ms"),
        "copies_total": (copies, "count"),
        "out_instrs": (instrs, "count"),
        "passed_share": (1 - failed / attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def per_layer(tr: tracing.Tracer, traced: list[Pass],
              untraced: list[Pass]) -> dict:
    """Per-layer metrics per pass: the tracer's sums over the traced passes
    divided by their number (every pass does identical work)."""
    n = len(traced)
    out = {}
    for name in tracing.NAMES:
        out[f"{name}.calls"] = (tr.calls[name] // n, "count")
        out[f"{name}.self_s"] = (tr.self_s[name] / n, "s")
    c = tr.counts
    regions = c["regions"]
    evals_s = tr.total_s["interp.eval_function"]
    out.update({
        "predicates.conservative_share": (
            c["env_conservative"] / max(c["env_builds"], 1), "share"),
        "ifconvert.regions": (regions // n, "count"),
        "ifconvert.env_builds_per_region": (
            c["env_builds_in_ifconvert"] / regions if regions else 0.0,
            "ratio"),
        "ir.infer_kinds.calls_from_interp": (
            c["infer_kinds_from_interp"] // n, "count"),
        "ssa.promoted": (c["promoted"] // n, "count"),
        "out_of_ssa.copies_normalize": (c["copies_normalize"] // n, "count"),
        "out_of_ssa.copies_psi_congruence": (
            c["copies_psi_congruence"] // n, "count"),
        "out_of_ssa.copies_phi_congruence": (
            c["copies_phi_congruence"] // n, "count"),
        "interp.evals_per_s": (
            tr.calls["interp.eval_function"] / evals_s if evals_s else 0.0,
            "1/s"),
        "trace.overhead_share": (
            sum(program_ms(traced)) / sum(program_ms(untraced)) - 1,
            "share"),
    })
    return out


def layer_check(workload: str, module_self: dict) -> bool:
    total = sum(module_self.values()) or 1.0
    share = {k: v / total for k, v in module_self.items()}
    if workload == "ladder":
        return (share.get("predicates", 0.0) < 0.2
                and sum(share.get(k, 0.0) for k in
                        ("ir", "analysis", "ifconvert", "out_of_ssa")) > 0.5)
    leader = "predicates" if workload == "fuzz_mix" else "interp"
    return max(share, key=share.get) == leader


def stamp(args) -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {"workload": args.workload, "seed": args.seed,
            "held_out": args.held_out, "nproc": cpus,
            "python": platform.python_version(),
            "platform": platform.platform()}


def traced_run(args, spec, fresh, clock: Clock,
               report: dict) -> tuple[dict, list[Pass], bool]:
    """Alternate untraced and traced passes, so that both see the same mix
    of machine speeds and their difference is the tracing overhead."""
    tr = tracing.Tracer()
    untraced: list[Pass] = []
    traced: list[Pass] = []

    def pair():
        m, machine, corpus = fresh()
        untraced.append(run_pass(m, spec, machine, corpus, clock))
        with tr:
            traced.append(run_pass(m, spec, machine, corpus, clock, tr))

    run_rounds(args.seconds, 1, pair)
    module_self = {k: v / len(traced) for k, v in tr.module_self_s().items()}
    report["module_self_s"] = module_self
    report["layer_expectation"] = LAYER_EXPECTATION[args.workload]
    report["layer_expectation_met"] = layer_check(args.workload, module_self)
    # run_out_of_ssa's PassStats.total_copies counts the output's movs.
    copies = traced[0].exact()[1]
    consistent = tr.counts["total_copies"] == copies * len(traced)
    report["copies_match_pass_stats"] = consistent
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                       f"{'-held-out' if args.held_out else ''}.spans.jsonl")
    tr.write_spans(spans)
    report["spans"] = os.path.relpath(spans, ROOT)
    return per_layer(tr, traced, untraced), untraced + traced, consistent


def run(args) -> tuple[dict, dict, bool, int, int]:
    """Run one benchmark invocation: (metrics, report, correct, attempted,
    failed)."""
    spec = workloads.SPECS[args.workload]
    clock = Clock()
    setups: list[float] = []
    corpus: list = []

    def fresh():
        """Set up anew before every pass: each pass runs on freshly
        imported modules and inputs, and set-up is sampled across the run."""
        seconds, m, programs = setup(args.workload, args.seed, args.held_out,
                                     clock)
        setups.append(seconds)
        corpus[:] = programs
        return m, m.machine.PRESETS[spec.machine], programs

    report = stamp(args)
    report["vectors"] = spec.vectors
    if args.trace:
        metrics, passes, consistent = traced_run(args, spec, fresh, clock,
                                                 report)
    else:
        passes: list[Pass] = []

        def one():
            m, machine, programs = fresh()
            passes.append(run_pass(m, spec, machine, programs, clock))

        run_rounds(args.seconds, MIN_PASSES, one)
        metrics = end_to_end(passes, statistics.median(setups))
        report["compile_tail_percentile"] = tail_percentile(len(corpus))
        report["compile_samples"] = len(corpus)
        consistent = True
    attempted, failed, examples = failures(passes)
    digest, copies, instrs = passes[0].exact()
    deterministic = len({p.exact() for p in passes}) == 1
    report.update({"programs": len(corpus), "passes": len(passes),
                   "pass_elapsed_s": [p.elapsed_s for p in passes],
                   "digest": digest,
                   "copies_total": copies, "out_instrs": instrs,
                   "failed_share": failed / attempted,
                   "deterministic": deterministic,
                   "failures": examples})
    if args.workload == "ladder":
        report["rungs"] = rung_medians(corpus, passes)
    correct = failed == 0 and deterministic and consistent
    return metrics, report, correct, attempted, failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="use program shapes disjoint from the tuned ones")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        metrics, report, correct, attempted, failed = run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
