"""Shared helpers for the test suite."""

import random
from pathlib import Path

import pytest

from psikit import analysis, interp, ir, out_of_ssa
from psikit.machine import FULL, PARTIAL, MachineModel
from psikit.out_of_ssa import OutOfSsaOptions
from psikit.pipeline import run as run_passes

DATA = Path(__file__).parent / "data"

ALL_OFF = OutOfSsaOptions(reorder_disjoint=False, disjoint_interference=False,
                          left_only=False, ignore_result=False)

MID = interp.SizeProfile("mid", 40, 4, 3, True)
# The mid-profile programs whose standard compile refuses with
# ClassInterferenceDetected (a psi in a loop, ROADMAP item 1), each with
# the psi after whose copies psi-congruence first leaves a class with
# interfering members (`class_checked_to_cssa`, default options).
LATCH_REFUSALS = [
    (2621, FULL, "v2.7"), (2635, FULL, "v0.10"), (2635, PARTIAL, "v0.10"),
    (3006, FULL, "v2.47"), (3524, FULL, "v0.51"), (3524, PARTIAL, "v0.51"),
    (3689, FULL, "v2.7"), (3689, PARTIAL, "v2.7"), (3691, FULL, "v3.5"),
    (4096, FULL, "v2.5"), (4096, PARTIAL, "v2.5"), (4411, FULL, "v1.22"),
    (4593, FULL, "v3.11"), (4593, PARTIAL, "v3.11"),
]
# The standard pipeline up to out of psi-SSA.
BEFORE_OUT_OF_SSA = ["ssa", "fold", "ifconvert", "psi-promote"]


def load(name: str) -> ir.Module:
    return ir.parse_module((DATA / name).read_text())


def load_func(name: str) -> ir.Function:
    return load(name).functions[0]


def pipeline(func: ir.Function, passes, machine: MachineModel = FULL,
             opts: OutOfSsaOptions | None = None):
    """Apply a named pass list to a clone of `func`; returns the clone and
    the copies out-of-SSA inserted."""
    work = func.clone()
    return work, run_passes(work, passes, machine, opts)


def to_cssa(func: ir.Function, opts: OutOfSsaOptions | None = None):
    """Run the three conversion phases on a clone of `func`, without the
    final renaming; returns (function, classes, per-phase copy counts)."""
    work = func.clone()
    classes, copies = out_of_ssa.to_cssa(work, opts)
    return work, classes, copies


def latch_refusal_params(reason: str):
    """`LATCH_REFUSALS` as pytest params (seed, machine), each a strict
    xfail that expects ClassInterferenceDetected and names its psi."""
    return [pytest.param(seed, machine, id=f"{seed}-{machine.name}",
                         marks=pytest.mark.xfail(
                             strict=True, reason=f"{reason} (%{psi})",
                             raises=out_of_ssa.ClassInterferenceDetected))
            for seed, machine, psi in LATCH_REFUSALS]


def class_checked_to_cssa(monkeypatch, func: ir.Function,
                          opts: OutOfSsaOptions):
    """`out_of_ssa.to_cssa` on `func`, asking `class_interference` after
    every `LiveRanges.update`: after each psi's copies in psi-congruence,
    and once phi-congruence ends.  Raises ClassInterferenceDetected, naming
    the psi, when psi-congruence leaves a class with interfering members;
    fails when phi-congruence does.  Returns the number of checks."""
    state = {}
    checks = []
    update = analysis.LiveRanges.update

    def phase(name):
        original = getattr(out_of_ssa, name)

        def entered(cache, classes, opts):
            state.update(phase=name, cache=cache, classes=classes)
            return original(cache, classes, opts)
        monkeypatch.setattr(out_of_ssa, name, entered)

    def checked(self, inserted=(), changed=()):
        update(self, inserted, changed)
        checks.append(1)
        pair = out_of_ssa.class_interference(
            state["cache"], state["classes"], opts.disjoint_interference)
        if pair is None:
            return
        where = f"%{pair[0]} and %{pair[1]} interfere"
        assert state["phase"] == "psi_congruence", f"phi-congruence: {where}"
        raise out_of_ssa.ClassInterferenceDetected(
            f"@{func.name}: psi-congruence at the psi defining "
            f"%{changed[0].dest}: {where}")

    phase("psi_congruence")
    phase("phi_congruence")
    monkeypatch.setattr(analysis.LiveRanges, "update", checked)
    try:
        out_of_ssa.to_cssa(func, opts)
    finally:
        monkeypatch.undo()
    return len(checks)


def assert_no_errors(mod: ir.Module, mode: str = "non_ssa"):
    errors = [d for d in ir.validate(mod, mode) if d.severity == "error"]
    assert not errors, [str(e) for e in errors]


def assert_same_order(positions: dict, func: ir.Function) -> None:
    """`positions`, an `Analyses.positions` carried through edits, puts
    every instruction of `func` in its block and in the order a fresh
    `instr_positions` does, with equal keys exactly where the fresh ones
    are equal (a block's phis); the keys themselves may differ."""
    fresh = analysis.instr_positions(func)
    assert positions.keys() == fresh.keys()

    def steps(keys):
        return [(a > b) - (a < b) for a, b in zip(keys, keys[1:])]

    for block in func.blocks:
        carried = [positions[id(ins)] for ins in block.instructions()]
        assert all(where is block for where, _ in carried)
        assert (steps([k for _, k in carried])
                == steps([fresh[id(ins)][1] for ins in block.instructions()]))


def count_calls(monkeypatch, owner, name: str, counts: dict):
    """Count the calls of `owner.name` in `counts[name]`."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)


def diamond_chain_source(n: int, copies: bool = False) -> ir.Function:
    """n sequential diamonds, each merge the head of the next; not SSA.
    With `copies`, each arm first copies %x with a plain mov."""
    lines = ["func @f(%x) {"]
    for i in range(n):
        arms = []
        for arm, op in ((f"t{i}", "add"), (f"e{i}", "sub")):
            src = "%x"
            arms.append(f"{arm}:")
            if copies:
                arms.append("  %y = mov %x")
                src = "%y"
            arms += [f"  %x = {op} {src}, 1", f"  goto h{i + 1}"]
        lines += [f"h{i}:", f"  %c = cmp_lt %x, {i}", f"  br %c, t{i}, e{i}",
                  *arms]
    lines += [f"h{n}:", "  ret %x", "}"]
    return ir.parse_module("\n".join(lines)).functions[0]


def random_psi_function(seed: int) -> ir.Function:
    """Straight-line function with a normalized psi over guarded
    definitions, the shape the select-form rewrite covers."""
    rng = random.Random(seed)
    nguards = rng.randint(1, 4)
    guards = [f"g{k}" for k in range(nguards)]
    func = ir.Function("f", ["i", *guards], guards=set(guards))
    block = ir.Block("b0")
    func.blocks.append(block)
    block.body.append(ir.Instr("add", "v0", ["i", rng.randint(-3, 3)]))
    args = [(ir.TRUE, "v0")]
    for k in range(nguards):
        dest = f"v{k + 1}"
        op = rng.choice(["add", "sub", "mul"])
        src = rng.choice(["i", "v0"])
        block.body.append(ir.Instr(op, dest, [src, rng.randint(-3, 3)],
                                   guard=ir.Pred(f"g{k}")))
        args.append((ir.Pred(f"g{k}"), dest))
    block.body.append(ir.PsiInstr("x", args))
    if rng.random() < 0.5:
        block.body.append(ir.Instr("add", "y", ["x", "v0"]))
        block.term = ir.Instr("ret", None, ["y"])
    else:
        block.term = ir.Instr("ret", None, ["x"])
    return func


def value_interference_edges(func: ir.Function) -> set[frozenset]:
    """Interference edges between value-kind variables, as a set of pairs."""
    kinds = ir.infer_kinds(func)
    live = analysis.liveness(func)
    graph = analysis.interference_graph(func, live)
    values = {v for v in func.var_names() if kinds.get(v) == "value"}
    return {frozenset((a, b)) for a in values
            for b in graph.neighbors(a) & values}
