"""Shared helpers for the test suite."""

import random
from pathlib import Path

from psikit import analysis, ir, out_of_ssa
from psikit.machine import FULL, MachineModel
from psikit.out_of_ssa import OutOfSsaOptions
from psikit.pipeline import run as run_passes

DATA = Path(__file__).parent / "data"

ALL_OFF = OutOfSsaOptions(reorder_disjoint=False, disjoint_interference=False,
                          left_only=False, ignore_result=False)


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
