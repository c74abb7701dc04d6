"""Shared helpers for the test suite."""

import random
from pathlib import Path

from psikit import analysis, ir
from psikit.ifconvert import if_convert_pass
from psikit.machine import FULL, MachineModel
from psikit.out_of_ssa import (CongruenceClasses, OutOfSsaOptions,
                               phi_congruence, psi_congruence, psi_normalize,
                               run_out_of_ssa)
from psikit.predicates import guard_env_or_conservative
from psikit.ssa import construct_ssa, copy_fold, psi_promote_pass

DATA = Path(__file__).parent / "data"

ALL_OFF = OutOfSsaOptions(reorder_disjoint=False, disjoint_interference=False,
                          left_only=False, ignore_result=False)


def load(name: str) -> ir.Module:
    return ir.parse_module((DATA / name).read_text())


def load_func(name: str) -> ir.Function:
    return load(name).functions[0]


def pipeline(func: ir.Function, passes, machine: MachineModel = FULL,
             opts: OutOfSsaOptions | None = None):
    """Apply a named pass list to a clone of `func`; returns (func, stats)."""
    work = func.clone()
    stats = None
    for name in passes:
        if name == "ssa":
            work = construct_ssa(work)
        elif name == "fold":
            copy_fold(work, guard_env_or_conservative(work))
        elif name == "ifconvert":
            if_convert_pass(work, machine)
        elif name == "psi-promote":
            psi_promote_pass(work, guard_env_or_conservative(work), machine)
        elif name == "out-of-ssa":
            stats = run_out_of_ssa(work, opts)
        else:
            raise ValueError(name)
    return work, stats


def to_cssa(func: ir.Function, opts: OutOfSsaOptions | None = None):
    """Run the three conversion phases without the final renaming; returns
    (function, classes, per-phase copy counts)."""
    opts = opts or OutOfSsaOptions()
    work = func.clone()
    analysis.remove_unreachable(work)
    cache = analysis.Analyses(work)
    n1 = psi_normalize(cache, opts.reorder_disjoint)
    live = analysis.liveness(work)
    graph = analysis.interference_graph(
        work, live, cache.env, refine_disjoint=opts.disjoint_interference)
    classes = CongruenceClasses(work.var_names())
    n2 = psi_congruence(cache, live, graph, classes, opts)
    n3 = phi_congruence(cache, classes, opts)
    return work, classes, (n1, n2, n3)


def assert_no_errors(mod: ir.Module, mode: str = "non_ssa"):
    errors = [d for d in ir.validate(mod, mode) if d.severity == "error"]
    assert not errors, [str(e) for e in errors]


def random_psi_function(seed: int) -> ir.Function:
    """Straight-line function with a normalized psi over guarded
    definitions, the shape the select-form rewrite covers."""
    rng = random.Random(seed)
    nguards = rng.randint(1, 4)
    params = [("i", "value")] + [(f"g{k}", "guard") for k in range(nguards)]
    func = ir.Function("f", params,
                       guard_decls={f"g{k}" for k in range(nguards)})
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
    env = guard_env_or_conservative(func)
    live = analysis.liveness(func)
    graph = analysis.interference_graph(func, live, env)
    values = {v for v in func.var_names() if kinds.get(v) == "value"}
    return {frozenset((a, b)) for a in values
            for b in graph.neighbors(a) & values}
