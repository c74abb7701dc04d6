"""If-conversion of diamond and triangle regions into predicated code.

One region per call: the head's branch plus two linear arms meeting at a
merge block with exactly two predecessors.  Planning a region decides per
arm instruction, from the machine model, whether it is speculated or
guarded with the (possibly conjoined) path predicate; the region carries
that plan and `if_convert` carries it out.  Merge phis become psi
instructions whose argument order follows the linearized definition order.

`if_convert_pass` scans the CFG once for the blocks that head a region
and takes the regions from a worklist, innermost (deepest in the dominator
tree) first, ties in block order; a region whose plan failed leaves it.
Converting a region with head h gives a new region to one block at most:
the branch whose arm can now run through h, the first branch up h's chain
of single predecessors, once h ends with the merge's `goto`.  No other
region changes: arms are single-predecessor goto chains, the folded blocks
had predecessors only inside the region, and the merge's successors only
see h instead of the merge.  If h now ends with the merge's branch, its
region, if any, is the merge's, which was deeper and so has failed.  A
failed plan stays failed, since a conversion only narrows plannability: it
guards arm definitions and turns phis into psis, so an outside variable
defined on every path may stop being one, never the reverse.  After its
last region the pass drops the folded blocks from `func.blocks`, in one
sweep, and inlines chained psis once.

Any value feeding a psi that stays in the linearized code must be defined
whenever the psi executes, so definitions feeding arm psis (and the guard
registers of guarded arm instructions) are forced to be speculated; if the
machine cannot speculate them the region is not a candidate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .analysis import Analyses, def_point
from .ir import Block, Function, Instr, Instruction, Pred, PsiInstr, TRUE
from .machine import MachineModel
# If-conversion builds its guard envs through the analysis cache; the name
# stays bound here because perfbench's tests look for it in this module.
from .predicates import TRUE_EXPR, guard_env_or_conservative  # noqa: F401
from .ssa import definition_formula, psi_inline_all


@dataclass
class Region:
    head: str
    then_blocks: list[str]
    else_blocks: list[str]
    merge: str
    cond: str
    # ids of the arm instructions to speculate; the others are predicated.
    speculated: set[int] = field(default_factory=set)

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
        label = block.term.labels()[0]


def _candidate(cache: Analyses, label: str) -> Region | None:
    """The region headed by block `label` in the CFG as it stands, not yet
    planned; None when the block heads none."""
    blocks, preds = cache.blocks, cache.preds
    term = blocks[label].term
    if term is None or term.opcode != "br" or label not in cache.dom.depth:
        return None
    t_target, e_target = term.labels()
    if t_target == e_target:
        return None
    t = _follow_arm(blocks, t_target, label, preds)
    e = _follow_arm(blocks, e_target, label, preds)
    if t is None or e is None:
        return None
    (t_chain, merge), (e_chain, e_merge) = t, e
    if (merge != e_merge or set(t_chain) & set(e_chain) or merge == label
            or len(preds[merge]) != 2):
        return None
    return Region(label, t_chain, e_chain, merge, cond=term.operands[0])


def _branch_above(cache: Analyses, label: str) -> str | None:
    """The block whose arm can run through block `label`: climbing from
    `label` through blocks with a single predecessor that end in `goto`,
    the first predecessor that ends in `br`; None if the climb stops
    first."""
    preds, blocks = cache.preds, cache.blocks
    seen = set()
    while label not in seen and len(preds[label]) == 1:
        term = blocks[label].term
        if term is None or term.opcode != "goto":
            return None
        seen.add(label)
        label = preds[label][0]
        if blocks[label].term.opcode == "br":
            return label
    return None


def _plan_arm(cache: Analyses, arm_labels: list[str],
              machine: MachineModel) -> set[int] | None:
    """The ids of the arm instructions to speculate; every other arm
    instruction is predicated.  None when the arm cannot be converted."""
    defs, env = cache.defs, cache.env
    instrs: list[Instruction] = []
    for label in arm_labels:
        instrs.extend(cache.blocks[label].body)
    in_arm_def = {ins.dest: ins for ins in instrs if ins.dest is not None}

    spec: set[int] = set()
    forced: list[Instruction] = []

    def always_defined_outside(var: str) -> bool:
        return env.subset(TRUE_EXPR, definition_formula(var, defs, env))

    def reads_defined(ins: Instruction) -> bool:
        """Force the arm definitions `ins` reads, which it needs when
        speculated; False if it reads an outside variable that is not
        defined on every path."""
        for ref in ins.uses():
            if ref in in_arm_def:
                forced.append(in_arm_def[ref])
            elif not always_defined_outside(ref):
                return False
        return True

    for ins in instrs:
        if isinstance(ins, PsiInstr):
            spec.add(id(ins))
            if not reads_defined(ins):
                return None
        elif ins.guard is not None and ins.guard.reg in in_arm_def:
            forced.append(in_arm_def[ins.guard.reg])

    for ins in instrs:
        if id(ins) in spec or machine.predicable(ins.opcode):
            continue
        if machine.speculatable(ins.opcode):
            spec.add(id(ins))
            if not reads_defined(ins):
                return None
        else:
            return None

    # Speculating an instruction forces the arm definitions it reads; this
    # may turn a predicated plan into a speculated one.
    while forced:
        ins = forced.pop()
        if id(ins) in spec:
            continue
        if not machine.speculatable(ins.opcode):
            return None
        spec.add(id(ins))
        if not reads_defined(ins):
            return None
    return spec


def _planned(cache: Analyses, region: Region,
             machine: MachineModel) -> bool:
    """Plan both arms of `region` into it; False when an arm cannot be
    converted."""
    then_spec = _plan_arm(cache, region.then_blocks, machine)
    if then_spec is None:
        return False
    else_spec = _plan_arm(cache, region.else_blocks, machine)
    if else_spec is None:
        return False
    region.speculated = then_spec | else_spec
    return True


def if_convert(cache: Analyses, region: Region) -> Function:
    """Linearize one region in place, as its plan says, and record the
    change in `cache`; returns the function.  The region must be planned
    (`_planned`) on the function as it stands.  Fresh names come from
    `cache.names`, built at the latest by the first call, before its fold.
    `func.blocks` is stale, holding the folded blocks, until
    `drop_folded`, which a caller runs before it reads the list again."""
    func, blocks, defs = cache.func, cache.blocks, cache.defs
    names = cache.names
    head, merge = blocks[region.head], blocks[region.merge]
    pos, dom = cache.positions, cache.dom

    new_body: list[Instruction] = []
    temps: list[Instr] = []  # the not/and instructions made here
    neg_cache: dict[tuple[str, bool], str] = {}
    conj_cache: dict[tuple, str] = {}

    def as_reg(p: Pred) -> str:
        if p.positive:
            return p.reg
        key = (p.reg, False)
        if key not in neg_cache:
            t = names.fresh(p.reg)
            temps.append(Instr("not", t, [p.reg]))
            new_body.append(temps[-1])
            neg_cache[key] = t
        return neg_cache[key]

    def conjoin(path: Pred, g: Pred) -> Pred:
        key = (path.reg, path.positive, g.reg, g.positive)
        if key not in conj_cache:
            t = names.fresh("g")
            args = [as_reg(path), as_reg(g)]
            temps.append(Instr("and", t, args))
            new_body.append(temps[-1])
            conj_cache[key] = t
        return Pred(conj_cache[key], True)

    # The merge-psi predicate of each arm definition: its guard when
    # predicated, the arm's path when speculated.
    arm_pred: dict[str, Pred] = {}

    def emit_arm(labels: list[str], path: Pred):
        for label in labels:
            for ins in blocks[label].body:
                pred = path
                if id(ins) not in region.speculated:
                    if ins.guard is not None:
                        pred = conjoin(path, ins.guard)
                    ins.guard = pred
                new_body.append(ins)
                if ins.dest is not None:
                    arm_pred[ins.dest] = pred

    then_path = Pred(region.cond, True)
    else_path = Pred(region.cond, False)
    emit_arm(region.then_blocks, then_path)
    emit_arm(region.else_blocks, else_path)
    body_rank = {ins.dest: i for i, ins in enumerate(new_body)
                 if ins.dest is not None}

    def outside_pred(var: str) -> Pred:
        ins = defs.get(var)
        if isinstance(ins, Instr) and ins.guard is not None:
            return ins.guard
        return TRUE

    def rank(v: str):
        """Where `v` is defined, in linearized order."""
        if v in arm_pred:
            return (1, body_rank[v])
        p = def_point(v, defs, pos)
        return (0, (-1, -1) if p is None
                else (dom.depth.get(p[0].label, 0), p[1]))

    def psi_arg(path: Pred, v: str, last: bool) -> tuple[Pred, str]:
        """The merge psi's argument for `v`, which reaches the merge along
        `path`."""
        if v not in arm_pred:
            return (path if last else outside_pred(v), v)
        if isinstance(defs[v], PsiInstr) and not last:
            return (TRUE, v)
        return (arm_pred[v], v)

    new_psis: list[PsiInstr] = []
    for phi in merge.phis:
        t = phi.arg_for(region.then_exit())
        e = phi.arg_for(region.else_exit())
        if t == e:
            new_psis.append(PsiInstr(phi.dest, [(outside_pred(t), t)]))
            continue
        first, second = sorted([(then_path, t), (else_path, e)],
                               key=lambda arg: rank(arg[1]))
        new_psis.append(PsiInstr(phi.dest, [psi_arg(*first, last=False),
                                            psi_arg(*second, last=True)]))

    dropped = [*merge.phis, head.term,
               *(blocks[label].term for label in region.arm_labels())]
    # The merge's block object, whose body is the one that grows along a
    # chain of folds, keeps its keys and takes the head's label and phis.
    linear = head.body + new_body + new_psis
    merge.label, merge.phis, merge.body[:0] = head.label, head.phis, linear
    head = merge

    removed = region.arm_labels() + [region.merge]
    # Only the merge's successors, now the head's, can name the merge.
    for label in head.successors():
        for phi in blocks[label].phis:
            phi.args = [(region.head if lbl == region.merge else lbl, v)
                        for lbl, v in phi.args]
    func.guards.update(t.dest for t in temps)
    cache.linearized(head, len(linear), region.merge, removed, dropped,
                     temps + new_psis)
    return func


def drop_folded(cache: Analyses) -> None:
    """Set `func.blocks` from the cache's block map (`if_convert`)."""
    cache.func.blocks = list(cache.blocks.values())


def if_convert_pass(func: Function, machine: MachineModel) -> int:
    """Convert regions to a fixpoint, innermost out, then inline chained
    psis if any region was converted.  Returns the number of regions
    converted."""
    cache = Analyses(func)
    depth = cache.dom.depth
    index = {b.label: i for i, b in enumerate(func.blocks)}
    # The regions still to try, innermost first.  Every key stays exact: a
    # conversion lowers depths only below its merge, and every queued head
    # lies above the head just taken.
    queue: list[tuple[int, int, Region]] = []

    def push(label: str) -> None:
        region = _candidate(cache, label)
        if region is not None:
            heapq.heappush(queue, (-depth[label], index[label], region))

    for label in index:
        push(label)
    converted = 0
    while queue:
        region = heapq.heappop(queue)[2]
        if not _planned(cache, region, machine):
            continue
        if_convert(cache, region)
        converted += 1
        above = _branch_above(cache, region.head)
        if above is not None:
            push(above)
    if converted:
        drop_folded(cache)
        psi_inline_all(cache)
    return converted
