"""SSA construction and the psi-level transformations.

Psi arguments are ordered left to right by the dominance order of their
definitions, and a normalized psi has each argument predicate equal to the
guard on the argument's unique definition.  The transformations here keep
or restore those properties where they promise to; the interpreter is the
ground truth for all of them.
"""

from __future__ import annotations

from typing import NamedTuple

from . import analysis
from .ir import (Block, Function, Instr, Instruction, NameAllocator, PhiInstr,
                 Pred, PsiInstr, TRUE, rename_uses)
from .machine import MachineModel
from .predicates import And, GuardEnv, TRUE_EXPR, domain_union


class EmptyProjection(Exception):
    pass


class ConditionViolated(Exception):
    def __init__(self, which: int, detail: str = ""):
        super().__init__(f"condition {which} violated"
                         + (f": {detail}" if detail else ""))
        self.which = which


# ---------------------------------------------------------------------------
# Construction

def construct_ssa(func: Function) -> Function:
    """Rename `func` to SSA in place, with pruned phi placement at
    dominance frontiers, and drop its unreachable blocks; returns `func`.

    The input must be branch-structured, unpredicated code: a guarded
    definition is a partial definition and has no SSA name without a psi,
    so such inputs are rejected.  So are inputs already in SSA form, a
    use that some path reaches before any definition, and a branch to the
    entry, where no phi could take the function's inputs.  Only reachable
    blocks are checked, and a rejected input is left unchanged.

    One sweep over the reachable blocks (`_sweep`) collects what the rest
    reads: the predecessors, each variable's definition blocks and
    upward-exposed uses, and the names.  The use-before-definition refusal
    and pruned placement need only the blocks where each variable is
    live-in: one `analysis.live_in_blocks` walk per variable, from its
    upward-exposed uses, stopped by its definition blocks.  Nothing
    derives live-out sets, and the full `analysis.liveness` is not built.
    """
    sweep = _sweep(func)
    preds, def_blocks = sweep.preds, sweep.def_blocks
    live_in = {var: analysis.live_in_blocks(sites, def_blocks.get(var, ()),
                                            preds)
               for var, sites in sweep.exposed.items()}
    param_names = set(func.params)
    undefined = {v for v, blocks in live_in.items()
                 if func.entry in blocks} - param_names
    if undefined:
        raise ValueError(f"@{func.name}: %{min(undefined)} may be used "
                         "before it is defined")
    func.blocks = sweep.blocks

    cache = analysis.Analyses(func)
    cache.preds = preds
    cache.dom = dom = analysis.dominator_tree(sweep.order, preds)
    blocks = cache.blocks
    frontiers = analysis.dominance_frontiers(cache)

    # Pruned placement: a phi for v at frontier block B only if v is live-in.
    phi_vars: dict[str, list[str]] = {b.label: [] for b in func.blocks}
    for var, sites in sorted(def_blocks.items()):
        if len(sites) < 2 and var not in param_names:
            continue
        work = sorted(sites | ({func.entry} if var in param_names else set()))
        placed = set()
        while work:
            site = work.pop()
            for fb in sorted(frontiers[site]):
                if fb in placed or fb not in live_in.get(var, ()):
                    continue
                placed.add(fb)
                phi_vars[fb].append(var)
                if fb not in sites:
                    work.append(fb)

    for label, names in phi_vars.items():
        block = blocks[label]
        for var in names:
            block.phis.append(PhiInstr(var, [(p, var) for p in preds[label]]))

    alloc = NameAllocator(func, sweep.names)
    stacks: dict[str, list[str]] = {n: [n] for n in func.params}
    named_once = set(param_names)

    def push(root: str) -> str:
        new = alloc.fresh(root) if root in named_once else root
        named_once.add(root)
        stacks.setdefault(root, []).append(new)
        return new

    def top(var: str) -> str:
        return stacks[var][-1]

    def rename(label: str) -> list[str]:
        """Rename one block; returns the roots it pushed."""
        block = blocks[label]
        pushed: list[str] = []
        for phi in block.phis:
            root = phi.dest
            phi.dest = push(root)
            pushed.append(root)
        for ins in list(block.body) + ([block.term] if block.term else []):
            rename_uses(ins, top)
            if ins.dest is not None:
                root = ins.dest
                ins.dest = push(root)
                pushed.append(root)
        for succ in block.successors():
            for phi in blocks[succ].phis:
                for i, (plbl, var) in enumerate(phi.args):
                    if plbl == label:
                        phi.args[i] = (plbl, top(var))
        return pushed

    # Dominator-tree preorder; a block's names are popped once the walk
    # has left its subtree.  Iterative, so chains of any depth are fine.
    work: list[tuple[str, list[str] | None]] = [(func.entry, None)]
    while work:
        label, pushed = work.pop()
        if pushed is not None:
            for root in pushed:
                stacks[root].pop()
            continue
        work.append((label, rename(label)))
        work.extend((child, None) for child in reversed(dom.children[label]))
    return func


class _Sweep(NamedTuple):
    """What `construct_ssa` reads from its input."""
    order: list[str]                 # `analysis.reachable_blocks(func)`
    blocks: list[Block]              # the reachable blocks, in block order
    preds: dict[str, list[str]]      # as `Function.predecessors()` of those
    def_blocks: dict[str, set[str]]  # variable -> blocks that define it
    exposed: dict[str, set[str]]     # variable -> blocks that read it first
    names: set[str]                  # as `Function.var_names()` of those


def _sweep(func: Function) -> _Sweep:
    """Collect what `construct_ssa` reads from its input in one pass over
    the reachable blocks, and raise ValueError for the refused inputs
    (`construct_ssa`); the input is not changed."""
    order = analysis.reachable_blocks(func)
    reachable = set(order)
    kept = [b for b in func.blocks if b.label in reachable]
    preds: dict[str, list[str]] = {b.label: [] for b in kept}
    for block in kept:
        for succ in block.successors():
            if block.label not in preds[succ]:
                preds[succ].append(block.label)
    if preds[func.entry]:
        raise ValueError(f"@{func.name}: entry block {func.entry} has "
                         "predecessors")
    def_blocks: dict[str, set[str]] = {}
    exposed: dict[str, set[str]] = {}
    for block in kept:
        if block.phis:
            raise ValueError(f"@{func.name} is already in SSA form")
        label = block.label
        defined: set[str] = set()
        for ins in block.body + ([block.term] if block.term else []):
            if isinstance(ins, PsiInstr):
                raise ValueError(f"@{func.name} is already in SSA form")
            for var in ins.uses():
                if var not in defined:
                    exposed.setdefault(var, set()).add(label)
            dest = ins.dest
            if dest is not None:
                if ins.guard is not None:
                    raise ValueError(
                        f"@{func.name}/{label}: guarded definition of "
                        f"%{dest} cannot be renamed to SSA directly")
                defined.add(dest)
                def_blocks.setdefault(dest, set()).add(label)
    # A use is upward-exposed or follows a definition in its block.
    names = set(func.params) | def_blocks.keys() | exposed.keys()
    return _Sweep(order, kept, preds, def_blocks, exposed, names)


# ---------------------------------------------------------------------------
# Helpers shared by the psi transformations

def definition_formula(var: str, defs: dict[str, Instruction],
                       env: GuardEnv):
    """Domain under which `var` carries a defined value: the guard of its
    definition (looked up in `defs`, the function's definitions), the union
    of argument predicates for a psi, true for parameters and phis."""
    ins = defs.get(var)
    if ins is None or isinstance(ins, PhiInstr):
        return TRUE_EXPR
    if isinstance(ins, PsiInstr):
        return domain_union([env.pred_formula(p) for p, _ in ins.args])
    return env.pred_formula(ins.guard)


def _find_psi(func: Function, psi: PsiInstr):
    for block in func.blocks:
        if psi in block.body:
            return block, block.body.index(psi)
    raise ValueError("psi instruction not found in function")


def all_psis(func: Function) -> list[PsiInstr]:
    return [ins for _, ins in func.instructions() if isinstance(ins, PsiInstr)]


# ---------------------------------------------------------------------------
# Copy folding

def copy_fold(func: Function, env: GuardEnv) -> int:
    """Fold mov operations; returns the number of movs removed.

    Unpredicated `x = mov %y` is folded by substituting y for x everywhere,
    in one sweep: renaming makes no new mov.  A predicated `p? c = mov %a`
    can replace a psi argument `q? c` with `q? a` only when q is contained
    in p intersected with the domain of a's definition; the mov is deleted
    once dead.  That phase runs to a fixpoint, and only when the function
    has a predicated mov: before if-conversion it has none.
    """
    subst: dict[str, str] = {}
    removed = 0
    changed = False  # a predicated mov exists
    for block in func.blocks:
        kept = []
        for ins in block.body:
            if isinstance(ins, Instr) and ins.opcode == "mov":
                if ins.guard is not None:
                    changed = True
                elif isinstance(ins.operands[0], str):
                    subst[ins.dest] = ins.operands[0]
                    continue
            kept.append(ins)
        if len(kept) < len(block.body):
            removed += len(block.body) - len(kept)
            block.body[:] = kept
    if subst:
        def resolve(v: str) -> str:
            seen = set()
            while v in subst and v not in seen:
                seen.add(v)
                v = subst[v]
            return v
        for _, ins in func.instructions():
            if not subst.keys().isdisjoint(ins.uses()):
                rename_uses(ins, resolve)

    while changed:
        changed = False
        # Predicated movs: fold into psi arguments when provably contained.
        defs = func.defs()
        for psi in all_psis(func):
            for i, (q, c) in enumerate(psi.args):
                ins = defs.get(c)
                if not (isinstance(ins, Instr) and ins.opcode == "mov"
                        and ins.guard is not None
                        and isinstance(ins.operands[0], str)):
                    continue
                a = ins.operands[0]
                bound = env.pred_formula(ins.guard)
                src_domain = definition_formula(a, defs, env)
                if env.subset(env.pred_formula(q), And(bound, src_domain)):
                    psi.args[i] = (q, a)
                    changed = True
        # Drop predicated movs that became dead.
        used = {v for _, ins in func.instructions() for v in ins.uses()}
        for block in func.blocks:
            kept = [ins for ins in block.body
                    if not (isinstance(ins, Instr) and ins.opcode == "mov"
                            and ins.guard is not None
                            and ins.dest not in used)]
            if len(kept) < len(block.body):
                removed += len(block.body) - len(kept)
                block.body[:] = kept
                changed = True
    return removed


# ---------------------------------------------------------------------------
# Psi transformations

def dedupe_psi_args(psi: PsiInstr) -> None:
    """Collapse consecutive identical (pred, value) pairs; the left one is
    always overridden by its twin."""
    psi.args = psi.args[:1] + [arg for prev, arg in zip(psi.args, psi.args[1:])
                               if arg != prev]


def _splice(psi: PsiInstr, arg_index: int, inner: PsiInstr) -> None:
    """Replace a psi-defined argument by the arguments of its psi."""
    psi.args[arg_index:arg_index + 1] = list(inner.args)
    dedupe_psi_args(psi)


def psi_inline_all(cache: analysis.Analyses) -> int:
    """Inline psi-defined arguments, repeatedly, where the splice preserves
    evaluation: the inner predicates must be covered by the argument's own
    predicate united with the predicates to its right, otherwise an inner
    argument could shadow arguments to the left on paths where the outer
    predicate is false.  A constant-true argument predicate is always safe;
    other cases are proved with the guard env.  Splices change no
    definition, so the cache stays valid.  Returns splices."""
    count = 0
    defs, env = cache.defs, cache.env
    for psi in all_psis(cache.func):
        changed = True
        while changed:
            changed = False
            for i, (p, v) in enumerate(psi.args):
                inner = defs.get(v)
                if not isinstance(inner, PsiInstr) or inner is psi:
                    continue
                if not _inline_preserves_value(psi, i, inner, env):
                    continue
                _splice(psi, i, inner)
                count += 1
                changed = True
                break
    return count


def _inline_preserves_value(psi: PsiInstr, i: int, inner: PsiInstr,
                            env: GuardEnv) -> bool:
    if psi.args[i][0].is_true():
        return True
    inner_union = domain_union([env.pred_formula(p) for p, _ in inner.args])
    tail = domain_union([env.pred_formula(p) for p, _ in psi.args[i:]])
    return env.subset(inner_union, tail)


def psi_reduce(psi: PsiInstr, env: GuardEnv) -> int:
    """Drop arguments whose predicate domain is covered by the arguments to
    their right; left-to-right until fixpoint.  Returns removals."""
    removed = 0
    i = 0
    while i < len(psi.args) - 1:
        pi = env.pred_formula(psi.args[i][0])
        rest = domain_union([env.pred_formula(p) for p, _ in psi.args[i + 1:]])
        if env.subset(pi, rest):
            del psi.args[i]
            removed += 1
        else:
            i += 1
    return removed


def psi_reduce_all(func: Function, env: GuardEnv) -> int:
    return sum(psi_reduce(psi, env) for psi in all_psis(func))


def psi_project(func: Function, psi: PsiInstr, onto, env: GuardEnv) -> str:
    """New psi keeping only the arguments not provably disjoint with `onto`;
    the original is untouched.  Returns the new result variable."""
    kept = [(p, v) for p, v in psi.args
            if not env.disjoint(env.pred_formula(p), onto)]
    if not kept:
        raise EmptyProjection("projection removes every argument")
    new = NameAllocator(func).fresh(psi.dest)
    block, idx = _find_psi(func, psi)
    block.body.insert(idx + 1, PsiInstr(new, list(kept)))
    return new


def psi_promote(defs: dict[str, Instruction], psi: PsiInstr, arg_index: int,
                new_pred: Pred, env: GuardEnv, machine: MachineModel) -> None:
    """Widen one argument predicate, speculating its definition if needed;
    `defs` is the function's definitions.

    Refuses (leaving the function unchanged) unless the new predicate stays
    within the union of the predicates from this argument rightward, and the
    defining instruction covers the new predicate, possibly after dropping
    its guard when the machine allows the opcode to be speculated.
    """
    nf = env.pred_formula(new_pred)
    tail = domain_union([env.pred_formula(p) for p, _ in psi.args[arg_index:]])
    if not env.subset(nf, tail):
        raise ConditionViolated(2, f"%{psi.dest} argument {arg_index}")

    var = psi.args[arg_index][1]
    def_ins = defs.get(var)
    covered = env.subset(nf, definition_formula(var, defs, env))
    if not covered:
        if not (isinstance(def_ins, Instr) and def_ins.guard is not None
                and machine.speculatable(def_ins.opcode)):
            raise ConditionViolated(1, f"%{var} definition cannot cover "
                                       f"{new_pred}")
        # Speculation executes the definition more often; its operands must
        # already be defined there, or evaluation would trap.  Not its guard:
        # speculation drops it.
        for op in def_ins.operands:
            if isinstance(op, str) and not env.subset(
                    nf, definition_formula(op, defs, env)):
                raise ConditionViolated(1, f"operand %{op} of %{var} is not "
                                           f"defined under {new_pred}")
        def_ins.guard = None
    psi.args[arg_index] = (new_pred, var)


def psi_promote_pass(func: Function, env: GuardEnv,
                     machine: MachineModel) -> int:
    """Default promotion policy: raise the first argument of every psi to
    the constant-true predicate where the promotion conditions allow it."""
    promoted = 0
    defs = func.defs()  # speculation only drops guards: defs stay valid
    for psi in all_psis(func):
        if psi.args[0][0].is_true():
            continue
        try:
            psi_promote(defs, psi, 0, TRUE, env, machine)
            promoted += 1
        except ConditionViolated:
            pass
    return promoted


# ---------------------------------------------------------------------------
# Normalization predicate

def is_normalized(cache: analysis.Analyses, psi: PsiInstr) -> bool:
    """Both normalized-psi characteristics: each argument predicate equals
    the predicate domain of the argument's definition, and adjacent
    arguments are not inverted with respect to dominance order of their
    definitions (`analysis.order_inverted`, the normalizer's rule)."""
    defs, pos, dom, env = cache.defs, cache.positions, cache.dom, cache.env

    for p, v in psi.args:
        if not env.equal(env.pred_formula(p), definition_formula(v, defs, env)):
            return False
    return not any(
        analysis.order_inverted(dom, analysis.def_point(a, defs, pos),
                                analysis.def_point(b, defs, pos, resolved=True))
        for (_, a), (_, b) in zip(psi.args, psi.args[1:]))


# ---------------------------------------------------------------------------
# Select-form rewrite (oracle for liveness and evaluation)

def rewrite_psis_to_selects(func: Function) -> Function:
    """Rewrite each psi as a chain of select operations.

    Requires normalized psis whose first argument is unguarded and whose
    later arguments are defined by guarded, speculatable-shape plain
    instructions; this is the shape the equivalence argument covers.
    """
    func = func.clone()
    defs = func.defs()
    alloc = NameAllocator(func)
    for psi in all_psis(func):
        prev = psi.args[0][1]
        first_def = defs.get(prev)
        if isinstance(first_def, Instr) and first_def.guard is not None:
            raise ValueError("first psi argument must be unguarded")
        for p, v in psi.args[1:]:
            ins = defs.get(v)
            if not (isinstance(ins, Instr) and ins.guard is not None
                    and p.reg == ins.guard.reg
                    and p.positive == ins.guard.positive):
                raise ValueError("psi argument shape unsupported for rewrite")
            tmp = alloc.fresh(v)
            block = next(b for b in func.blocks if ins in b.body)
            idx = block.body.index(ins)
            cond = ins.guard
            ins.guard = None
            original_dest = ins.dest
            ins.dest = tmp
            then_v, else_v = (tmp, prev) if cond.positive else (prev, tmp)
            sel = Instr("select", original_dest,
                        [cond.reg, then_v, else_v])
            block.body.insert(idx + 1, sel)
            prev = original_dest
        block, idx = _find_psi(func, psi)
        block.body[idx] = Instr("mov", psi.dest, [prev])
    return func
