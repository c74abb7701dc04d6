"""Three-phase conversion out of psi-SSA.

1. psi-normalize: make every psi satisfy the normalized form (argument
   predicates equal their definitions' guards, arguments ordered by the
   dominance order of their definitions), inserting predicated copies where
   the form is violated.
2. psi-congruence: grow congruence classes from psi operations, repairing
   live-range interference between class members with predicated copies.
3. phi-congruence: extend the same classes over phi operations, inserting
   copies in predecessor blocks or at block heads.

Renaming every congruence class to one representative and deleting the
phi/psi instructions then preserves the program's semantics; that property
is what the repairs establish and what the differential tests check.

All four copy-reducing refinements are flag-gated: reordering disjoint
arguments instead of copying, dropping interference edges between defs on
disjoint guards, repairing only the left argument of an interfering pair,
and ignoring interference with the psi result.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import analysis
from .analysis import Analyses
from .ir import (Function, Instr, Instruction, NameAllocator, PhiInstr, Pred,
                 PsiInstr)
from .predicates import guard_env_or_conservative
from .ssa import definition_formula


class ClassInterferenceDetected(Exception):
    """Interfering variables ended up in one congruence class: upstream bug."""


@dataclass
class PassStats:
    copies_normalize: int = 0
    copies_psi_congruence: int = 0
    copies_phi_congruence: int = 0
    total_copies: int = 0

    def copies_inserted(self) -> int:
        return (self.copies_normalize + self.copies_psi_congruence
                + self.copies_phi_congruence)

    def add(self, other: "PassStats"):
        self.copies_normalize += other.copies_normalize
        self.copies_psi_congruence += other.copies_psi_congruence
        self.copies_phi_congruence += other.copies_phi_congruence
        self.total_copies += other.total_copies


@dataclass
class OutOfSsaOptions:
    reorder_disjoint: bool = True
    disjoint_interference: bool = True
    left_only: bool = True
    ignore_result: bool = True
    phi_naive: bool = False


class CongruenceClasses:
    """Union-find over variable names, representative = smallest name.
    Each representative keeps the list of its class's members."""

    def __init__(self, names=()):
        self.parent: dict[str, str] = {}
        self._members: dict[str, list[str]] = {}
        for n in names:
            self.add(n)

    def add(self, name: str):
        if name not in self.parent:
            self.parent[name] = name
            self._members[name] = [name]

    def find(self, name: str) -> str:
        self.add(name)
        root = name
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[name] != root:
            self.parent[name], name = root, self.parent[name]
        return root

    def union(self, a: str, b: str):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            low, high = min(ra, rb), max(ra, rb)
            self.parent[high] = low
            self._members[low].extend(self._members.pop(high))

    def members(self, name: str) -> list[str]:
        return sorted(self._members[self.find(name)])

    def classes(self) -> list[list[str]]:
        return [sorted(v) for _, v in sorted(self._members.items())]

    def representative(self, name: str) -> str:
        return self.find(name)


def count_movs(func: Function) -> int:
    return sum(1 for _, ins in func.instructions()
               if isinstance(ins, Instr) and ins.opcode == "mov")


# ---------------------------------------------------------------------------
# Copy placement

def _insert_copy(cache: Analyses, block, at: int, dest: str, src: str,
                 pred: Pred | None = None) -> None:
    """Insert `pred? dest = mov src` at block.body[at] and record it."""
    guard = None if pred is None or pred.is_true() else pred
    mov = Instr("mov", dest, [src], guard)
    block.body.insert(at, mov)
    cache.inserted(block, mov)


def _arg_death_instr(defs, psi: PsiInstr, idx: int):
    """The instruction where psi argument idx dies: the (chain-resolved)
    definition of the next argument, or the psi itself for the last one."""
    if idx + 1 < len(psi.args):
        head = analysis.resolve_psi_chain(psi.args[idx + 1][1], defs)
        ins = defs.get(head)
        if ins is not None:
            return ins
    return psi


def _place_arg_copy(cache: Analyses, psi: PsiInstr, idx: int, src: str,
                    pred: Pred, alloc: NameAllocator,
                    anchor=None) -> str:
    """Insert `pred? new = mov src` to stand in for psi argument idx.

    The natural spot is just below the anchor (default: src's definition;
    phi definitions and parameters anchor at the head of their block).
    When the anchor lies in a different block than the point where the
    argument dies, a copy there would stay live across the intervening
    control flow (around a back edge, for a loop), defeating the repair,
    so the copy moves just above the death point.  If the predicate
    register is not available at the chosen spot the copy falls back to
    just above the psi, where psi operands are always available.
    """
    defs = cache.defs
    if anchor is None:
        anchor = defs.get(src)
    death = _arg_death_instr(defs, psi, idx)
    if anchor is None:
        block, at = cache.func.blocks[0], 0
    else:
        block, at = cache.locate(anchor)
    if pred.reg is not None:
        pins = defs.get(pred.reg)
        if pins is not None and not isinstance(pins, PhiInstr):
            pins_block, pins_at = cache.locate(pins)
            if pins_block is block and pins_at > at:
                at = pins_at
    death_block, death_at = cache.locate(death)
    anchor_pos = ((block.label, 0) if anchor is None
                  else cache.positions[id(anchor)])
    death_pos = (death_block.label, death_at)
    # Only meaningful when the argument actually dies below its anchor; an
    # order-violated psi can resolve the next argument above it, and the
    # order repair that follows will re-anchor the range anyway.
    if (death_block.label != block.label
            and cache.dom.dominates_pos(anchor_pos, death_pos)):
        if isinstance(death, PhiInstr):
            # Cannot slot a copy above a phi; the end of the anchor block
            # still precedes every path into the phi's block.
            at = len(block.body)
        else:
            block, at = death_block, death_at - 1
    if pred.reg is not None and not _defined_at(cache, pred.reg, block, at):
        block, at = cache.locate(psi)
        at -= 1
    new = alloc.fresh(src)
    _insert_copy(cache, block, at, new, src, pred)
    return new


def _defined_at(cache: Analyses, var: str, block, idx: int) -> bool:
    """Does var's definition dominate the program point just before
    block.body[idx]?"""
    ins = cache.defs.get(var)
    if ins is None:
        return True  # parameter
    dpos = cache.positions.get(id(ins))
    if dpos is None:
        return False
    return cache.dom.dominates_pos(dpos, (block.label, idx), strict=False)


# ---------------------------------------------------------------------------
# Phase 1: psi-normalize

def psi_normalize(cache: Analyses, reorder_disjoint: bool = True) -> int:
    """Restore the normalized form of every psi; returns copies inserted.

    Psis are visited top-down over the dominator tree so that psi-defined
    arguments are already normalized when their chains are resolved.
    """
    copies = 0
    alloc = NameAllocator(cache.func)
    for label in cache.dom.preorder():
        for ins in list(cache.blocks[label].body):
            if isinstance(ins, PsiInstr):
                copies += _normalize_one(cache, ins, reorder_disjoint, alloc)
    return copies


def _def_point(cache: Analyses, var: str, resolved: bool):
    defs = cache.defs
    target = analysis.resolve_psi_chain(var, defs) if resolved else var
    ins = defs.get(target)
    if ins is None:
        return None  # parameter: defined before everything
    return cache.positions[id(ins)]


def _normalize_one(cache: Analyses, psi: PsiInstr, reorder_disjoint: bool,
                   alloc: NameAllocator) -> int:
    env, dom = cache.env, cache.dom
    copies = 0
    swaps_left = 4 * len(psi.args) * len(psi.args) + 8
    i = 0
    while i < len(psi.args):
        q, v = psi.args[i]
        if not env.equal(env.pred_formula(q),
                         definition_formula(v, cache.defs, env)):
            new = _place_arg_copy(cache, psi, i, v, q, alloc)
            psi.args[i] = (q, new)
            copies += 1
            v = new
        if i + 1 < len(psi.args):
            q2, v2 = psi.args[i + 1]
            p_cur = _def_point(cache, v, resolved=False)
            p_next = _def_point(cache, v2, resolved=True)
            inverted = (p_cur is not None
                        and (p_next is None
                             or (p_next != p_cur
                                 and dom.dominates_pos(p_next, p_cur,
                                                       strict=True))))
            if inverted:
                if (reorder_disjoint and swaps_left > 0
                        and env.disjoint(env.pred_formula(q),
                                         env.pred_formula(q2))):
                    psi.args[i], psi.args[i + 1] = psi.args[i + 1], psi.args[i]
                    swaps_left -= 1
                    i = max(i - 1, 0)
                    continue
                new = _copy_for_order(cache, psi, i + 1, v, v2, q2, alloc)
                psi.args[i + 1] = (q2, new)
                copies += 1
        i += 1
    return copies


def _copy_for_order(cache: Analyses, psi: PsiInstr, arg_index: int, cur: str,
                    nxt: str, pred: Pred, alloc: NameAllocator) -> str:
    """Copy `nxt` anchored at the lower of the two definitions (or just
    above the psi when they are incomparable) so the copy follows `cur`'s
    definition."""
    defs, dom, pos = cache.defs, cache.dom, cache.positions
    cur_ins, nxt_ins = defs.get(cur), defs.get(nxt)
    cur_pos = None if cur_ins is None else pos[id(cur_ins)]
    nxt_pos = None if nxt_ins is None else pos[id(nxt_ins)]
    anchor = None
    if cur_pos is not None and (
            nxt_pos is None or dom.dominates_pos(nxt_pos, cur_pos)):
        anchor = cur_ins
    elif nxt_pos is not None and (
            cur_pos is None or dom.dominates_pos(cur_pos, nxt_pos)):
        anchor = nxt_ins
    if anchor is not None:
        return _place_arg_copy(cache, psi, arg_index, nxt, pred, alloc,
                               anchor=anchor)
    # Incomparable definitions: both dominate the psi itself, so a copy
    # immediately above it follows both.
    block, at = cache.locate(psi)
    new = alloc.fresh(nxt)
    _insert_copy(cache, block, at - 1, new, nxt, pred)
    return new


# ---------------------------------------------------------------------------
# Phase 2: psi-congruence

def psi_congruence(cache: Analyses, live: analysis.LivenessInfo,
                   graph: analysis.InterferenceGraph,
                   classes: CongruenceClasses,
                   opts: OutOfSsaOptions) -> int:
    """Merge psi-referenced variables into congruence classes, repairing
    interferences with predicated copies; returns copies inserted."""
    copies = 0
    alloc = NameAllocator(cache.func)
    for label in cache.dom.preorder():
        for ins in list(cache.blocks[label].body):
            if not isinstance(ins, PsiInstr):
                continue
            copies += _psi_congruence_one(cache, ins, graph, classes, opts,
                                          alloc)
    return copies


def _class_pair_interferes(graph, classes, a, b) -> bool:
    if classes.find(a) == classes.find(b):
        return False
    return graph.classes_interfere(classes.members(a), classes.members(b))


def _interference_witnesses(graph, classes, a, b):
    if classes.find(a) == classes.find(b):
        return []
    out = []
    for x in classes.members(a):
        nx = graph.neighbors(x)
        for y in classes.members(b):
            if y in nx:
                out.append((x, y))
    return out


def _psi_congruence_one(cache: Analyses, psi: PsiInstr, graph, classes,
                        opts, alloc) -> int:
    n = len(psi.args)
    marked_args: set[int] = set()
    mark_result = False
    for i in range(n):
        for j in range(i + 1, n):
            hits = _interference_witnesses(graph, classes,
                                           psi.args[i][1], psi.args[j][1])
            if not hits:
                continue
            marked_args.add(i)
            # Copying the left argument detaches its whole class from the
            # merge, which is enough when the conflicts involve only the
            # right argument itself; conflicts with other members of the
            # right class survive a left copy, so the right argument must
            # be detached too.
            if not opts.left_only or any(y != psi.args[j][1]
                                         for _, y in hits):
                marked_args.add(j)
    arg_values = {v for _, v in psi.args}
    for i in range(n):
        hits = _interference_witnesses(graph, classes, psi.args[i][1],
                                       psi.dest)
        if not hits:
            continue
        own = any(x == psi.args[i][1] for x, _ in hits)
        # A conflict between the result and a class mate of the argument
        # that is not itself part of this psi is outside the two ignorable
        # result cases; only detaching the argument's class removes it.
        if any(x != psi.args[i][1] and x not in arg_values for x, _ in hits):
            marked_args.add(i)
        if own and not opts.ignore_result:
            marked_args.add(i)
            mark_result = True

    copies = 0
    renames: list[tuple[str, str]] = []  # (original, new)
    made: dict[tuple[Pred, str], str] = {}
    for i in sorted(marked_args):
        q, v = psi.args[i]
        if (q, v) not in made:
            made[q, v] = _place_arg_copy(cache, psi, i, v, q, alloc)
            renames.append((v, made[q, v]))
            copies += 1
        psi.args[i] = (q, made[q, v])
    if mark_result:
        old = psi.dest
        new = alloc.fresh(old)
        psi.dest = new
        cache.defs[new] = psi
        block, idx = cache.locate(psi)
        _insert_copy(cache, block, idx, old, new)
        renames.append((old, new))
        copies += 1

    for _, v in psi.args:
        classes.union(psi.args[0][1], v)
    classes.union(psi.args[0][1], psi.dest)

    # Conservative graph update: a new variable inherits the interferences
    # of the variable it copies, except those now inside its own class, and
    # always interferes with the original.
    cls = set(classes.members(psi.dest))
    for old, new in renames:
        for nb in list(graph.neighbors(old)):
            if nb not in cls:
                graph.add_edge(new, nb)
        graph.add_edge(old, new)
    return copies


# ---------------------------------------------------------------------------
# Phase 3: phi-congruence

def phi_congruence(cache: Analyses, classes: CongruenceClasses,
                   opts: OutOfSsaOptions) -> int:
    """Extend congruence classes over phis, Sreedhar-style.  Liveness is
    recomputed here with the psi rule still in force; classes are the ones
    grown by psi-congruence, not a fresh partition."""
    live = analysis.liveness(cache.func)
    graph = analysis.interference_graph(
        cache.func, live, cache.env, refine_disjoint=opts.disjoint_interference)
    copies = 0
    alloc = NameAllocator(cache.func)
    for label in cache.dom.preorder():
        for phi in list(cache.blocks[label].phis):
            copies += _phi_congruence_one(cache, phi, label, live, graph,
                                          classes, opts, alloc)
    return copies


def _phi_congruence_one(cache: Analyses, phi: PhiInstr, label: str, live,
                        graph, classes, opts, alloc) -> int:
    # Resources: ('res', None) plus ('arg', index) entries.
    resources: list[tuple[str, int | None, str]] = [("res", None, phi.dest)]
    for idx, (plbl, v) in enumerate(phi.args):
        resources.append(("arg", idx, v))

    def zone(kind, idx) -> frozenset:
        if kind == "res":
            return live.live_in[label]
        return live.live_out[phi.args[idx][0]]

    marked: set[int] = set()  # indexes into `resources`
    if opts.phi_naive:
        marked = set(range(len(resources)))
    else:
        for a in range(len(resources)):
            for b in range(a + 1, len(resources)):
                ka, ia, va = resources[a]
                kb, ib, vb = resources[b]
                if classes.find(va) == classes.find(vb):
                    continue
                if not graph.classes_interfere(classes.members(va),
                                               classes.members(vb)):
                    continue
                in_b = any(m in zone(kb, ib) for m in classes.members(va))
                in_a = any(m in zone(ka, ia) for m in classes.members(vb))
                if in_b:
                    marked.add(a)
                if in_a:
                    marked.add(b)
                if not in_a and not in_b:
                    # Interference away from both merge points: isolating
                    # one resource is enough; prefer the argument copy.
                    marked.add(b if ka == "res" else a)

    copies = 0
    for r in sorted(marked):
        kind, idx, var = resources[r]
        if kind == "res":
            new = alloc.fresh(var)
            phi.dest = new
            cache.defs[new] = phi
            _insert_copy(cache, cache.blocks[label], 0, var, new)
            for nb in set(live.live_in[label]) | {var}:
                graph.add_edge(new, nb)
            resources[r] = (kind, idx, new)
        else:
            plbl, v = phi.args[idx]
            new = alloc.fresh(v)
            pred_block = cache.blocks[plbl]
            _insert_copy(cache, pred_block, len(pred_block.body), new, v)
            phi.args[idx] = (plbl, new)
            for nb in set(live.live_out[plbl]) | {v}:
                graph.add_edge(new, nb)
            for nb in live.live_out[plbl]:
                graph.add_edge(v, nb)
            resources[r] = (kind, idx, new)
        copies += 1

    first = resources[0][2]
    for _, _, var in resources[1:]:
        classes.union(first, var)
    return copies


# ---------------------------------------------------------------------------
# Renaming out of SSA

def rename_and_strip(func: Function, classes: CongruenceClasses,
                     refine_disjoint: bool = True) -> None:
    """Rename every congruence class to its representative and delete all
    phi and psi instructions.  Verifies first that no two distinct class
    members interfere (under the psi liveness rule); overlapping members
    that are copies of one common source carry the same value and are
    exempt, their renamed copies degenerate to no-ops."""
    env = guard_env_or_conservative(func)
    live = analysis.liveness(func)
    graph = analysis.interference_graph(func, live, env,
                                        refine_disjoint=refine_disjoint)
    defs = func.defs()

    def mov_root(v: str) -> str:
        seen = set()
        while v not in seen:
            seen.add(v)
            ins = defs.get(v)
            if (isinstance(ins, Instr) and ins.opcode == "mov"
                    and isinstance(ins.operands[0], str)):
                v = ins.operands[0]
            else:
                break
        return v

    # A psi result never materializes as a write (the guarded definitions of
    # its arguments are the writes, and they are class members), so overlap
    # between a result and its own arguments is not a conflict.
    exempt: set[frozenset[str]] = set()
    for _, ins in func.instructions():
        if isinstance(ins, PsiInstr):
            for _, v in ins.args:
                exempt.add(frozenset((ins.dest, v)))

    for group in classes.classes():
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if not graph.interferes(a, b):
                    continue
                if frozenset((a, b)) in exempt or mov_root(a) == mov_root(b):
                    continue
                raise ClassInterferenceDetected(
                    f"@{func.name}: %{a} and %{b} share a class but "
                    "interfere")

    def rep(v: str) -> str:
        return classes.representative(v)

    func.params = [(rep(n), k) for n, k in func.params]
    func.guard_decls = {rep(n) for n in func.guard_decls}
    for block in func.blocks:
        block.phis = []
        new_body = []
        for ins in block.body:
            if isinstance(ins, PsiInstr):
                continue
            _rename_instr(ins, rep)
            new_body.append(ins)
        block.body = new_body
        if block.term is not None:
            _rename_instr(block.term, rep)


def _rename_instr(ins: Instruction, rep):
    if isinstance(ins, PhiInstr):
        ins.dest = rep(ins.dest)
        ins.args = [(l, rep(v)) for l, v in ins.args]
        return
    if isinstance(ins, PsiInstr):
        ins.dest = rep(ins.dest)
        ins.args = [(Pred(rep(p.reg), p.positive) if p.reg else p, rep(v))
                    for p, v in ins.args]
        return
    if ins.guard is not None:
        ins.guard = Pred(rep(ins.guard.reg), ins.guard.positive)
    if ins.dest is not None:
        ins.dest = rep(ins.dest)
    if ins.opcode == "br":
        ins.operands[0] = rep(ins.operands[0])
    elif ins.opcode != "goto":
        ins.operands = [rep(o) if isinstance(o, str) else o
                        for o in ins.operands]


# ---------------------------------------------------------------------------
# Driver

def run_out_of_ssa(func: Function,
                   opts: OutOfSsaOptions | None = None) -> PassStats:
    """Run the three phases plus renaming, in place; returns the stats."""
    opts = opts or OutOfSsaOptions()
    stats = PassStats()
    analysis.remove_unreachable(func)
    # The phases only insert copies, so one cache serves all three.
    cache = Analyses(func)
    stats.copies_normalize = psi_normalize(cache, opts.reorder_disjoint)

    live = analysis.liveness(func)
    graph = analysis.interference_graph(
        func, live, cache.env, refine_disjoint=opts.disjoint_interference)
    classes = CongruenceClasses(func.var_names())
    stats.copies_psi_congruence = psi_congruence(cache, live, graph,
                                                 classes, opts)
    stats.copies_phi_congruence = phi_congruence(cache, classes, opts)

    rename_and_strip(func, classes, refine_disjoint=opts.disjoint_interference)
    stats.total_copies = count_movs(func)
    return stats
