"""Three-phase conversion out of psi-SSA.

1. psi-normalize: make every psi satisfy the normalized form (argument
   predicates equal their definitions' guards, arguments ordered by the
   dominance order of their definitions), inserting predicated copies where
   the form is violated.  The order rule and the point where an argument
   dies are the psi rule's, asked of `analysis` (`order_inverted`,
   `def_point`, `arg_deaths`); `ssa.is_normalized` asks the same.
2. psi-congruence: grow congruence classes from psi operations, repairing
   live-range interference between class members with predicated copies.
3. phi-congruence: extend the same classes over phi operations, inserting
   copies in predecessor blocks or at block heads.

Renaming every congruence class to one representative and deleting the
phi/psi instructions then preserves the program's semantics; that property
is what the repairs establish and what the differential tests check.

`to_cssa` drops the unreachable blocks and builds the one `Analyses` the
phases share, and `rename_and_strip` asks it: a run builds one guard env
and one set of live ranges (`Analyses.live`), built after psi-normalize.
Both congruence phases work one way: decide which resources of a psi or
phi need a copy (`_conflicts` lists the interfering pairs of two
classes), insert the copies, then record them in one `live.update()`.
Psi-congruence records each psi's copies before it decides the next psi,
so its interference queries are exact.  Phi-congruence decides on the
liveness and interference of the function as the phase starts, plus its
own copies, each recorded with its source and its zone, and records them
in `live` when it ends; that keeps its decisions those of a graph built
once per phase (exact queries after each of its copies would change 6 of
400 generated outputs per machine, not all for the better: one gains 2
copies with every refinement off).  `class_interference`, which
`rename_and_strip` asks first, reuses the phases' answers for class pairs.

Every phase takes one `OutOfSsaOptions`, whose flags gate four refinements
that save copies: reorder disjoint arguments instead of copying; drop
interference edges between defs on disjoint guards; repair only the left
argument of an interfering pair; ignore interference with the psi result.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import analysis
from .analysis import PHI_KEY, Analyses, Point
from .ir import (Function, Instr, Instruction, PhiInstr, Pred, PsiInstr,
                 rename_uses)
from .predicates import guard_env_or_conservative  # noqa: F401
from .ssa import all_psis, definition_formula


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
    """A partition of variable names into congruence classes.  `rep` maps
    each name that a union touched to its class's representative, the
    smallest member; `_members` maps a representative to the sorted
    members of its class.  A name no union touched is its own class.  A
    union re-points each member of the merged class in `rep`, which costs
    no more than merging their sorted lists."""

    def __init__(self):
        self.rep: dict[str, str] = {}
        self._members: dict[str, list[str]] = {}

    def find(self, name: str) -> str:
        return self.rep.get(name, name)

    def union(self, a: str, b: str):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            merged = sorted(self._members.pop(ra, [ra])
                            + self._members.pop(rb, [rb]))
            self._members[merged[0]] = merged
            for member in merged:
                self.rep[member] = merged[0]

    def members(self, name: str) -> list[str]:
        """The members of `name`'s class, sorted; not to be changed."""
        return self._members.get(self.find(name)) or [name]

    def classes(self) -> list[list[str]]:
        """The classes of two or more members, by representative."""
        return [list(v) for _, v in sorted(self._members.items())]


def count_movs(func: Function) -> int:
    return sum(1 for _, ins in func.instructions()
               if isinstance(ins, Instr) and ins.opcode == "mov")


# ---------------------------------------------------------------------------
# Copy placement

def _insert_copy(cache: Analyses, point: Point, dest: str, src: str,
                 pred: Pred | None = None) -> Instr:
    """Insert `pred? dest = mov src` at program point `point` and record it
    in the cache; returns it."""
    guard = None if pred is None or pred.is_true() else pred
    mov = Instr("mov", dest, [src], guard)
    cache.insert(point, mov)
    return mov


def _place_arg_copy(cache: Analyses, psi: PsiInstr, idx: int, src: str,
                    pred: Pred, start=None) -> str:
    """Insert `pred? new = mov src` to stand in for psi argument idx.

    The copy goes to the program point `start`, by default just below
    src's definition (the head of its block for a phi, of the entry for a
    parameter), and below the definition of the predicate register if that
    is in the same block.
    When the argument dies in a block that the start dominates, a copy
    there would stay live across the intervening control flow (around a
    back edge, for a loop), defeating the repair, so the copy moves just
    above the death point.  If the predicate register is not defined at the
    chosen point, the copy falls back to just above the psi, where psi
    operands are always defined.
    """
    defs = cache.defs
    if start is None:
        ins = defs.get(src)
        start = ((cache.func.blocks[0], PHI_KEY) if ins is None
                 else cache.locate(ins))
    block, at = start
    reg = pred.reg
    if reg in defs:
        pins_block, pins_at = cache.locate(defs[reg])
        if pins_block is block:
            at = max(at, pins_at)
    # The last argument, and one followed by a parameter, dies at the psi.
    deaths = analysis.arg_deaths(psi, defs)
    death = deaths[idx][1] if idx < len(deaths) else None
    death = psi if death is None else death
    death_block, death_at = cache.locate(death)
    # Only when the argument dies below the start: an order-violated psi
    # can resolve the next argument above it, and the order repair that
    # follows moves the copy's range anyway.
    if (death_block is not block
            and cache.dom.dominates_block(block.label, death_block.label)):
        if isinstance(death, PhiInstr):
            # No copy goes above a phi; the end of the start block still
            # precedes every path from it into the phi's block.
            at = cache.locate(block.term)[1] - 1
        else:
            block, at = death_block, death_at - 1
    if reg is not None and not cache.defined_at(reg, (block, at)):
        block, at = cache.locate(psi)
        at -= 1
    new = cache.names.fresh(src)
    _insert_copy(cache, (block, at), new, src, pred)
    return new


def _rename_result(cache: Analyses, ins: PhiInstr | PsiInstr,
                   point: Point) -> Instr:
    """Rename `ins`'s result; returns `old = mov new`, put at `point`."""
    old = ins.dest
    ins.dest = new = cache.names.fresh(old)
    cache.defs[new] = ins
    return _insert_copy(cache, point, old, new)


# ---------------------------------------------------------------------------
# Phase 1: psi-normalize

def psi_normalize(cache: Analyses, opts: OutOfSsaOptions) -> int:
    """Restore the normalized form of every psi; returns copies inserted.

    Psis are visited top-down over the dominator tree so that psi-defined
    arguments are already normalized when their chains are resolved.
    """
    copies = 0
    for label in cache.dom.preorder():
        for ins in list(cache.blocks[label].body):
            if isinstance(ins, PsiInstr):
                copies += _normalize_one(cache, ins, opts)
    return copies


def _normalize_one(cache: Analyses, psi: PsiInstr,
                   opts: OutOfSsaOptions) -> int:
    env, defs, pos = cache.env, cache.defs, cache.positions
    copies = 0
    swaps_left = 4 * len(psi.args) * len(psi.args) + 8
    i = 0
    while i < len(psi.args):
        q, v = psi.args[i]
        if not env.equal(env.pred_formula(q),
                         definition_formula(v, defs, env)):
            new = _place_arg_copy(cache, psi, i, v, q)
            psi.args[i] = (q, new)
            copies += 1
            v = new
        if i + 1 < len(psi.args):
            q2, v2 = psi.args[i + 1]
            if analysis.order_inverted(
                    cache.dom, analysis.def_point(v, defs, pos),
                    analysis.def_point(v2, defs, pos, resolved=True)):
                if (opts.reorder_disjoint and swaps_left > 0
                        and env.preds_disjoint(q, q2)):
                    psi.args[i], psi.args[i + 1] = psi.args[i + 1], psi.args[i]
                    swaps_left -= 1
                    i = max(i - 1, 0)
                    continue
                new = _copy_for_order(cache, psi, i + 1, v, v2, q2)
                psi.args[i + 1] = (q2, new)
                copies += 1
        i += 1
    return copies


def _copy_for_order(cache: Analyses, psi: PsiInstr, arg_index: int, cur: str,
                    nxt: str, pred: Pred) -> str:
    """Copy `nxt` from just below the lower of the two definitions, so the
    copy follows `cur`'s.  Both dominate the psi, so one dominates the
    other, and `cur` is no parameter (`analysis.order_inverted`)."""
    defs = cache.defs
    lower = (cur if cache.defined_at(nxt, cache.positions[id(defs[cur])])
             else nxt)
    return _place_arg_copy(cache, psi, arg_index, nxt, pred,
                           cache.locate(defs[lower]))


# ---------------------------------------------------------------------------
# Phase 2: psi-congruence

def psi_congruence(cache: Analyses, classes: CongruenceClasses,
                   opts: OutOfSsaOptions) -> int:
    """Merge psi-referenced variables into congruence classes, repairing
    interferences with predicated copies; returns copies inserted.  Each
    psi's copies are recorded in `cache.live` before the next psi is
    decided, so every query is exact."""
    copies = 0
    for label in cache.dom.preorder():
        for ins in list(cache.blocks[label].body):
            if not isinstance(ins, PsiInstr):
                continue
            made = _psi_congruence_one(cache, ins, classes, opts)
            if made:
                cache.live.update(made, [ins])
                copies += len(made)
    return copies


def _conflicts(classes: CongruenceClasses, a: str, b: str, interferes):
    """The pairs (x, y) of a member x of a's class and a member y of b's
    that interfere; none when a and b share a class."""
    if classes.find(a) != classes.find(b):
        members_b = classes.members(b)
        for x in classes.members(a):
            for y in members_b:
                if interferes(x, y):
                    yield x, y


def _psi_congruence_one(cache: Analyses, psi: PsiInstr, classes,
                        opts) -> list[Instr]:
    """Decide which arguments of `psi` (and whether its result) need a
    copy, insert the copies and merge the classes; returns the copies."""
    live, refine = cache.live, opts.disjoint_interference

    def interferes(x: str, y: str) -> bool:
        return live.interferes(x, y, refine)

    n = len(psi.args)
    marked_args: set[int] = set()
    mark_result = False
    for i in range(n):
        for j in range(i + 1, n):
            hits = list(_conflicts(classes, psi.args[i][1], psi.args[j][1],
                                   interferes))
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
        hits = list(_conflicts(classes, psi.args[i][1], psi.dest,
                               interferes))
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

    copies: list[Instr] = []
    made: dict[tuple[Pred, str], str] = {}
    for i in sorted(marked_args):
        q, v = psi.args[i]
        if (q, v) not in made:
            made[q, v] = _place_arg_copy(cache, psi, i, v, q)
            copies.append(cache.defs[made[q, v]])
        psi.args[i] = (q, made[q, v])
    if mark_result:
        copies.append(_rename_result(cache, psi, cache.locate(psi)))

    for _, v in psi.args:
        classes.union(psi.args[0][1], v)
    classes.union(psi.args[0][1], psi.dest)
    return copies


# ---------------------------------------------------------------------------
# Phase 3: phi-congruence

def phi_congruence(cache: Analyses, classes: CongruenceClasses,
                   opts: OutOfSsaOptions) -> int:
    """Extend congruence classes over phis, Sreedhar-style; classes are the
    ones grown by psi-congruence, not a fresh partition.

    Every decision of the phase reads the liveness and interference of the
    function as the phase starts (psi rule still in force), plus the copies
    the phase has made, each recorded with its source and its zone;
    `cache.live` records the copies when the phase ends."""
    recorded: dict[str, list[tuple[str | None, tuple[str, bool]]]] = {}
    copies: list[Instr] = []
    changed: list[PhiInstr] = []
    for label in cache.dom.preorder():
        for phi in list(cache.blocks[label].phis):
            if _phi_congruence_one(cache, phi, label, recorded, copies,
                                   classes, opts):
                changed.append(phi)
    cache.live.update(copies, changed)
    return len(copies)


def _result_copy_point(cache: Analyses, block, var: str,
                       own: list[Instruction]) -> Point:
    """Program point for the copy that redefines phi result `var`: below
    the copies that earlier phases placed at the block head, but above the
    first one that reads `var` and above this phase's own copies (`own`).
    A psi argument copied at the head may have its synthetic use on the
    new copy, which must not precede the argument copy's definition."""
    point = (block, PHI_KEY)
    for ins in block.body:
        if (ins.opcode != "mov" or any(ins is c for c in own)
                or var in ins.uses()):
            break
        point = cache.locate(ins)
    return point


def _phi_congruence_one(cache: Analyses, phi: PhiInstr, label: str,
                        recorded: dict, copies: list[Instr],
                        classes, opts) -> bool:
    """Decide and insert `phi`'s copies, appending them to the phase's
    `copies` and recording each under its name with its source and its
    zone, and merge the classes; returns whether `phi` changed."""
    live = cache.live
    refine = opts.disjoint_interference

    def copied_over(x: str, y: str) -> bool:
        return any(y == source or live.live_at(y, *zone)
                   for source, zone in recorded.get(x, ()))

    def interferes(x: str, y: str) -> bool:
        return (copied_over(x, y) or copied_over(y, x)
                or live.interferes(x, y, refine))

    # The phi's resources: index 0 is the result, index i argument i - 1,
    # each with its zone: live-in at the phi's block or live-out at a pred.
    names = [phi.dest] + [v for _, v in phi.args]
    zones = [(label, False)] + [(p, True) for p, _ in phi.args]
    marked: set[int] = set()
    if opts.phi_naive:
        marked = set(range(len(names)))
    else:
        for a in range(len(names)):
            for b in range(a + 1, len(names)):
                if not any(_conflicts(classes, names[a], names[b],
                                      interferes)):
                    continue
                in_b = any(live.live_at(m, *zones[b])
                           for m in classes.members(names[a]))
                in_a = any(live.live_at(m, *zones[a])
                           for m in classes.members(names[b]))
                if in_b:
                    marked.add(a)
                if in_a:
                    marked.add(b)
                if not in_a and not in_b:
                    # Interference away from both merge points: isolating
                    # one resource is enough; prefer the argument copy.
                    marked.add(b if a == 0 else a)

    for r in sorted(marked):
        var = names[r]
        if r == 0:
            at = _result_copy_point(cache, cache.blocks[label], var, copies)
            copies.append(_rename_result(cache, phi, at))
            names[0] = phi.dest
        else:
            plbl = phi.args[r - 1][0]
            names[r] = cache.names.fresh(var)
            block, key = cache.locate(cache.blocks[plbl].term)
            copies.append(_insert_copy(cache, (block, key - 1), names[r], var))
            phi.args[r - 1] = (plbl, names[r])
            recorded.setdefault(var, []).append((None, zones[r]))
        recorded.setdefault(names[r], []).append((var, zones[r]))

    for var in names[1:]:
        classes.union(names[0], var)
    return bool(marked)


# ---------------------------------------------------------------------------
# Renaming out of SSA

def class_interference(cache: Analyses, classes: CongruenceClasses,
                       opts: OutOfSsaOptions) -> tuple[str, str] | None:
    """The first two distinct members of one class that interfere under the
    psi liveness rule (`cache.live`), or None.  Overlapping members that
    are copies of one common source carry the same value and are exempt:
    renamed, their copies degenerate to no-ops."""
    live, defs, refine = cache.live, cache.defs, opts.disjoint_interference

    def mov_root(v: str, cls: str | None = None) -> str:
        """Where `v`'s chain of movs starts, inside class `cls` if given."""
        seen = set()
        while v not in seen:
            seen.add(v)
            ins = defs.get(v)
            if (isinstance(ins, Instr) and ins.opcode == "mov"
                    and isinstance(ins.operands[0], str)
                    and (cls is None
                         or classes.find(ins.operands[0]) == cls)):
                v = ins.operands[0]
            else:
                break
        return v

    # A psi result never materializes as a write (the guarded definitions of
    # its arguments are the writes, and they are class members), so overlap
    # between a result and its own arguments is not a conflict.  Nor is it
    # through movs inside the class: renamed, they are no-ops, so a copy
    # made in the class writes nothing its source did not.
    # Built at the first pair that interferes; most checks find none.
    exempt = None
    for group in classes.classes():
        cls = classes.find(group[0])
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if not live.interferes(a, b, refine):
                    continue
                if exempt is None:
                    exempt = {frozenset((psi.dest, v)) for psi in
                              all_psis(cache.func) for _, v in psi.args}
                if (mov_root(a) != mov_root(b) and frozenset(
                        (mov_root(a, cls), mov_root(b, cls))) not in exempt):
                    return a, b
    return None


def rename_and_strip(cache: Analyses, classes: CongruenceClasses,
                     opts: OutOfSsaOptions) -> None:
    """Rename every congruence class of `cache.func` to its representative
    and delete all phi and psi instructions, once `class_interference`
    finds no two members of one class that interfere.  Only the members
    that are not their class's representative get a new name, and an
    instruction that names none of them stays as it is."""
    func = cache.func
    pair = class_interference(cache, classes, opts)
    if pair is not None:
        raise ClassInterferenceDetected(
            f"@{func.name}: %{pair[0]} and %{pair[1]} share a class but "
            "interfere")

    renamed = {member: rep for member, rep in classes.rep.items()
               if member != rep}
    func.params = [renamed.get(n, n) for n in func.params]
    func.guards = {renamed.get(n, n) for n in func.guards}
    for block in func.blocks:
        block.phis = []
        block.body = [ins for ins in block.body
                      if not isinstance(ins, PsiInstr)]
        for ins in block.body:
            _rename(ins, renamed)
        if block.term is not None:
            _rename(block.term, renamed)


def _rename(ins: Instr, renamed: dict[str, str]) -> None:
    """Rename what `ins` reads and defines; an instruction that names no
    renamed variable keeps its operand list and its guard."""
    guard = ins.guard
    if not (renamed.keys().isdisjoint(ins.operands)
            and (guard is None or guard.reg not in renamed)):
        rename_uses(ins, lambda name: renamed.get(name, name))
    if ins.dest in renamed:
        ins.dest = renamed[ins.dest]


# ---------------------------------------------------------------------------
# Driver

def to_cssa(func: Function, opts: OutOfSsaOptions
            ) -> tuple[Analyses, CongruenceClasses, tuple[int, int, int]]:
    """Drop the unreachable blocks of `func` and run the three phases on
    it in place, without the final renaming; returns the phases' cache,
    the congruence classes and the copies each phase inserted."""
    analysis.remove_unreachable(func)
    # The phases only insert copies, so one cache, and its name allocator,
    # serve all three.  Its live ranges are built after psi-normalize, on
    # first use, and record every later copy.
    cache = Analyses(func)
    n_normalize = psi_normalize(cache, opts)
    classes = CongruenceClasses()
    n_psi = psi_congruence(cache, classes, opts)
    n_phi = phi_congruence(cache, classes, opts)
    return cache, classes, (n_normalize, n_psi, n_phi)


def run_out_of_ssa(func: Function,
                   opts: OutOfSsaOptions | None = None) -> PassStats:
    """Run the three phases plus renaming, in place; returns the stats."""
    opts = opts or OutOfSsaOptions()
    cache, classes, copies = to_cssa(func, opts)
    rename_and_strip(cache, classes, opts)
    return PassStats(*copies, total_copies=count_movs(func))
