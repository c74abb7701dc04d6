"""CFG analyses: dominator tree, liveness with the psi rule, interference,
and the per-function cache the transformations share.

The psi liveness rule: in a normalized psi, argument i is used at the
definition point of argument i+1 (looking through psi-defined arguments to
their first non-psi definition); the last argument is used at the psi
itself.  This matches the live ranges of the equivalent select-form
rewrite and makes "no interference" coincide with "safe to rename into
one variable".  The rule lives here only, in three helpers that every
module asks: `arg_deaths` (where each argument dies), `def_point` (where a
variable is defined, through its psi chain or not) and `order_inverted`
(whether two adjacent arguments are out of dominance order, the normalized
form's second condition).

`Analyses` computes the definitions, the block map, the predecessors, the
dominator tree, the instruction positions, the guard env and the live
ranges of one function on first use and keeps them while the function
changes.  SSA construction, SSA validation, if-conversion, psi inlining,
out-of-SSA and `ssa.is_normalized` read their analyses from one
`Analyses`.  A pass that mutates the function keeps them correct by one
rule, so none is computed twice:

- if-converting a region records the folding of its arms and merge into
  the head: call `linearized()`.  The new `not`/`and` temporaries and the
  psis that replace the merge phis become definitions; the folded labels
  leave the block map, the predecessors and the dominator tree; the
  merge's successors, now the head's, name the head as their predecessor
  instead of the merge, and the merge's dominator children become the
  head's, one level shallower; the removed instructions (phis, the head's
  branch, the arms' gotos) leave the positions and the head's are
  re-derived.  The guard env
  defines the temporaries by its one rule, `GuardEnv.define`, as `Not(f)`
  and `And(f, g)`; a psi keeps its phi's formula, a fresh symbol either
  way, and moving or re-guarding an instruction changes no formula.
  Queries are exact truth tables, so the numbering of symbols cannot
  change an answer;
- inserting a copy records its definition and re-derives the positions of
  the block it went into: call `inserted()`.  The dominator tree stays
  valid, and so does the guard env: a copy defines a fresh name and
  changes the formula of no existing guard register, and no copy is used
  as a guard before the final renaming.  The live ranges are updated by
  `live.update()`, which names the new copy, the phi or psi whose argument
  or result it replaced, and a result now defined elsewhere.  It
  re-explores only the variables whose uses or definition changed: the
  copied source and the new name, a renamed result, and each earlier psi
  argument whose synthetic use point moved, in the changed psi and in
  every psi whose argument chain runs through a variable defined anew
  (an index maps each variable to the psis that use it);
- splicing psi arguments changes nothing computed: no definition, no
  guard formula and no CFG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .ir import Block, Function, Instr, Instruction, PhiInstr, Pred, PsiInstr
from .predicates import GuardEnv, guard_env_or_conservative


def reachable_blocks(func: Function) -> list[str]:
    """The blocks reachable from the entry, in reverse postorder of a
    depth-first walk that visits successors in order; iterative, so chains
    of any depth are fine."""
    blocks = func.block_map()
    seen = {func.entry}
    order: list[str] = []
    stack = [(func.entry, iter(blocks[func.entry].successors()))]
    while stack:
        label, succs = stack[-1]
        for s in succs:
            if s not in seen:
                seen.add(s)
                stack.append((s, iter(blocks[s].successors())))
                break
        else:
            stack.pop()
            order.append(label)
    order.reverse()
    return order


def remove_unreachable(func: Function) -> list[str]:
    """Drop unreachable blocks; returns the labels removed."""
    keep = set(reachable_blocks(func))
    dropped = [b.label for b in func.blocks if b.label not in keep]
    if dropped:
        func.blocks = [b for b in func.blocks if b.label in keep]
        for block in func.blocks:
            for phi in block.phis:
                phi.args = [(l, v) for l, v in phi.args if l in keep]
    return dropped


class DomTree:
    """Immediate dominators, children in reverse postorder (`order`), and
    an instruction-level dominance query."""

    def __init__(self, idom: dict[str, str | None], order: list[str]):
        self.idom = idom
        self.entry = order[0]
        self.depth: dict[str, int] = {}
        for label in order:
            parent = idom[label]
            self.depth[label] = 0 if parent is None else self.depth[parent] + 1
        self.children: dict[str, list[str]] = {l: [] for l in order}
        for label in order:
            parent = idom[label]
            if parent is not None:
                self.children[parent].append(label)

    def dominates_block(self, a: str, b: str) -> bool:
        while self.depth.get(b, -1) > self.depth.get(a, -1):
            b = self.idom[b]
        return a == b

    def dominates_pos(self, a: tuple[str, int], b: tuple[str, int],
                      strict: bool = False) -> bool:
        """Does program point a dominate point b?  Points are (block, slot);
        within one block the earlier instruction dominates the later."""
        if a[0] == b[0]:
            return a[1] < b[1] if strict else a[1] <= b[1]
        return self.dominates_block(a[0], b[0])

    def fold(self, head: str, merge: str, removed: list[str]) -> None:
        """Drop the labels `removed` (a region's arms and its merge, which
        `head` immediately dominates); the merge's children become the
        head's, and the head had no others: every path out of the head
        runs through the merge.  Dominance between the remaining blocks is
        unchanged."""
        moved = self.children[merge]
        for label in removed:
            del self.idom[label], self.depth[label], self.children[label]
        self.children[head] = moved
        for child in moved:
            self.idom[child] = head
        stack = list(moved)
        while stack:
            label = stack.pop()
            self.depth[label] -= 1
            stack.extend(self.children[label])

    def preorder(self) -> list[str]:
        out = []
        stack = [self.entry]
        while stack:
            label = stack.pop()
            out.append(label)
            stack.extend(reversed(self.children[label]))
        return out


def dominator_tree(func: Function, preds: dict[str, list[str]]) -> DomTree:
    """Iterative RPO dataflow over reachable blocks; `preds` is
    `func.predecessors()`."""
    order = reachable_blocks(func)
    index = {l: i for i, l in enumerate(order)}
    idom: dict[str, str | None] = {order[0]: None}

    def intersect(a: str, b: str) -> str:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for label in order[1:]:
            candidates = [p for p in preds[label] if p in idom]
            if not candidates:
                continue
            new = candidates[0]
            for p in candidates[1:]:
                new = intersect(new, p)
            if idom.get(label) != new:
                idom[label] = new
                changed = True
    return DomTree(idom, order)


def dominance_frontiers(cache: Analyses) -> dict[str, set[str]]:
    """Each reachable block's dominance frontier.  A branch to the entry
    makes it a join: control also enters it from outside the function."""
    dom, preds = cache.dom, cache.preds
    df: dict[str, set[str]] = {l: set() for l in dom.idom}
    for label in dom.idom:
        ps = [p for p in preds[label] if p in dom.depth]
        if len(ps) < (1 if label == dom.entry else 2):
            continue
        for p in ps:
            runner = p
            while runner != dom.idom[label]:
                df[runner].add(label)
                runner = dom.idom[runner]
    return df


def instr_positions(func: Function) -> dict[int, tuple[str, int]]:
    """Map id(instruction) -> (block label, slot).  Phis share slot 0 of
    their block: they define in parallel at the block head."""
    pos: dict[int, tuple[str, int]] = {}
    for block in func.blocks:
        _block_positions(block, pos)
    return pos


def _block_positions(block: Block, pos: dict[int, tuple[str, int]]) -> None:
    for phi in block.phis:
        pos[id(phi)] = (block.label, 0)
    slot = 1
    for ins in block.body:
        pos[id(ins)] = (block.label, slot)
        slot += 1
    if block.term is not None:
        pos[id(block.term)] = (block.label, slot)


class Analyses:
    """Analyses of one function, each computed on first use and updated in
    place by the passes that change the function (module docstring)."""

    def __init__(self, func: Function):
        self.func = func

    @cached_property
    def defs(self) -> dict[str, Instruction]:
        return self.func.defs()

    @cached_property
    def blocks(self) -> dict[str, Block]:
        return self.func.block_map()

    @cached_property
    def preds(self) -> dict[str, list[str]]:
        """`Function.predecessors()`; once a region is folded, a list may
        leave block order (the head takes the merge's place)."""
        return self.func.predecessors()

    @cached_property
    def dom(self) -> "DomTree":
        return dominator_tree(self.func, self.preds)

    @cached_property
    def positions(self) -> dict[int, tuple[str, int]]:
        return instr_positions(self.func)

    @cached_property
    def env(self) -> GuardEnv:
        return guard_env_or_conservative(self.func)

    @cached_property
    def live(self) -> "LiveRanges":
        return LiveRanges(self)

    def locate(self, ins: Instruction) -> tuple[Block, int]:
        """The block holding `ins` and its slot (body index + 1; 0 for a
        phi)."""
        label, slot = self.positions[id(ins)]
        return self.blocks[label], slot

    def inserted(self, block: Block, ins: Instruction) -> None:
        """Record `ins`, just inserted into `block`, in what is computed."""
        computed = self.__dict__
        if ins.dest is not None and "defs" in computed:
            computed["defs"][ins.dest] = ins
        if "positions" in computed:
            _block_positions(block, computed["positions"])

    def linearized(self, head: Block, merge: str, removed: list[str],
                   dropped: list[Instruction],
                   added: list[Instruction]) -> None:
        """Record an if-conversion: the blocks `removed` (the arms and the
        merge `merge`) now live in `head`, the instructions `dropped` are
        gone, and `added` (in order) are new definitions."""
        computed = self.__dict__
        if "defs" in computed:
            defs = computed["defs"]
            for ins in added:
                defs[ins.dest] = ins
        if "blocks" in computed:
            for label in removed:
                del computed["blocks"][label]
        if "positions" in computed:
            pos = computed["positions"]
            for ins in dropped:
                del pos[id(ins)]
            _block_positions(head, pos)
        if "preds" in computed:
            preds = computed["preds"]
            for label in removed:
                del preds[label]
            for label in head.successors():
                preds[label] = [head.label if p == merge else p
                                for p in preds[label]]
        if "dom" in computed:
            computed["dom"].fold(head.label, merge, removed)
        if "env" in computed:
            for ins in added:
                if ins.opcode in ("not", "and"):
                    computed["env"].define(ins)


def resolve_psi_chain(var: str, defs: dict[str, Instruction]) -> str:
    """First non-psi definition reached through leading psi arguments."""
    seen = set()
    while var in defs and isinstance(defs[var], PsiInstr) and var not in seen:
        seen.add(var)
        var = defs[var].args[0][1]
    return var


def def_point(var: str, defs: dict[str, Instruction],
              positions: dict[int, tuple[str, int]],
              resolved: bool = False) -> tuple[str, int] | None:
    """Where `var` is defined (through its psi chain if `resolved`); None
    for a parameter, which is defined before everything."""
    ins = defs.get(resolve_psi_chain(var, defs) if resolved else var)
    return None if ins is None else positions[id(ins)]


def arg_deaths(psi: PsiInstr, defs: dict[str, Instruction]
               ) -> list[tuple[str, Instruction | None]]:
    """For each argument of `psi` but the last, the argument and the
    instruction where it dies: the chain-resolved definition of the next
    argument, or None when that is a parameter."""
    return [(arg, defs.get(resolve_psi_chain(nxt, defs)))
            for (_, arg), (_, nxt) in zip(psi.args, psi.args[1:])]


def order_inverted(dom: DomTree, cur: tuple[str, int] | None,
                   nxt: tuple[str, int] | None) -> bool:
    """Are adjacent psi arguments out of dominance order?  `cur` is the
    left argument's own definition point and `nxt` the right argument's
    chain-resolved one (`def_point`)."""
    return cur is not None and (nxt is None or (
        nxt != cur and dom.dominates_pos(nxt, cur, strict=True)))


@dataclass
class LivenessInfo:
    live_in: dict[str, frozenset[str]]
    live_out: dict[str, frozenset[str]]
    # Extra uses attached to an instruction id by the psi rule.
    synthetic_uses: dict[int, list[str]] = field(default_factory=dict)

    def dump(self) -> str:
        lines = []
        for label in sorted(self.live_in):
            li = " ".join(sorted(self.live_in[label]))
            lo = " ".join(sorted(self.live_out[label]))
            lines.append(f"{label}: in[{li}] out[{lo}]")
        return "\n".join(lines) + "\n"


def _instr_uses(ins: Instruction, synthetic: dict[int, list[str]]) -> list[str]:
    if isinstance(ins, PhiInstr):
        uses = []  # phi args are uses in the predecessors
    elif isinstance(ins, PsiInstr):
        # The psi itself uses only its last argument plus the predicate
        # registers; earlier arguments die at their synthetic use points.
        uses = [v for v in (p.reg for p, _ in ins.args) if v is not None]
        uses.append(ins.args[-1][1])
    else:
        uses = ins.uses()
    uses.extend(synthetic.get(id(ins), ()))
    return uses


def psi_synthetic_uses(func: Function) -> dict[int, list[str]]:
    defs = func.defs()
    synthetic: dict[int, list[str]] = {}
    for _, ins in func.instructions():
        if isinstance(ins, PsiInstr):
            for arg, target in arg_deaths(ins, defs):
                if target is not None:  # a parameter: dies at entry scope
                    synthetic.setdefault(id(target), []).append(arg)
    return synthetic


def liveness(func: Function) -> LivenessInfo:
    """Backward dataflow with the psi rule and Sreedhar-style phi rule:
    phi arguments are live-out of their predecessor, phi results start at
    the head of their block."""
    synthetic = psi_synthetic_uses(func)
    labels = reachable_blocks(func)
    blocks = func.block_map()

    gen: dict[str, set[str]] = {}
    kill: dict[str, set[str]] = {}
    for label in labels:
        g: set[str] = set()
        k: set[str] = set()
        block = blocks[label]
        for phi in block.phis:
            k.add(phi.dest)
        for ins in list(block.body) + ([block.term] if block.term else []):
            for u in _instr_uses(ins, synthetic):
                if u not in k:
                    g.add(u)
            if ins.dest is not None:
                k.add(ins.dest)
        gen[label], kill[label] = g, k

    live_in = {l: set() for l in labels}
    live_out = {l: set() for l in labels}
    changed = True
    while changed:
        changed = False
        for label in reversed(labels):
            block = blocks[label]
            out: set[str] = set()
            for s in block.successors():
                if s not in live_in:
                    continue
                succ = blocks[s]
                phi_defs = {p.dest for p in succ.phis}
                out |= live_in[s] - phi_defs
                for phi in succ.phis:
                    out.add(phi.arg_for(label))
            new_in = gen[label] | (out - kill[label])
            if out != live_out[label] or new_in != live_in[label]:
                live_out[label] = out
                live_in[label] = new_in
                changed = True

    # Report phi results as live-in: their range starts at the block head.
    used = _used_vars(func, synthetic)
    report_in = {}
    for label in labels:
        extra = {p.dest for p in blocks[label].phis if p.dest in used}
        report_in[label] = frozenset(live_in[label] | extra)
    return LivenessInfo(report_in,
                        {l: frozenset(v) for l, v in live_out.items()},
                        synthetic)


def _used_vars(func: Function, synthetic) -> set[str]:
    used: set[str] = set()
    for _, ins in func.instructions():
        if isinstance(ins, PhiInstr):
            used.update(v for _, v in ins.args)
        else:
            used.update(_instr_uses(ins, synthetic))
    return used


class InterferenceGraph:
    def __init__(self):
        self.adj: dict[str, set[str]] = {}

    def add_edge(self, a: str, b: str):
        if a == b:
            return
        self.adj.setdefault(a, set()).add(b)
        self.adj.setdefault(b, set()).add(a)

    def interferes(self, a: str, b: str) -> bool:
        return b in self.adj.get(a, ())

    def neighbors(self, a: str) -> set[str]:
        return self.adj.get(a, set())

    def dump(self) -> str:
        lines = []
        for a in sorted(self.adj):
            for b in sorted(self.adj[a]):
                if a < b:
                    lines.append(f"{a} -- {b}")
        return "\n".join(lines) + "\n"


def _guard(ins: Instruction | None) -> Pred | None:
    """Guard of a definition; None for unguarded definitions, parameters,
    phis and psis."""
    return ins.guard if isinstance(ins, Instr) else None


def interference_graph(func: Function, live: LivenessInfo, env: GuardEnv,
                       refine_disjoint: bool = False) -> InterferenceGraph:
    """Edges between variables whose live ranges overlap, built at
    definition points.  With refine_disjoint, a def under guard g adds no
    edge to a variable defined under a provably disjoint guard; each pair
    of definition guards is decided once."""
    graph = InterferenceGraph()
    defs = func.defs()
    blocks = {b.label: b for b in func.blocks}

    def guard(var) -> Pred | None:
        return _guard(defs.get(var))

    def add(d, others):
        gd = guard(d) if refine_disjoint else None
        for v in others:
            if v == d:
                continue
            if refine_disjoint and env.preds_disjoint(gd, guard(v)):
                continue
            graph.add_edge(d, v)

    for label in live.live_in:
        block = blocks[label]
        current = set(live.live_out[label])
        for ins in reversed(list(block.body) +
                            ([block.term] if block.term else [])):
            if ins.dest is not None:
                add(ins.dest, current)
                current.discard(ins.dest)
            current.update(_instr_uses(ins, live.synthetic_uses))
        # Phi results define in parallel at the block head; each interferes
        # with whatever is live after the phi section.
        for phi in block.phis:
            add(phi.dest, current - {phi.dest})
        if label == func.entry:
            live_params = [n for n, _ in func.params if n in current]
            for i, p in enumerate(live_params):
                add(p, live_params[i + 1:])
    return graph


class LiveRanges:
    """Liveness under the psi rule, kept per variable and exact while copies
    are inserted, with interference answered on demand.

    A variable's live-in and live-out blocks come from path exploration:
    backwards from each of its use sites through the predecessors, up to
    its definition block (Brandner et al., "Computing Liveness Sets for
    SSA-Form Programs").  The sites include the psi rule's synthetic uses
    and the phi arguments, which are used at the end of their predecessor.
    `live_in` and `live_out` hold the same sets as `liveness`, and
    `interferes(a, b, refine_disjoint)` answers exactly as an edge of
    `interference_graph(..., refine_disjoint)` would: b is live just after
    a's definition or a just after b's (Boissinot et al., CGO 2009).  Uses
    are indexed per variable and block, so a query reads only the uses of
    one variable in one block.

    The function may change only by the copies that `update` records;
    definitions and positions are the cache's, which `Analyses.inserted`
    keeps current.
    """

    def __init__(self, cache: Analyses):
        # The cache's own dicts, which it keeps current; no reference to
        # the cache itself, which holds this object.
        self.func = func = cache.func
        self.defs, self.positions = cache.defs, cache.positions
        self.env = cache.env
        self.entry = func.entry
        self.params = {n for n, _ in func.params}
        self.live_in: dict[str, set[str]] = {l: set() for l in cache.dom.depth}
        self.live_out: dict[str, set[str]] = {l: set() for l in self.live_in}
        self.preds = {l: [p for p in ps if p in self.live_in]
                      for l, ps in cache.preds.items()}
        self._def: dict[str, Instruction] = dict(self.defs)
        # var -> block -> id -> instruction using var there (synthetic
        # uses included); var -> predecessor -> ids of phis using var there.
        self._uses: dict[str, dict[str, dict[int, Instruction]]] = {}
        self._phi_uses: dict[str, dict[str, set[int]]] = {}
        self._ins_uses: dict[int, frozenset] = {}
        self._synth: dict[int, list[tuple[str, Instruction]]] = {}
        self._synth_at: dict[int, list[str]] = {}
        self._psi_args: dict[int, set[str]] = {}
        self._psi_users: dict[str, dict[int, PsiInstr]] = {}
        self._in_of: dict[str, set[str]] = {}
        self._out_of: dict[str, set[str]] = {}
        psis = [ins for _, ins in func.instructions()
                if isinstance(ins, PsiInstr)]
        for psi in psis:
            self._index_psi(psi)
            self._attach(psi, {})
        for _, ins in func.instructions():
            self._reindex(ins, set())
        for var in set(self._def) | set(self._uses) | set(self._phi_uses):
            self._explore(var)

    # -- queries ------------------------------------------------------------

    def interferes(self, a: str, b: str, refine_disjoint: bool = False) -> bool:
        if a == b:
            return False
        if not (self._live_after_def(a, b) or self._live_after_def(b, a)
                or (a in self.params and b in self.params
                    and self._live_after(a, self.entry, 0)
                    and self._live_after(b, self.entry, 0))):
            return False
        return not (refine_disjoint and self.env.preds_disjoint(
            _guard(self._def.get(a)), _guard(self._def.get(b))))

    def _live_after_def(self, a: str, b: str) -> bool:
        """Is b live just after a's definition?  Phis define at slot 0."""
        ins = self._def.get(a)
        if ins is None:
            return False
        label, slot = self.positions[id(ins)]
        return label in self.live_out and self._live_after(b, label, slot)

    def _live_after(self, var: str, label: str, slot: int) -> bool:
        """Is var live just after slot `slot` of block `label`?  Its next
        event there decides: a use keeps it live, its definition ends the
        range; without either, it is live iff live-out."""
        pos = self.positions
        end = None
        ins = self._def.get(var)
        if ins is not None:
            dlabel, dslot = pos[id(ins)]
            if dlabel == label and dslot > slot:
                end = dslot
        uses = self._uses.get(var)
        if uses is not None and label in uses:
            for key in uses[label]:
                uslot = pos[key][1]
                if uslot > slot and (end is None or uslot <= end):
                    return True
        return end is None and var in self.live_out[label]

    # -- updates ------------------------------------------------------------

    def update(self, inserted=(), changed=(), redefined=()) -> None:
        """Record copies: `inserted` instructions are new, already in the
        cache; `changed` phis and psis have new arguments or a new result;
        `redefined` variables now have a different defining instruction.
        Re-explores only the variables whose uses or definition changed."""
        defs = self.defs
        dirty: set[str] = set(redefined)
        for var in redefined:
            self._def[var] = defs[var]
        for ins in inserted:
            self._def[ins.dest] = ins
            dirty.add(ins.dest)
        # Psis whose synthetic uses may move: the changed ones, and those
        # whose argument chains run through a variable defined anew.
        touched: dict[int, Instruction] = {id(i): i for i in inserted}
        psis: dict[int, PsiInstr] = {}
        for ins in changed:
            touched[id(ins)] = ins
            if isinstance(ins, PsiInstr):
                self._index_psi(ins)
                psis[id(ins)] = ins
        stack = list(dirty) + [p.dest for p in psis.values()]
        seen: set[str] = set()
        while stack:
            var = stack.pop()
            if var in seen:
                continue
            seen.add(var)
            for psi in self._psi_users.get(var, {}).values():
                psis[id(psi)] = psi
                if psi.args[0][1] == var:
                    stack.append(psi.dest)
        for psi in psis.values():
            self._attach(psi, touched)
        for ins in touched.values():
            self._reindex(ins, dirty)
        for var in dirty:
            self._explore(var)

    def _index_psi(self, psi: PsiInstr) -> None:
        key = id(psi)
        for var in self._psi_args.pop(key, ()):
            users = self._psi_users[var]
            del users[key]
            if not users:
                del self._psi_users[var]
        args = {v for _, v in psi.args}
        self._psi_args[key] = args
        for var in args:
            self._psi_users.setdefault(var, {})[key] = psi

    def _attach(self, psi: PsiInstr, touched: dict[int, Instruction]) -> None:
        """(Re)attach psi's synthetic uses (see `psi_synthetic_uses`);
        the instructions whose uses changed go into `touched`.  A use that
        lands on a phi counts nowhere, as in `liveness`."""
        new = [(arg, target) for arg, target in arg_deaths(psi, self.defs)
               if target is not None and not isinstance(target, PhiInstr)]
        old = self._synth.get(id(psi), [])
        if [(a, id(t)) for a, t in old] == [(a, id(t)) for a, t in new]:
            return
        for arg, target in old:
            self._synth_at[id(target)].remove(arg)
            touched[id(target)] = target
        for arg, target in new:
            self._synth_at.setdefault(id(target), []).append(arg)
            touched[id(target)] = target
        self._synth[id(psi)] = new

    def _reindex(self, ins: Instruction, dirty: set[str]) -> None:
        """Re-derive the uses `ins` contributes; the variables that gained
        or lost one go into `dirty`."""
        key = id(ins)
        old = self._ins_uses.get(key, frozenset())
        if isinstance(ins, PhiInstr):
            new = frozenset(ins.args)
            for pred, var in old - new:
                sites = self._phi_uses[var]
                sites[pred].discard(key)
                if not sites[pred]:
                    del sites[pred]
                if not sites:
                    del self._phi_uses[var]
            for pred, var in new - old:
                self._phi_uses.setdefault(var, {}).setdefault(
                    pred, set()).add(key)
            dirty.update(var for _, var in old ^ new)
        else:
            new = frozenset(_instr_uses(ins, {}) + self._synth_at.get(key, []))
            label = self.positions[key][0]
            for var in old - new:
                by_block = self._uses[var]
                del by_block[label][key]
                if not by_block[label]:
                    del by_block[label]
                if not by_block:
                    del self._uses[var]
            for var in new - old:
                self._uses.setdefault(var, {}).setdefault(label, {})[key] = ins
            dirty.update(old ^ new)
        self._ins_uses[key] = new

    def _explore(self, var: str) -> None:
        for label in self._in_of.pop(var, ()):
            self.live_in[label].discard(var)
        for label in self._out_of.pop(var, ()):
            self.live_out[label].discard(var)
        pos = self.positions
        ins = self._def.get(var)
        home, slot = pos[id(ins)] if ins is not None else (None, -1)
        live_in: set[str] = set()
        live_out: set[str] = set()
        stack = []
        for label, uses in self._uses.get(var, {}).items():
            if label not in self.live_in:
                continue
            # In the defining block only a use at or above the definition
            # is upward-exposed; the defining instruction reads first.
            if label == home and all(pos[u][1] > slot for u in uses):
                continue
            live_in.add(label)
            stack.append(label)
        for label in self._phi_uses.get(var, ()):
            if label in self.live_out:
                live_out.add(label)
                if label != home and label not in live_in:
                    live_in.add(label)
                    stack.append(label)
        while stack:
            for pred in self.preds[stack.pop()]:
                if pred not in live_out:
                    live_out.add(pred)
                    if pred != home and pred not in live_in:
                        live_in.add(pred)
                        stack.append(pred)
        # As in `liveness`, a used phi result is reported live-in: its range
        # starts at the block head.
        if (isinstance(ins, PhiInstr) and home in self.live_in
                and (var in self._uses or var in self._phi_uses)):
            live_in.add(home)
        for label in live_in:
            self.live_in[label].add(var)
        for label in live_out:
            self.live_out[label].add(var)
        if live_in:
            self._in_of[var] = live_in
        if live_out:
            self._out_of[var] = live_out
