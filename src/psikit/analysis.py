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
form's second condition).  `synthetic_uses_of` turns `arg_deaths` into the
uses that `liveness` and `LiveRanges` attach to instructions.

Liveness is computed one way: `live_in_blocks`, a backward walk per
variable from the blocks that read it first, through the predecessors,
stopped by the blocks that define it (path exploration).  SSA
construction asks it on its phi-free input, `liveness` on any function
(the CLI's `--dump-liveness` and `--dump-interference`, multiply-defined
output of out-of-SSA included) and `LiveRanges` per variable on SSA, over
every block, reachable or not, when a query first asks about it.

`Analyses` computes the definitions, the block map, the predecessors, the
dominator tree, the instruction positions, the guard env, the live ranges
and the name allocator (`names`, the source of every fresh name in
if-conversion and out-of-SSA) of one function on first use and keeps them
while the function changes.  SSA construction, SSA validation,
if-conversion, psi inlining, out-of-SSA with its class check
(`out_of_ssa.class_interference`) and `ssa.is_normalized` read them from
one `Analyses`; SSA construction hands it the predecessors and reachable
order its own sweep found.  A pass that mutates the function keeps them
correct by one rule, so none is computed twice:

- if-converting a region records the folding of its arms and merge into
  the head: call `linearized()`.  The new `not`/`and` temporaries and the
  psis that replace the merge phis become definitions; the folded labels
  leave the block map, the predecessors and the dominator tree; the
  merge's successors, now the head's, name the head as their predecessor
  instead of the merge, and the merge's dominator children become the
  head's, one level shallower; the removed instructions (phis, the head's
  branch, the arms' gotos) leave the positions.  The merge's block
  object, under the head's label, keeps its keys; the head's, the arms'
  and the new instructions take keys below them.  The guard env
  defines the temporaries by its one rule, `GuardEnv.define`, as `Not(f)`
  and `And(f, g)`; a psi keeps its phi's formula, a fresh symbol either
  way, and moving or re-guarding an instruction changes no formula.
  Queries are exact truth tables, so the numbering of symbols cannot
  change an answer;
- a copy goes in by `insert()`, which records its definition and gives it
  a key between its neighbours'.  The dominator tree stays valid, and so
  does the guard env: a copy defines a fresh name and changes the formula
  of no existing guard register, and no copy is used as a guard before
  the final renaming.  The live ranges are updated by `live.update()`,
  which takes the new copies and the phis and psis whose arguments or
  results they replaced; a changed one that it does not yet know as its
  result's definition had its result renamed.  It drops the live range
  of each variable whose uses or definition changed: the copied sources
  and the new names, a renamed result, and each earlier psi argument
  whose synthetic use point moved, in the changed psis and in every psi
  whose argument chain runs through a variable defined anew (an index
  maps each variable to the psis that use it).  A query explores a
  dropped range, or one never asked, when it first needs it; an
  interference answer lives until `update` drops either range;
- splicing psi arguments changes nothing computed: no definition, no
  guard formula and no CFG.

`linearized()` and `insert()` update every analysis they touch, so their
callers compute those first (one computed mid-fold would read the folded
blocks still in `func.blocks`): if-conversion reads all six while it plans
and folds a region, and copy placement out of psi-SSA reads definitions.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from collections.abc import Container, Iterable
from dataclasses import dataclass, field
from functools import cached_property

from .ir import (Block, Function, Instr, Instruction, NameAllocator, PhiInstr,
                 Pred, PsiInstr, predecessors)
from .predicates import GuardEnv, guard_env_or_conservative


def reachable_blocks(func: Function) -> list[str]:
    """The blocks reachable from the entry, in reverse postorder of a
    depth-first walk that visits successors in order; iterative, so chains
    of any depth are fine.  A branch target that names no block, which
    `ir.validate` reports, leads nowhere."""
    blocks = func.block_map()
    seen = {func.entry}
    order: list[str] = []
    stack = [(func.entry, iter(blocks[func.entry].successors()))]
    while stack:
        label, succs = stack[-1]
        for s in succs:
            if s not in seen and s in blocks:
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

    def dominates_pos(self, a: Point, b: Point, strict: bool = False) -> bool:
        """Does program point a dominate point b?  Within one block the
        lower key dominates the higher."""
        if a[0] is b[0]:
            return a[1] < b[1] if strict else a[1] <= b[1]
        return self.dominates_block(a[0].label, b[0].label)

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


def dominator_tree(order: list[str], preds: dict[str, list[str]]) -> DomTree:
    """Iterative RPO dataflow over a function's reachable blocks: `order`
    is `reachable_blocks(func)` and `preds` is `func.predecessors()`.  A
    block's DFS parent precedes it in `order`, so some predecessor has an
    idom when the block is visited (Cooper, Harvey and Kennedy, 2001)."""
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


Point = tuple[Block, float]
GAP = 1 << 16
PHI_KEY = float("-inf")


def instr_positions(func: Function) -> dict[int, Point]:
    """Map id(instruction) -> its position, a `Point`: its block and an
    order key with gaps (Dietz & Sleator, STOC 1987; Bender et al., ESA
    2002), `GAP` apart along the block, phis sharing `PHI_KEY` below the
    rest.  Only keys in one block are compared.  A point is also the place
    just below every instruction of its block keyed at most its key;
    `Analyses.insert` renumbers a block only when a gap there closes."""
    pos: dict[int, Point] = {}
    for block in func.blocks:
        for phi in block.phis:
            pos[id(phi)] = (block, PHI_KEY)
        number_block(block, pos)
    return pos


def number_block(block: Block, pos: dict[int, Point],
                 prefix: int | None = None) -> None:
    """Key the block's body and terminator `GAP` apart from 0 up, or only
    the first `prefix` instructions, down to just below the next one's
    key."""
    body, key = block.body, 0
    if prefix is not None:
        after = body[prefix] if prefix < len(body) else block.term
        key = pos[id(after)][1] - GAP * (prefix + 1)
    for ins in body[:prefix]:
        key += GAP
        pos[id(ins)] = (block, key)
    if prefix is None and block.term is not None:
        pos[id(block.term)] = (block, key + GAP)


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
        return dominator_tree(reachable_blocks(self.func), self.preds)

    @cached_property
    def positions(self) -> dict[int, Point]:
        return instr_positions(self.func)

    @cached_property
    def env(self) -> GuardEnv:
        return guard_env_or_conservative(self.func)

    @cached_property
    def live(self) -> "LiveRanges":
        return LiveRanges(self)

    @cached_property
    def names(self) -> NameAllocator:
        return NameAllocator(self.func)

    def locate(self, ins: Instruction) -> Point:
        """The position of `ins`; as a point, just below it."""
        return self.positions[id(ins)]

    def defined_at(self, var: str, point: Point,
                   strict: bool = False) -> bool:
        """Does `var`'s definition dominate program point `point`: may an
        instruction inserted there read `var`?  With `strict`, may the
        instruction at `point` itself read it?  A parameter is defined
        everywhere."""
        ins = self.defs.get(var)
        return ins is None or self.dom.dominates_pos(
            self.positions[id(ins)], point, strict)

    def insert(self, point: Point, ins: Instruction) -> None:
        """Insert `ins` at program point `point`, above the terminator, and
        record it.  It takes the key halfway between its neighbours'; only
        when theirs are adjacent is the block renumbered."""
        pos, (block, bound) = self.positions, point
        body = block.body
        at = bisect_right(body, bound, key=lambda i: pos[id(i)][1])
        body.insert(at, ins)
        if ins.dest is not None:
            self.defs[ins.dest] = ins
        high = pos[id(body[at + 1] if at + 1 < len(body) else block.term)][1]
        low = pos[id(body[at - 1])][1] if at else high - 2 * GAP
        if high - low > 1:
            pos[id(ins)] = (block, (low + high) // 2)
        else:
            number_block(block, pos)

    def linearized(self, head: Block, prefix: int, merge: str,
                   removed: list[str], dropped: list[Instruction],
                   added: list[Instruction]) -> None:
        """Record an if-conversion: the blocks `removed` (the arms and the
        merge `merge`) now live in `head`, the instructions `dropped` are
        gone, and `added` (in order) are new definitions.  `head`, the
        merge's block object, keeps its keys but for its phis and the
        first `prefix` instructions of its body."""
        for ins in added:
            self.defs[ins.dest] = ins
        blocks, preds, pos = self.blocks, self.preds, self.positions
        for label in removed:
            del blocks[label], preds[label]
        blocks[head.label] = head
        for ins in dropped:
            del pos[id(ins)]
        for phi in head.phis:
            pos[id(phi)] = (head, PHI_KEY)
        number_block(head, pos, prefix)
        for label in head.successors():
            preds[label] = [head.label if p == merge else p
                            for p in preds[label]]
        self.dom.fold(head.label, merge, removed)
        for ins in added:
            if ins.opcode in ("not", "and"):
                self.env.define(ins)


def resolve_psi_chain(var: str, defs: dict[str, Instruction]) -> str:
    """First non-psi definition reached through leading psi arguments."""
    seen = set()
    while var in defs and isinstance(defs[var], PsiInstr) and var not in seen:
        seen.add(var)
        var = defs[var].args[0][1]
    return var


def def_point(var: str, defs: dict[str, Instruction],
              positions: dict[int, Point],
              resolved: bool = False) -> Point | None:
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


def order_inverted(dom: DomTree, cur: Point | None,
                   nxt: Point | None) -> bool:
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
    """What a non-phi instruction reads under the psi rule; phi arguments
    are read at the end of their predecessors."""
    if isinstance(ins, PsiInstr):
        # The psi itself uses only its last argument plus the predicate
        # registers; earlier arguments die at their synthetic use points.
        uses = [v for v in (p.reg for p, _ in ins.args) if v is not None]
        uses.append(ins.args[-1][1])
    else:
        uses = ins.uses()
    uses.extend(synthetic.get(id(ins), ()))
    return uses


def synthetic_uses_of(psi: PsiInstr, defs: dict[str, Instruction]
                      ) -> list[tuple[str, Instruction]]:
    """The psi rule's synthetic uses of `psi`: each argument but the last,
    with the instruction that reads it (`arg_deaths`).  An argument that
    dies at a parameter or at a phi has none: no instruction reads it."""
    return [(arg, target) for arg, target in arg_deaths(psi, defs)
            if target is not None and not isinstance(target, PhiInstr)]


def psi_synthetic_uses(func: Function) -> dict[int, list[str]]:
    """Every psi's synthetic uses, by id of the instruction reading them."""
    defs = func.defs()
    synthetic: dict[int, list[str]] = {}
    for _, ins in func.instructions():
        if isinstance(ins, PsiInstr):
            for arg, target in synthetic_uses_of(ins, defs):
                synthetic.setdefault(id(target), []).append(arg)
    return synthetic


def live_in_blocks(seeds: Iterable[str], kills: Container[str],
                   preds: dict[str, list[str]]) -> set[str]:
    """The blocks where one variable is live-in: the `seeds`, which read
    it before any definition in them, and each block with a path to a
    seed through `preds` that enters no block in `kills`, the blocks that
    define it.  Path exploration (Brandner et al., "Computing Liveness Sets
    for SSA-Form Programs", INRIA RR-7503, 2011), live-in only: the
    variable is live-out of the predecessors of these blocks and of the
    blocks that pass it to a phi, which a caller that needs it derives."""
    live = set(seeds)
    stack = list(live)
    while stack:
        for pred in preds[stack.pop()]:
            if pred not in live and pred not in kills:
                live.add(pred)
                stack.append(pred)
    return live


def liveness(func: Function) -> LivenessInfo:
    """Liveness of the reachable blocks with the psi rule and the
    Sreedhar-style phi rule: phi arguments are live-out of their
    predecessor, and a phi result that a reachable block reads is live-in
    at its block, where its range starts.  One sweep finds, per variable,
    the blocks that define it, read it first (synthetic uses included) or
    pass it to a phi; one `live_in_blocks` walk per variable does the
    rest.  Every defining block stops the walk, so a multiply-defined
    function (after out-of-SSA) is fine too."""
    synthetic = psi_synthetic_uses(func)
    labels = reachable_blocks(func)
    blocks = func.block_map()
    preds = predecessors([blocks[l] for l in labels])
    kills: dict[str, set[str]] = {}
    exposed: dict[str, set[str]] = {}
    phi_uses: dict[str, set[str]] = {}
    used: set[str] = set()
    for label in labels:
        block = blocks[label]
        for succ in block.successors():
            for phi in blocks[succ].phis:
                phi_uses.setdefault(phi.arg_for(label), set()).add(label)
        defined = {phi.dest for phi in block.phis}
        for ins in block.body + ([block.term] if block.term else []):
            uses = _instr_uses(ins, synthetic)
            used.update(uses)
            for u in uses:
                if u not in defined:
                    exposed.setdefault(u, set()).add(label)
            if ins.dest is not None:
                defined.add(ins.dest)
        for var in defined:
            kills.setdefault(var, set()).add(label)

    live_in: dict[str, set[str]] = {l: set() for l in labels}
    live_out: dict[str, set[str]] = {l: set() for l in labels}
    for var in exposed.keys() | phi_uses.keys():
        kill = kills.get(var, set())
        out = phi_uses.get(var, set())
        inside = live_in_blocks(exposed.get(var, set()) | (out - kill), kill,
                                preds)
        for label in inside:
            live_in[label].add(var)
        for label in out.union(*(preds[l] for l in inside)):
            live_out[label].add(var)
    for label in labels:
        live_in[label].update(p.dest for p in blocks[label].phis
                              if p.dest in used or p.dest in phi_uses)
    return LivenessInfo({l: frozenset(v) for l, v in live_in.items()},
                        {l: frozenset(v) for l, v in live_out.items()},
                        synthetic)


class InterferenceGraph:
    def __init__(self):
        self.adj: dict[str, set[str]] = {}

    def add_edge(self, a: str, b: str):
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


def interference_graph(func: Function, live: LivenessInfo,
                       env: GuardEnv | None = None) -> InterferenceGraph:
    """Edges between variables whose live ranges overlap, built at
    definition points.  Given a guard env, a def under guard g adds no
    edge to a variable defined under a provably disjoint guard; each pair
    of definition guards is decided once."""
    graph = InterferenceGraph()
    defs = func.defs()
    blocks = {b.label: b for b in func.blocks}

    def guard(var) -> Pred | None:
        return _guard(defs.get(var))

    def add(d, others):
        gd = guard(d)
        for v in others:
            if v == d:
                continue
            if env is not None and env.preds_disjoint(gd, guard(v)):
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
            live_params = [n for n in func.params if n in current]
            for i, p in enumerate(live_params):
                add(p, live_params[i + 1:])
    return graph


class LiveRanges:
    """Liveness under the psi rule, kept per variable and exact while copies
    are inserted, with interference answered on demand.

    A variable's range, its live-in and its live-out blocks, is explored
    when a query first needs it: the `live_in_blocks` walk that `liveness`
    asks too, seeded with the blocks of its upward-exposed uses (synthetic
    uses included) and the blocks that pass it to a phi, and stopped by
    its definition block; it is live-out of their predecessors and of
    those phi predecessors.  `live_at` answers as membership in the sets
    of `liveness`, and `interferes(a, b, refine_disjoint)` exactly as an
    edge of `interference_graph(..., env if refine_disjoint else None)`
    would: b is live just after a's definition or a just after b's
    (Boissinot et al., CGO 2009).  Uses are indexed per variable and
    block, in one sweep by `update`'s own routine, so a query reads only
    the uses of one variable in one block.

    Ranges cover every block, unreachable ones too (`to_cssa` removes
    them first).  The function may change only by the copies that
    `update` records.  Positions are the cache's, which `Analyses.insert`
    keeps current, read at query time; `_def` is a copy of the cache's
    definitions, which `update` brings level with them.
    A range and a pair's answer read only this object's index (`_def`,
    `_uses`, `_phi_uses`), the predecessors and the order of instructions
    in a block, which `insert` keeps; only `update` changes the index, and
    it drops the ranges and answers of the variables it changed.  So an
    answer is the same whenever it is asked between two updates: copies
    inserted but not yet recorded change none.
    `_psi_users` keeps a psi under an argument it has lost, harmlessly:
    re-attaching the psi finds nothing moved, and the chain walk reads
    each psi's first argument as it is now.
    """

    def __init__(self, cache: Analyses):
        # The cache's own dicts, which it keeps current; no reference to
        # the cache itself, which holds this object.
        self.func = func = cache.func
        self.positions, self.env = cache.positions, cache.env
        self.entry = func.blocks[0]
        self.params = set(func.params)
        self.preds = cache.preds
        self._def: dict[str, Instruction] = dict(cache.defs)
        # var -> block -> id -> instruction using var there (synthetic
        # uses included); var -> predecessor -> ids of phis using var there.
        self._uses: dict[str, dict[str, dict[int, Instruction]]] = {}
        self._phi_uses: dict[str, dict[str, set[int]]] = {}
        self._ins_uses: dict[int, frozenset] = {}
        self._synth: dict[int, list[tuple[str, Instruction]]] = {}
        self._synth_at: dict[int, list[str]] = {}
        self._psi_users: dict[str, dict[int, PsiInstr]] = {}
        # var -> (live-in blocks, live-out blocks), explored on first ask.
        self._ranges: dict[str, tuple[set[str], set[str]]] = {}
        # Each pair's overlap, under both names (class docstring).
        self._kept: defaultdict[str, dict[str, bool]] = defaultdict(dict)
        for _, ins in func.instructions():
            if isinstance(ins, PsiInstr):
                self._index_psi(ins)
                self._attach(ins, {})
        touched: set[str] = set()  # nothing has a range to drop yet
        for block in func.blocks:
            for ins in block.instructions():
                self._reindex(ins, block.label, touched)

    # -- queries ------------------------------------------------------------

    def live_at(self, var: str, label: str, out: bool = False) -> bool:
        """Is `var` live into block `label`, or with `out` live out of it?"""
        return label in (self._ranges.get(var) or self._explore(var))[out]

    def interferes(self, a: str, b: str, refine_disjoint: bool = False) -> bool:
        if a == b:
            return False
        overlap = self._kept[a].get(b)
        if overlap is None:
            overlap = self._kept[a][b] = self._kept[b][a] = self._overlap(a, b)
        return overlap and not (refine_disjoint and self.env.preds_disjoint(
            _guard(self._def.get(a)), _guard(self._def.get(b))))

    def _overlap(self, a: str, b: str) -> bool:
        """Is b live just after a's definition or a just after b's, or are
        both parameters live into the entry?  Guards aside."""
        pos, da, db = self.positions, self._def.get(a), self._def.get(b)
        return ((da is not None and self._live_after(b, *pos[id(da)]))
                or (db is not None and self._live_after(a, *pos[id(db)]))
                or (a in self.params and b in self.params
                    and self._live_after(a, self.entry, PHI_KEY)
                    and self._live_after(b, self.entry, PHI_KEY)))

    def _live_after(self, var: str, block: Block, at: float) -> bool:
        """Is var live just after key `at` of `block`?  Its next event
        there decides: a use keeps it live, its definition ends the range;
        without either, it is live iff live-out."""
        pos, label = self.positions, block.label
        end = None
        ins = self._def.get(var)
        if ins is not None:
            dblock, dkey = pos[id(ins)]
            if dblock is block and dkey > at:
                end = dkey
        uses = self._uses.get(var)
        if uses is not None and label in uses:
            for key in uses[label]:
                ukey = pos[key][1]
                if ukey > at and (end is None or ukey <= end):
                    return True
        return end is None and self.live_at(var, label, True)

    # -- updates ------------------------------------------------------------

    def update(self, inserted=(), changed=()) -> None:
        """Record copies: `inserted` instructions are new, already in the
        cache; `changed` phis and psis have new arguments or a new result.
        Drops the ranges of the variables whose uses or definition changed,
        and the answers kept for them."""
        dirty: set[str] = set()
        for ins in inserted:
            self._def[ins.dest] = ins
            dirty.add(ins.dest)
        # Psis whose synthetic uses may move: the changed ones, and those
        # whose argument chains run through a variable defined anew.
        touched: dict[int, Instruction] = {id(i): i for i in inserted}
        psis: dict[int, PsiInstr] = {}
        for ins in changed:
            touched[id(ins)] = ins
            if self._def.get(ins.dest) is not ins:  # a renamed result
                self._def[ins.dest] = ins
                dirty.add(ins.dest)
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
            self._reindex(ins, self.positions[id(ins)][0].label, dirty)
        for var in dirty:
            self._ranges.pop(var, None)
            for other in self._kept.pop(var, ()):
                del self._kept[other][var]

    def _index_psi(self, psi: PsiInstr) -> None:
        for _, var in psi.args:
            self._psi_users.setdefault(var, {})[id(psi)] = psi

    def _attach(self, psi: PsiInstr, touched: dict[int, Instruction]) -> None:
        """(Re)attach psi's synthetic uses (`synthetic_uses_of`); the
        instructions whose uses changed go into `touched`."""
        new = synthetic_uses_of(psi, self._def)
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

    def _reindex(self, ins: Instruction, label: str, dirty: set[str]) -> None:
        """Re-derive the uses `ins`, in block `label`, contributes; the
        variables that gained or lost one go into `dirty`."""
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
            new = frozenset(_instr_uses(ins, self._synth_at))
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

    def _explore(self, var: str) -> tuple[set[str], set[str]]:
        """Explore and keep `var`'s range: its live-in and live-out blocks."""
        pos, preds = self.positions, self.preds
        ins = self._def.get(var)
        home, at = (None, PHI_KEY) if ins is None else pos[id(ins)]
        home = home and home.label
        live_out: set[str] = set()
        seeds: set[str] = set()
        for label in self._phi_uses.get(var, ()):
            live_out.add(label)
            if label != home:
                seeds.add(label)
        for label, uses in self._uses.get(var, {}).items():
            # In the defining block only a use at or above the definition
            # is upward-exposed; the defining instruction reads first.
            if label != home or any(pos[u][1] <= at for u in uses):
                seeds.add(label)
        live_in = live_in_blocks(seeds, (home,), preds) if seeds else seeds
        for label in live_in:
            live_out.update(preds[label])
        # As in `liveness`, a used phi result is reported live-in: its range
        # starts at the block head.
        if isinstance(ins, PhiInstr) and (var in self._uses
                                          or var in self._phi_uses):
            live_in.add(home)
        return self._ranges.setdefault(var, (live_in, live_out))
