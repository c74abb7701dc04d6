"""CFG analyses: dominator tree, liveness with the psi rule, interference,
and the per-function cache the transformations share.

The psi liveness rule: in a normalized psi, argument i is used at the
definition point of argument i+1 (looking through psi-defined arguments to
their first non-psi definition); the last argument is used at the psi
itself.  This matches the live ranges of the equivalent select-form
rewrite and makes "no interference" coincide with "safe to rename into
one variable".

`Analyses` computes the definitions, the block map, the dominator tree,
the instruction positions and the guard env of one function on first use
and keeps them while the function changes.  A pass that mutates the
function keeps them correct by one rule, so none is computed twice:

- if-converting a region records the folding of its arms and merge into
  the head: call `linearized()`.  The new `not`/`and` temporaries and the
  psis that replace the merge phis become definitions; the folded labels
  leave the block map, the dominator tree and its reverse postorder, and
  the merge's dominator children become the head's, one level shallower;
  the removed instructions (phis, the head's branch, the arms' gotos)
  leave the positions and the head's are re-derived.  The guard env gains
  `Not(f)` and `And(f, g)` for the temporaries; a psi keeps its phi's
  formula, a fresh symbol either way, and moving or re-guarding an
  instruction changes no formula.  Queries are exact truth tables, so
  the numbering of symbols cannot change an answer;
- inserting a copy records its definition and re-derives the positions of
  the block it went into: call `inserted()`.  The dominator tree stays
  valid, and so does the guard env: a copy defines a fresh name and
  changes the formula of no existing guard register, and no copy is used
  as a guard before the final renaming;
- splicing psi arguments changes nothing computed: no definition, no
  guard formula and no CFG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .ir import Block, Function, Instr, Instruction, PhiInstr, Pred, PsiInstr
from .predicates import And, GuardEnv, Not, guard_env_or_conservative


def reachable_blocks(func: Function) -> list[str]:
    blocks = func.block_map()
    seen = {func.entry}
    stack = [func.entry]
    order = [func.entry]
    while stack:
        for s in blocks[stack.pop()].successors():
            if s not in seen:
                seen.add(s)
                stack.append(s)
                order.append(s)
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


def _rpo(func: Function) -> list[str]:
    """Reverse postorder of a depth-first walk that visits successors in
    order; iterative, so chains of any depth are fine."""
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


class DomTree:
    """Immediate dominators plus an instruction-level dominance query."""

    def __init__(self, idom: dict[str, str | None], order: list[str]):
        self.idom = idom
        self.rpo = order
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

    def strictly_dominates_block(self, a: str, b: str) -> bool:
        return a != b and self.dominates_block(a, b)

    def dominates_pos(self, a: tuple[str, int], b: tuple[str, int],
                      strict: bool = False) -> bool:
        """Does program point a dominate point b?  Points are (block, slot);
        within one block the earlier instruction dominates the later."""
        if a[0] == b[0]:
            return a[1] < b[1] if strict else a[1] <= b[1]
        return self.strictly_dominates_block(a[0], b[0])

    def fold(self, head: str, merge: str, removed: list[str]) -> None:
        """Drop the labels `removed` (a region's arms and its merge, which
        `head` immediately dominates); the merge's children become the
        head's, and the head had no others: every path out of the head
        runs through the merge.  Dominance between the remaining blocks is
        unchanged and their reverse postorder keeps its order."""
        gone = set(removed)
        moved = self.children[merge]
        for label in removed:
            del self.idom[label], self.depth[label], self.children[label]
        self.rpo = [l for l in self.rpo if l not in gone]
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
        stack = [self.rpo[0]]
        while stack:
            label = stack.pop()
            out.append(label)
            stack.extend(reversed(self.children[label]))
        return out


def dominator_tree(func: Function) -> DomTree:
    """Iterative RPO dataflow over reachable blocks."""
    order = _rpo(func)
    index = {l: i for i, l in enumerate(order)}
    preds = func.predecessors()
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


def dominance_frontiers(func: Function, dom: DomTree) -> dict[str, set[str]]:
    preds = func.predecessors()
    df: dict[str, set[str]] = {l: set() for l in dom.rpo}
    for label in dom.rpo:
        ps = [p for p in preds[label] if p in dom.depth]
        if len(ps) < 2:
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
    def dom(self) -> "DomTree":
        return dominator_tree(self.func)

    @cached_property
    def positions(self) -> dict[int, tuple[str, int]]:
        return instr_positions(self.func)

    @cached_property
    def env(self) -> GuardEnv:
        return guard_env_or_conservative(self.func)

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
        if "dom" in computed:
            computed["dom"].fold(head.label, merge, removed)
        if "env" in computed:
            formulas = computed["env"].formulas
            for ins in added:
                if not isinstance(ins, Instr) or ins.opcode not in ("not", "and"):
                    continue
                args = [formulas.get(o) for o in ins.operands]
                if None not in args:
                    formulas[ins.dest] = (Not(*args) if ins.opcode == "not"
                                          else And(*args))


def resolve_psi_chain(var: str, defs: dict[str, Instruction]) -> str:
    """First non-psi definition reached through leading psi arguments."""
    seen = set()
    while var in defs and isinstance(defs[var], PsiInstr) and var not in seen:
        seen.add(var)
        var = defs[var].args[0][1]
    return var


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
        uses = list(ins.uses())
        if ins.guard is not None:
            uses.append(ins.guard.reg)
    uses.extend(synthetic.get(id(ins), ()))
    return uses


def psi_synthetic_uses(func: Function) -> dict[int, list[str]]:
    defs = func.defs()
    synthetic: dict[int, list[str]] = {}
    for _, ins in func.instructions():
        if not isinstance(ins, PsiInstr):
            continue
        for (_, arg), (_, nxt) in zip(ins.args, ins.args[1:]):
            head = resolve_psi_chain(nxt, defs)
            target = defs.get(head)
            if target is None:
                continue  # parameter: argument dies at function entry scope
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

    def classes_interfere(self, xs, ys) -> bool:
        xs = list(xs)
        for y in ys:
            ny = self.adj.get(y)
            if ny and any(x in ny for x in xs):
                return True
        return False

    def dump(self) -> str:
        lines = []
        for a in sorted(self.adj):
            for b in sorted(self.adj[a]):
                if a < b:
                    lines.append(f"{a} -- {b}")
        return "\n".join(lines) + "\n"


def interference_graph(func: Function, live: LivenessInfo, env: GuardEnv,
                       refine_disjoint: bool = False) -> InterferenceGraph:
    """Edges between variables whose live ranges overlap, built at
    definition points.  With refine_disjoint, a def under guard g adds no
    edge to a variable defined under a provably disjoint guard; each pair
    of definition guards is decided once."""
    graph = InterferenceGraph()
    defs = func.defs()
    blocks = {b.label: b for b in func.blocks}
    disjoint: dict[tuple[Pred | None, Pred | None], bool] = {}

    def guard(var) -> Pred | None:
        """Guard of var's definition; None for unguarded definitions,
        parameters, phis and psis."""
        ins = defs.get(var)
        return ins.guard if isinstance(ins, Instr) else None

    def guards_disjoint(key) -> bool:
        if key not in disjoint:
            disjoint[key] = env.disjoint(env.pred_formula(key[0]),
                                         env.pred_formula(key[1]))
        return disjoint[key]

    def add(d, others):
        gd = guard(d) if refine_disjoint else None
        for v in others:
            if v == d:
                continue
            if refine_disjoint and guards_disjoint((gd, guard(v))):
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
