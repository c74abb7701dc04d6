"""CFG analyses: dominator tree, liveness with the psi rule, interference.

The psi liveness rule: in a normalized psi, argument i is used at the
definition point of argument i+1 (looking through psi-defined arguments to
their first non-psi definition); the last argument is used at the psi
itself.  This matches the live ranges of the equivalent select-form
rewrite and makes "no interference" coincide with "safe to rename into
one variable".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import Function, Instr, Instruction, PhiInstr, PsiInstr
from .predicates import GuardEnv, TRUE_EXPR


def reachable_blocks(func: Function) -> list[str]:
    seen = {func.entry}
    stack = [func.entry]
    order = [func.entry]
    while stack:
        for s in func.successors(stack.pop()):
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
    seen = set()
    order: list[str] = []

    def walk(label: str):
        seen.add(label)
        for s in func.successors(label):
            if s not in seen:
                walk(s)
        order.append(label)

    walk(func.entry)
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
        for phi in block.phis:
            pos[id(phi)] = (block.label, 0)
        slot = 1
        for ins in block.body:
            pos[id(ins)] = (block.label, slot)
            slot += 1
        if block.term is not None:
            pos[id(block.term)] = (block.label, slot)
    return pos


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


def liveness(func: Function, env: GuardEnv | None = None) -> LivenessInfo:
    """Backward dataflow with the psi rule and Sreedhar-style phi rule:
    phi arguments are live-out of their predecessor, phi results start at
    the head of their block."""
    del env  # liveness needs no predicate reasoning; kept for symmetry
    synthetic = psi_synthetic_uses(func)
    labels = reachable_blocks(func)
    blocks = {b.label: b for b in func.blocks}

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
            for s in func.successors(label):
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
    report_in = {}
    for label in labels:
        extra = {p.dest for p in blocks[label].phis
                 if _var_used(func, p.dest, synthetic)}
        report_in[label] = frozenset(live_in[label] | extra)
    return LivenessInfo(report_in,
                        {l: frozenset(v) for l, v in live_out.items()},
                        synthetic)


def _var_used(func: Function, var: str, synthetic) -> bool:
    for _, ins in func.instructions():
        if isinstance(ins, PhiInstr):
            if any(v == var for _, v in ins.args):
                return True
        elif var in _instr_uses(ins, synthetic):
            return True
    return False


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


def _def_guard_formula(ins: Instruction, env: GuardEnv):
    if isinstance(ins, Instr) and ins.guard is not None:
        return env.pred_formula(ins.guard)
    return TRUE_EXPR


def interference_graph(func: Function, live: LivenessInfo, env: GuardEnv,
                       refine_disjoint: bool = False) -> InterferenceGraph:
    """Edges between variables whose live ranges overlap, built at
    definition points.  With refine_disjoint, a def under guard g adds no
    edge to a variable defined under a provably disjoint guard."""
    graph = InterferenceGraph()
    defs = func.defs()
    blocks = {b.label: b for b in func.blocks}

    def guarded_formula(var):
        ins = defs.get(var)
        if ins is None:
            return TRUE_EXPR  # parameter
        return _def_guard_formula(ins, env)

    def add(d, others):
        fd = guarded_formula(d) if refine_disjoint else None
        for v in others:
            if v == d:
                continue
            if refine_disjoint and env.disjoint(fd, guarded_formula(v)):
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
