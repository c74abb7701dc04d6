"""The iterative block dataflow that `analysis.liveness` used to be, kept as
the oracle the tests compare every liveness in `psikit` against: SSA
construction's live-in sets, `LiveRanges` and `analysis.liveness` itself.
"""

from psikit.analysis import (LivenessInfo, _instr_uses, psi_synthetic_uses,
                             reachable_blocks)
from psikit.ir import Function, PhiInstr


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
