"""The kind inference that `ir.infer_kinds` used to be, kept as the oracle
the tests compare it against: the same least fixpoint, written over
`Function.instructions()` with `isinstance` dispatch.
"""

from psikit.ir import BOOL_OPS, CMP_OPS, Function, Instr, PhiInstr


def infer_kinds(func: Function) -> dict[str, str]:
    """Map every variable to 'value' or 'guard'.

    Guard-ness is seeded by `:guard` declarations and compare results, then
    propagated through mov/and/or/not/select/phi/psi until stable.  Only
    those instructions can derive it, so only they are swept again.
    """
    kinds = {name: kind for name, kind in func.params}
    candidates = []
    for _, ins in func.instructions():
        dest = ins.dest
        if dest is None:
            continue
        if isinstance(ins, Instr) and ins.opcode in CMP_OPS:
            kinds[dest] = "guard"
            continue
        kinds.setdefault(dest, "value")
        if not isinstance(ins, Instr) or ins.opcode in BOOL_OPS \
                or ins.opcode == "select" \
                or (ins.opcode == "mov" and isinstance(ins.operands[0], str)):
            candidates.append(ins)
    for name in func.guard_decls:
        kinds[name] = "guard"

    def is_guard(v) -> bool:
        return kinds.get(v) == "guard"

    changed = True
    while changed:
        changed = False
        pending = []
        for ins in candidates:
            if kinds[ins.dest] == "guard":
                continue
            if isinstance(ins, Instr):
                if ins.opcode in BOOL_OPS:
                    vars_ = [o for o in ins.operands if isinstance(o, str)]
                    derived = bool(vars_) and all(map(is_guard, vars_))
                elif ins.opcode == "mov":
                    derived = is_guard(ins.operands[0])
                else:  # select
                    tv, ev = ins.operands[1], ins.operands[2]
                    derived = (isinstance(tv, str) and isinstance(ev, str)
                               and is_guard(tv) and is_guard(ev))
            elif isinstance(ins, PhiInstr):
                derived = all(is_guard(v) for _, v in ins.args)
            else:
                derived = all(map(is_guard, ins.values()))
            if derived:
                kinds[ins.dest] = "guard"
                changed = True
            else:
                pending.append(ins)
        candidates = pending
    return kinds
