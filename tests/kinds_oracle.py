"""The kind inference that `ir.infer_kinds` must give, written naively as
the oracle the tests compare it against: the same greatest fixpoint, but
each round rescans every definition of the function, over
`Function.instructions()` with `isinstance` dispatch.
"""

from psikit.ir import BOOL_OPS, CMP_OPS, Function, Instr, PhiInstr


def _carries(ins) -> bool:
    """Whether `ins` is an instruction a guard can flow through."""
    return (not isinstance(ins, Instr) or ins.opcode in BOOL_OPS
            or ins.opcode == "select"
            or (ins.opcode == "mov" and isinstance(ins.operands[0], str)))


def _derives_guard(ins, guards: set[str]) -> bool:
    def is_guard(v) -> bool:
        return isinstance(v, str) and v in guards

    if isinstance(ins, PhiInstr):
        return all(is_guard(v) for _, v in ins.args)
    if not isinstance(ins, Instr):
        return all(is_guard(v) for _, v in ins.args)
    if ins.opcode in BOOL_OPS:
        vars_ = [o for o in ins.operands if isinstance(o, str)]
        return bool(vars_) and all(map(is_guard, vars_))
    if ins.opcode == "mov":
        return is_guard(ins.operands[0])
    return is_guard(ins.operands[1]) and is_guard(ins.operands[2])  # select


def infer_kinds(func: Function) -> dict[str, str]:
    """Map every parameter and defined variable to 'value' or 'guard'.

    Declared guards (`func.guards`) and compare results are guards for
    good.  Every other name that is not a parameter and whose definitions
    all carry guards starts as a guard; a round drops each one with a
    definition that does not derive a guard, until a round drops none.
    """
    defs = [ins for _, ins in func.instructions() if ins.dest is not None]
    fixed = set(func.guards) | {
        ins.dest for ins in defs
        if isinstance(ins, Instr) and ins.opcode in CMP_OPS}
    open_ = ({ins.dest for ins in defs} - fixed - set(func.params)
             - {ins.dest for ins in defs if not _carries(ins)})
    guards = fixed | open_
    changed = True
    while changed:
        changed = False
        for ins in defs:
            if ins.dest in open_ and ins.dest in guards \
                    and not _derives_guard(ins, guards):
                guards.discard(ins.dest)
                changed = True
    kinds = {name: "value" for name in func.params}
    kinds.update((ins.dest, "value") for ins in defs)
    kinds.update((name, "guard") for name in guards)
    return kinds
