"""Machine model: which opcodes accept a guard and which may be speculated.

Stores are never speculatable.  Loads are not speculatable either, because
speculation must not introduce traps and loads can fault on a bad address.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import OPCODES

PURE_OPS = frozenset({
    "const", "mov", "add", "sub", "mul", "neg",
    "cmp_eq", "cmp_lt", "cmp_le", "and", "or", "not", "select",
})
REAL_OPS = PURE_OPS | {"load", "store"}
NEVER_SPECULATABLE = frozenset({"load", "store", "br", "goto", "ret"})


@dataclass(frozen=True)
class MachineModel:
    name: str
    predicable_ops: frozenset[str]
    speculatable_ops: frozenset[str]

    def predicable(self, opcode: str) -> bool:
        return opcode in self.predicable_ops

    def speculatable(self, opcode: str) -> bool:
        return opcode in self.speculatable_ops and opcode not in NEVER_SPECULATABLE


FULL = MachineModel("full", predicable_ops=REAL_OPS, speculatable_ops=PURE_OPS)

# A select-style partially predicated target: conditional moves, predicated
# memory ops and select, everything else must be speculated.
PARTIAL = MachineModel("partial",
                       predicable_ops=frozenset({"mov", "load", "store",
                                                 "select"}),
                       speculatable_ops=PURE_OPS)

PRESETS = {"full": FULL, "partial": PARTIAL}


def _opcodes(flag: str, text: str) -> frozenset[str]:
    ops = frozenset(op.strip() for op in text.split(",") if op.strip())
    if ops - OPCODES:
        raise ValueError(f"--{flag}: unknown opcode {min(ops - OPCODES)!r}")
    return ops


def machine_from_flags(name: str, predicable: str | None = None,
                       speculatable: str | None = None) -> MachineModel:
    """Build a machine from a preset name plus optional op-list overrides;
    ValueError when an override names something that is not an opcode."""
    base = PRESETS[name]
    pred = base.predicable_ops
    spec = base.speculatable_ops
    if predicable:
        pred = _opcodes("predicable", predicable)
    if speculatable:
        spec = _opcodes("speculatable", speculatable)
    return MachineModel(name, pred & REAL_OPS, spec - NEVER_SPECULATABLE)
