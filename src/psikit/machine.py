"""Machine model: which opcodes accept a guard and which may be speculated.

Stores are never speculatable.  Loads are not speculatable either, because
speculation must not introduce traps and loads can fault on a bad address.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def machine_from_flags(name: str, predicable: str | None = None,
                       speculatable: str | None = None) -> MachineModel:
    """Build a machine from a preset name plus optional op-list overrides."""
    base = PRESETS[name]
    pred = base.predicable_ops
    spec = base.speculatable_ops
    if predicable:
        pred = frozenset(p.strip() for p in predicable.split(",") if p.strip())
    if speculatable:
        spec = frozenset(s.strip() for s in speculatable.split(",") if s.strip())
    return MachineModel(name, frozenset(pred) & REAL_OPS,
                        frozenset(spec) - NEVER_SPECULATABLE)
