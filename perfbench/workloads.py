"""Workload corpora: seeded generation of the programs each workload runs.

A workload is a fixed list of program *shapes* (CFG, variables, opcodes)
plus seed-dependent *values*: the benchmark seed redraws every integer
immediate that does not steer control flow or address memory, and the
input vectors of the differential check.  Compile cost in psikit depends
on program shape, and that cost is heavy-tailed across shapes (a handful
of programs near the predicate symbol budget take most of the time), so a
corpus whose shapes changed with the seed would spread far wider between
runs than any regression bound worth having.  `held_out=True` selects a
disjoint set of shapes, never used while tuning, to re-check a claim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The ladder's rungs: target instruction count of the generated input, the
# generator's statement count that lands near it, and programs per rung.
# Accepted programs are within LADDER_TOLERANCE of the target and have more
# compares than psikit's 16-symbol predicate budget, so that the ladder
# measures how the analyses scale rather than predicate enumeration (every
# shape from the 160 rung up has that many; some at the 100 rung do not).
# A 930-instruction rung (192 statements) would take 6-8 s per compile on a
# shared 2-core x86-64 virtual machine, too long to repeat within one run.
LADDER_RUNGS = ((100, 16, 3), (160, 28, 3), (290, 56, 2), (520, 104, 2))
LADDER_TOLERANCE = 0.1
LADDER_MIN_COMPARES = 17


@dataclass(frozen=True)
class Spec:
    """How a workload builds and checks its programs."""
    machine: str            # key into psikit.machine.PRESETS
    vectors: int            # differential-check input vectors per program
    via_text: bool          # print to .pir, then parse/validate/print back
    programs: int           # corpus size


SPECS = {
    # Criterion-3 traffic: generator seeds 0.. with tiny/small alternating.
    "fuzz_mix": Spec("full", 32, False, 40),
    # Size ladder through the textual round trip, as `psikit run` does.
    "ladder": Spec("full", 4, True, sum(n for _, _, n in LADDER_RUNGS)),
    # Partial predication and a wide differential check.
    "verify_partial": Spec("partial", 1024, False, 10),
}

# First generator seed of each corpus; held-out shapes start at HELD_OUT.
# fuzz_mix and verify_partial use disjoint seed ranges.
BASE_SEED = {"fuzz_mix": 0, "verify_partial": 500, "ladder": 0}
HELD_OUT = 100_000


@dataclass
class Program:
    """One generated input: the pristine function, its profile/rung label,
    the seed of its differential check and, for the ladder, its text."""
    func: object
    label: str
    check_seed: int
    text: str | None = None


def _perturb_values(func, rng: random.Random) -> None:
    """Redraw integer immediates that only feed data values.

    Loop counters (`t*` temporaries), loop bounds compared against them and
    memory slots are left alone, so the CFG, trip counts and addresses, and
    with them the compile work, stay those of the generator's shape."""
    for block in func.blocks:
        for ins in block.body:
            op = ins.opcode
            if op in ("load", "store") or ins.dest is None:
                continue
            if op.startswith("cmp_"):
                if not (isinstance(ins.operands[0], str)
                        and ins.operands[0].startswith("v")):
                    continue
            elif not ins.dest.startswith("v"):
                continue
            ins.operands = [rng.randint(-6, 6) if isinstance(o, int) else o
                            for o in ins.operands]


def _instr_count(func) -> int:
    return sum(1 for _ in func.instructions())


def ladder_shapes(interp, held_out: bool):
    """(rung label, generator seed, profile) for every ladder program."""
    base = HELD_OUT if held_out else BASE_SEED["ladder"]
    out = []
    for target, statements, programs in LADDER_RUNGS:
        profile = interp.SizeProfile(f"rung{target}", statements=statements,
                                     max_depth=3, max_loops=2,
                                     use_memory=True)
        found = 0
        gen_seed = base
        while found < programs:
            func = interp.gen_random_program(gen_seed, profile)
            compares = sum(1 for _, ins in func.instructions()
                           if ins.opcode.startswith("cmp_"))
            if (abs(_instr_count(func) - target) <= LADDER_TOLERANCE * target
                    and compares >= LADDER_MIN_COMPARES):
                out.append((f"rung{target}", gen_seed, profile))
                found += 1
            gen_seed += 1
    return out


def build_corpus(name: str, seed: int, psikit, held_out: bool = False):
    """Generate the programs of workload `name` for benchmark seed `seed`.

    `psikit` is a namespace holding the imported psikit modules (`interp`,
    `ir`); the same (name, seed, held_out) always gives the same corpus."""
    interp, ir = psikit.interp, psikit.ir
    spec = SPECS[name]
    rng = random.Random(f"{name}:{seed}")
    if name == "ladder":
        shapes = ladder_shapes(interp, held_out)
    else:
        base = BASE_SEED[name] + (HELD_OUT if held_out else 0)
        shapes = []
        for gen_seed in range(base, base + spec.programs):
            profile = "tiny" if gen_seed % 2 == 0 else "small"
            shapes.append((profile, gen_seed, profile))
    programs = []
    for label, gen_seed, profile in shapes:
        func = interp.gen_random_program(gen_seed, profile,
                                         name=f"f{gen_seed}")
        _perturb_values(func, rng)
        text = ir.print_module(ir.Module([func])) if spec.via_text else None
        programs.append(Program(func, label, rng.randrange(1 << 30), text))
    return programs
