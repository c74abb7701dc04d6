"""Reference interpreter and differential-equivalence oracle.

Semantics: 64-bit wrapping integers, boolean guards.  A guarded instruction
whose guard is false is a no-op, so the target keeps whatever value it had
(in SSA form: stays undefined).  A psi evaluates to the value of the
rightmost argument whose predicate is true and traps if none is.  Reading
an undefined variable traps.  Memory is a bounds-checked integer array.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .ir import Block, Function, Instr, Pred, PsiInstr, infer_kinds

MASK = (1 << 64) - 1
DEFAULT_BUDGET = 10 ** 6
DEFAULT_MEM_SIZE = 8

UNDEFINED_READ = "UndefinedRead"
PSI_NONE_TRUE = "PsiNoneTrue"
BUDGET_EXHAUSTED = "StepBudgetExhausted"
OUT_OF_BOUNDS = "OutOfBoundsMemory"


def wrap64(x: int) -> int:
    x &= MASK
    return x - (1 << 64) if x >> 63 else x


class _Trap(Exception):
    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind


@dataclass
class ExecResult:
    value: int | None = None
    trap: str | None = None
    memory: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.trap is None


def eval_function(func: Function, args: list[int],
                  mem: list[int] | None = None,
                  budget: int = DEFAULT_BUDGET) -> ExecResult:
    """Run `func` on the given arguments and memory image."""
    return execute(func, infer_kinds(func), args, mem, budget)


def execute(func: Function, kinds: dict[str, str], args: list[int],
             mem: list[int] | None, budget: int) -> ExecResult:
    """Run `func`, whose variable kinds (`ir.infer_kinds`) are `kinds`.
    `differential_check` infers the kinds once and runs every vector here."""
    if len(args) != len(func.params):
        raise ValueError(f"@{func.name} expects {len(func.params)} args, "
                         f"got {len(args)}")
    memory = list(mem) if mem is not None else [0] * DEFAULT_MEM_SIZE
    env: dict[str, int | bool] = {}
    for (name, kind), value in zip(func.params, args):
        env[name] = bool(value) if kind == "guard" else wrap64(value)

    blocks = func.block_map()

    def read(var: str):
        try:
            return env[var]
        except KeyError:
            raise _Trap(UNDEFINED_READ, f"%{var}") from None

    def read_int(operand) -> int:
        if isinstance(operand, int):
            return wrap64(operand)
        v = read(operand)
        return int(v) if isinstance(v, bool) else v

    def pred_holds(p: Pred | None) -> bool:
        if p is None or p.is_true():
            return True
        v = read(p.reg)
        return bool(v) == p.positive

    def addr(operand) -> int:
        a = read_int(operand)
        if not 0 <= a < len(memory):
            raise _Trap(OUT_OF_BOUNDS, str(a))
        return a

    steps = 0
    label = func.entry
    prev: str | None = None
    try:
        while True:
            block = blocks[label]
            # Phis read their inputs in parallel before any writes land.
            if block.phis:
                staged = []
                for phi in block.phis:
                    steps += 1
                    if steps > budget:
                        raise _Trap(BUDGET_EXHAUSTED)
                    staged.append((phi.dest, read(phi.arg_for(prev))))
                for dest, value in staged:
                    env[dest] = value
            for ins in block.body:
                steps += 1
                if steps > budget:
                    raise _Trap(BUDGET_EXHAUSTED)
                if isinstance(ins, PsiInstr):
                    env[ins.dest] = _eval_psi(ins, pred_holds, read)
                    continue
                if not pred_holds(ins.guard):
                    continue
                _eval_plain(ins, env, kinds, read, read_int, addr, memory)
            term = block.term
            steps += 1
            if steps > budget:
                raise _Trap(BUDGET_EXHAUSTED)
            if term.opcode == "ret":
                value = read_int(term.operands[0]) if term.operands else None
                return ExecResult(value=value, memory=memory)
            prev = label
            if term.opcode == "goto":
                label = term.operands[0]
            else:  # br
                cond = read(term.operands[0])
                label = term.operands[1] if cond else term.operands[2]
    except _Trap as trap:
        return ExecResult(trap=trap.kind, memory=memory)


def _eval_psi(ins: PsiInstr, pred_holds, read):
    for p, v in reversed(ins.args):
        if pred_holds(p):
            return read(v)
    raise _Trap(PSI_NONE_TRUE, f"%{ins.dest}")


def _eval_plain(ins: Instr, env, kinds, read, read_int, addr, memory):
    op = ins.opcode
    dest = ins.dest
    if op == "const":
        value = ins.operands[0]
        env[dest] = bool(value) if kinds.get(dest) == "guard" else wrap64(value)
    elif op == "mov":
        src = ins.operands[0]
        env[dest] = read(src) if isinstance(src, str) else wrap64(src)
    elif op in ("add", "sub", "mul"):
        a, b = read_int(ins.operands[0]), read_int(ins.operands[1])
        value = a + b if op == "add" else a - b if op == "sub" else a * b
        env[dest] = wrap64(value)
    elif op == "neg":
        env[dest] = wrap64(-read_int(ins.operands[0]))
    elif op == "cmp_eq":
        env[dest] = read_int(ins.operands[0]) == read_int(ins.operands[1])
    elif op == "cmp_lt":
        env[dest] = read_int(ins.operands[0]) < read_int(ins.operands[1])
    elif op == "cmp_le":
        env[dest] = read_int(ins.operands[0]) <= read_int(ins.operands[1])
    elif op in ("and", "or", "not"):
        if kinds.get(dest) == "guard":
            a = bool(read(ins.operands[0]))
            if op == "not":
                env[dest] = not a
            else:
                b = bool(read(ins.operands[1]))
                env[dest] = (a and b) if op == "and" else (a or b)
        else:
            a = read_int(ins.operands[0])
            if op == "not":
                env[dest] = wrap64(~a)
            else:
                b = read_int(ins.operands[1])
                env[dest] = wrap64(a & b if op == "and" else a | b)
    elif op == "select":
        cond = bool(read(ins.operands[0]))
        chosen = ins.operands[1] if cond else ins.operands[2]
        env[dest] = read(chosen) if isinstance(chosen, str) else wrap64(chosen)
    elif op == "load":
        env[dest] = memory[addr(ins.operands[0])]
    elif op == "store":
        memory[addr(ins.operands[0])] = read_int(ins.operands[1])
    else:  # pragma: no cover - parser rejects unknown opcodes
        raise AssertionError(f"unhandled opcode {op}")


# ---------------------------------------------------------------------------
# Differential checking

@dataclass
class Mismatch:
    args: list[int]
    memory: list[int]
    got_a: ExecResult
    got_b: ExecResult

    def __str__(self) -> str:
        def show(r: ExecResult) -> str:
            return f"trap={r.trap}" if r.trap else f"value={r.value} mem={r.memory}"
        return (f"args={self.args} mem={self.memory}: "
                f"a: {show(self.got_a)}  b: {show(self.got_b)}")


@dataclass
class DiffReport:
    trials: int
    compared: int
    skipped: int
    mismatches: list[Mismatch]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def differential_check(f1: Function, f2: Function, trials: int = 32,
                       seed: int = 0, mem_size: int = DEFAULT_MEM_SIZE,
                       budget: int = DEFAULT_BUDGET) -> DiffReport:
    """Run both functions on pseudo-random inputs and compare results.

    Executions where f1 traps on an undefined read or an all-false psi are
    skipped: f1 is only partially defined there and f2 is free to differ.
    """
    if len(f1.params) != len(f2.params):
        raise ValueError("functions have different signatures")
    rng = random.Random(seed)
    param_kinds = dict(f1.params)
    kinds1, kinds2 = infer_kinds(f1), infer_kinds(f2)
    mismatches: list[Mismatch] = []
    compared = skipped = 0
    for _ in range(trials):
        args = [rng.choice([0, 1]) if param_kinds[name] == "guard"
                else rng.randint(-4, 12)
                for name, _ in f1.params]
        mem = [rng.randint(-8, 8) for _ in range(mem_size)]
        r1 = execute(f1, kinds1, args, mem, budget)
        if r1.trap in (UNDEFINED_READ, PSI_NONE_TRUE):
            skipped += 1
            continue
        r2 = execute(f2, kinds2, args, mem, budget)
        compared += 1
        if r1.trap != r2.trap or r1.value != r2.value or r1.memory != r2.memory:
            mismatches.append(Mismatch(args, mem, r1, r2))
    return DiffReport(trials, compared, skipped, mismatches)


# ---------------------------------------------------------------------------
# Random structured programs

@dataclass(frozen=True)
class SizeProfile:
    name: str
    statements: int
    max_depth: int
    max_loops: int
    use_memory: bool


PROFILES = {
    "tiny": SizeProfile("tiny", statements=5, max_depth=2, max_loops=1,
                        use_memory=False),
    "small": SizeProfile("small", statements=12, max_depth=3, max_loops=2,
                         use_memory=True),
}


class _Builder:
    def __init__(self, name: str, params):
        self.func = Function(name, params)
        self.counter = 0
        self.tmp = 0
        self.current = self.new_block()

    def new_block(self) -> Block:
        block = Block(f"b{self.counter}")
        self.counter += 1
        self.func.blocks.append(block)
        return block

    def emit(self, op, dest, operands, guard=None):
        self.current.body.append(Instr(op, dest, list(operands), guard))

    def temp(self) -> str:
        self.tmp += 1
        return f"t{self.tmp}"

    def finish(self, op, operands):
        self.current.term = Instr(op, None, list(operands))


def gen_random_program(seed: int, profile: str | SizeProfile = "tiny",
                       name: str = "main") -> Function:
    """Deterministic structured program: nested if/else, counted loops,
    integer arithmetic, optional memory traffic.  Every variable is
    initialized at entry, loops are bounded, addresses are in range."""
    prof = PROFILES[profile] if isinstance(profile, str) else profile
    rng = random.Random(seed)
    nvars = rng.randint(2, 4)
    variables = [f"v{i}" for i in range(nvars)]
    params = [("a0", "value"), ("a1", "value")]
    b = _Builder(name, params)
    for v in variables:
        if rng.random() < 0.5:
            b.emit("const", v, [rng.randint(-6, 6)])
        else:
            b.emit("mov", v, [rng.choice(["a0", "a1"])])

    def operand():
        return rng.choice(variables) if rng.random() < 0.7 \
            else rng.randint(-5, 5)

    def simple_stmt():
        kind = rng.random()
        dest = rng.choice(variables)
        if kind < 0.55:
            op = rng.choice(["add", "sub", "mul", "and", "or"])
            b.emit(op, dest, [rng.choice(variables), operand()])
        elif kind < 0.65:
            b.emit("neg", dest, [rng.choice(variables)])
        elif kind < 0.75:
            b.emit("mov", dest, [operand()])
        elif prof.use_memory and kind < 0.88:
            slot = rng.randint(0, DEFAULT_MEM_SIZE - 1)
            if rng.random() < 0.5:
                b.emit("load", dest, [slot])
            else:
                b.emit("store", None, [slot, rng.choice(variables)])
        else:
            b.emit("select", dest,
                   [cond_var(), rng.choice(variables), operand()])

    def cond_var() -> str:
        t = b.temp()
        op = rng.choice(["cmp_eq", "cmp_lt", "cmp_le"])
        b.emit(op, t, [rng.choice(variables), operand()])
        return t

    def stmts(n: int, depth: int, loops_left: int) -> int:
        for _ in range(n):
            roll = rng.random()
            if roll < 0.25 and depth < prof.max_depth:
                loops_left = gen_if(depth, loops_left)
            elif roll < 0.35 and loops_left > 0:
                gen_loop(depth)
                loops_left -= 1
            else:
                simple_stmt()
        return loops_left

    def gen_if(depth: int, loops_left: int) -> int:
        cond = cond_var()
        then_b = b.new_block()
        else_b = b.new_block() if rng.random() < 0.6 else None
        join = b.new_block()
        b.finish("br", [cond, then_b.label,
                        else_b.label if else_b else join.label])
        b.current = then_b
        loops_left = stmts(rng.randint(1, 3), depth + 1, loops_left)
        b.finish("goto", [join.label])
        if else_b is not None:
            b.current = else_b
            loops_left = stmts(rng.randint(1, 3), depth + 1, loops_left)
            b.finish("goto", [join.label])
        b.current = join
        return loops_left

    def gen_loop(depth: int):
        k = b.temp()
        b.emit("const", k, [0])
        header = b.new_block()
        body = b.new_block()
        exit_b = b.new_block()
        b.finish("goto", [header.label])
        b.current = header
        c = b.temp()
        b.emit("cmp_lt", c, [k, rng.randint(1, 5)])
        b.finish("br", [c, body.label, exit_b.label])
        b.current = body
        stmts(rng.randint(1, 3), depth + 1, 0)
        b.emit("add", k, [k, 1])
        b.finish("goto", [header.label])
        b.current = exit_b

    stmts(prof.statements, 0, prof.max_loops)
    b.finish("ret", [rng.choice(variables)])
    return b.func
