"""Reference interpreter and differential-equivalence oracle.

Semantics: 64-bit wrapping integers, boolean guards.  A guarded instruction
whose guard is false is a no-op, so the target keeps whatever value it had
(in SSA form: stays undefined).  A psi evaluates to the value of the
rightmost argument whose predicate is true and traps if none is.  Reading
an undefined variable traps.  Memory is a bounds-checked integer array.
Reads happen in evaluation order: a guard before the operands, a store's
value before its address, a psi's predicates right to left and then only
the matching argument.  A value operation reads a guard register as 0 or 1;
a guard operation reads every operand as a register, so an immediate there
is an undefined read.

A function is decoded once per check (`decode`) and then run on each input
vector (`run`).  Decoding resolves everything that does not depend on the
input: each block becomes a tuple of per-instruction closures with the
opcode, operand kinds, guard polarity and the destination's kind (from
`Function.guards`) bound in, a phi table keyed by predecessor and a
terminator.  A block is decoded the first time a run enters it, so a check
pays only for the blocks its vectors reach.  Immediates are wrapped to 64
bits into a constant table that seeds each run's environment, so every
operand is a dictionary read.  Nothing is cached across checks: passes
mutate functions in place.

Each phi, body instruction and terminator is one step, and a run that
takes more than `budget` steps traps.  A block is charged all its steps
when a run enters it.  If they do not fit in the remaining budget, the
block runs as usual, but only its phis and body steps that fit, followed
by a step that traps, so results (trap kind, value and the memory image at
a trap) are those of a step-by-step count.

A run returns the plain tuple (trap, value, memory); `run` and
`eval_function` wrap it in an `ExecResult`, and `differential_check`
compares the tuples and builds `ExecResult`s only for a `Mismatch`.
`run` also wraps value arguments, which come from outside, to 64 bits;
the check's own vectors are in range already.  The check draws each
input vector (`draw_vector`) straight from `rng.getrandbits` by the rule
of `random.Random.randint` and `choice`: a draw from n values takes
n.bit_length() bits, is redrawn while it is n or more, and is then
offset by the low end.  That is what `randint` and `choice` do through
`_randbelow` on Python 3.10-3.13, so the vectors are theirs, value for
value, without their chain of calls.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from typing import Callable

from .ir import BOOL_OPS, Block, Function, Instr, PsiInstr, infer_kinds

MASK = (1 << 64) - 1
_INT_MIN, _INT_MAX = -(1 << 63), (1 << 63) - 1
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
    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


@dataclass
class ExecResult:
    value: int | None = None
    trap: str | None = None
    memory: list[int] = field(default_factory=list)


# A decoded instruction: runs on (env, memory).  An undefined read surfaces
# as the KeyError of its dictionary read, which `_run` turns into a trap.
Step = Callable[[dict, list], None]

# Terminator kinds of a decoded block.
_RET, _GOTO, _BR = "ret", "goto", "br"

# The key an operand read as a register decodes to when it is an immediate:
# never bound, so reading it traps like an undefined variable.
_UNBOUND = object()


@dataclass(frozen=True)
class DecodedFunction:
    name: str
    params: tuple[tuple[str, bool], ...]   # (name, is guard)
    constants: dict                        # immediate -> wrapped value
    entry: str
    blocks: _Blocks


class _Blocks(dict):
    """Decoded blocks by label.  A block is decoded the first time a run
    enters it, so a check pays only for the blocks its vectors reach."""

    def __init__(self, func: Function):
        super().__init__()
        self.source = func.block_map()
        self.guards = func.guards

    def __missing__(self, label: str) -> tuple:
        block = self[label] = _decode_block(self.source[label], self.guards)
        return block


def decode(func: Function) -> DecodedFunction:
    """Translate `func` for `run`.  Blocks are decoded as runs reach them,
    so `func` must not change while the result is in use."""
    constants = {}
    for block in func.blocks:
        for ins in (*block.body, block.term):
            if isinstance(ins, Instr):
                for operand in ins.operands:
                    if not isinstance(operand, str):
                        constants[operand] = wrap64(operand)
    params = tuple((name, name in func.guards) for name in func.params)
    return DecodedFunction(func.name, params, constants, func.entry,
                           _Blocks(func))


def _reg(operand):
    """Key of an operand read as a register (see _UNBOUND)."""
    return operand if isinstance(operand, str) else _UNBOUND


def _decode_block(block: Block, guards) -> tuple:
    """A plain tuple, which unpacks faster than a named one:
      phis   (dest, {predecessor label: source}) per phi
      body   the body's Steps
      size   steps: phis, body instructions and terminator
      term   _RET, _GOTO or _BR
      arg    ret value or br condition key (None: ret void)
      then   goto target, br target when the condition holds
      other  br target otherwise"""
    # reversed: the first argument for a label wins, as in PhiInstr.arg_for.
    phis = tuple((phi.dest, dict(reversed(phi.args))) for phi in block.phis)
    body = tuple([_decode_psi(ins) if isinstance(ins, PsiInstr)
                  else _decode_plain(ins, guards) for ins in block.body])
    op, ops = block.term.opcode, block.term.operands
    if op == "ret":
        term = (_RET, ops[0] if ops else None, None, None)
    elif op == "goto":
        term = (_GOTO, None, ops[0], None)
    else:
        term = (_BR, _reg(ops[0]), ops[1], ops[2])
    return (phis, body, len(phis) + len(body) + 1, *term)


def _decode_psi(ins: PsiInstr) -> Step:
    dest = ins.dest
    args = tuple((p.reg, p.positive, var) for p, var in reversed(ins.args))

    def step(env, memory):
        for guard, positive, var in args:
            if guard is None or bool(env[guard]) == positive:
                env[dest] = env[var]
                return
        raise _Trap(PSI_NONE_TRUE)
    return step


# Integer operations by opcode: a compare gives a bool, the others an int
# wrapped to 64 bits.  Each reads a guard register's bool as 0 or 1.
_COMPARE = {"cmp_eq": operator.eq, "cmp_lt": operator.lt,
            "cmp_le": operator.le}
_ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
          "and": operator.and_, "or": operator.or_,
          "neg": operator.neg, "not": operator.invert}


def _decode_plain(ins: Instr, guards) -> Step:
    # An operand read as an integer is its own key: a variable, or an
    # immediate in the constant table.
    op, dest, ops = ins.opcode, ins.dest, ins.operands
    if op in BOOL_OPS and dest in guards:
        a, b = _reg(ops[0]), _reg(ops[-1])
        if op == "not":
            def step(env, memory):
                env[dest] = not env[a]
        else:
            fn = _ARITH[op]   # & and | of two bools give a bool

            def step(env, memory):
                env[dest] = fn(bool(env[a]), bool(env[b]))
    elif op == "const":
        result = bool(ops[0]) if dest in guards else wrap64(ops[0])

        def step(env, memory):
            env[dest] = result
    elif op == "mov":
        a = ops[0]

        def step(env, memory):
            env[dest] = env[a]
    elif op == "select":
        c, a, b = _reg(ops[0]), ops[1], ops[2]

        def step(env, memory):
            env[dest] = env[a] if env[c] else env[b]
    elif op == "load":
        a = ops[0]

        def step(env, memory):
            address = env[a]
            if not 0 <= address < len(memory):
                raise _Trap(OUT_OF_BOUNDS)
            env[dest] = memory[address]
    elif op == "store":
        a, b = ops

        def step(env, memory):
            stored = +env[b]   # unary plus reads a guard register as 0 or 1
            address = env[a]
            if not 0 <= address < len(memory):
                raise _Trap(OUT_OF_BOUNDS)
            memory[address] = stored
    elif op in _COMPARE:
        fn, (a, b) = _COMPARE[op], ops

        def step(env, memory):
            env[dest] = fn(env[a], env[b])
    elif len(ops) == 1:   # neg, not
        fn, a = _ARITH[op], ops[0]

        def step(env, memory):
            x = fn(env[a])
            env[dest] = x if _INT_MIN <= x <= _INT_MAX else wrap64(x)
    else:
        # Unary plus turns the bool that & or | of two bools gives into an
        # int; wrap64 runs only when a result leaves the 64-bit range.
        fn, (a, b) = _ARITH[op], ops

        def step(env, memory):
            x = +fn(env[a], env[b])
            env[dest] = x if _INT_MIN <= x <= _INT_MAX else wrap64(x)
    guard = ins.guard
    if guard is None or guard.is_true():
        return step
    unguarded, g = step, guard.reg
    if guard.positive:
        def step(env, memory):
            if env[g]:
                unguarded(env, memory)
    else:
        def step(env, memory):
            if not env[g]:
                unguarded(env, memory)
    return step


def eval_function(func: Function, args: list[int],
                  mem: list[int] | None = None,
                  budget: int = DEFAULT_BUDGET) -> ExecResult:
    """Run `func` on the given arguments and memory image."""
    return run(decode(func), args, mem, budget)


def run(code: DecodedFunction, args: list[int], mem: list[int] | None,
        budget: int) -> ExecResult:
    """Run a decoded function on one input vector; each value argument is
    wrapped to 64 bits here, where arguments come from outside."""
    if len(args) != len(code.params):
        raise ValueError(f"@{code.name} expects {len(code.params)} args, "
                         f"got {len(args)}")
    args = [value if guard else wrap64(value)
            for (_, guard), value in zip(code.params, args)]
    return _result(_run(code, args, mem, budget))


def _result(outcome: tuple) -> ExecResult:
    trap, value, memory = outcome
    return ExecResult(value, trap, memory)


def _run(code: DecodedFunction, args: list[int], mem: list[int] | None,
         budget: int) -> tuple:
    """`run` on arguments of the right count, its value arguments already
    in the 64-bit range: (trap, value, memory)."""
    memory = list(mem) if mem is not None else [0] * DEFAULT_MEM_SIZE
    env = dict(code.constants)
    for (name, guard), value in zip(code.params, args):
        env[name] = bool(value) if guard else value
    blocks = code.blocks
    steps = 0
    label, prev = code.entry, None
    try:
        while True:
            phis, body, size, term, arg, then, other = blocks[label]
            steps += size
            if steps > budget:
                fit = size - steps + budget
                phis = phis[:fit]
                body = body[:fit - len(phis)] + (_exhausted,)
            if phis:
                env.update(_read_phis(phis, env, prev))
            try:
                for step in body:
                    step(env, memory)
                if term is _RET:
                    return None, None if arg is None else +env[arg], memory
                taken = term is _GOTO or env[arg]
            except KeyError:
                return UNDEFINED_READ, None, memory
            prev, label = label, then if taken else other
    except _Trap as trap:
        return trap.kind, None, memory


def _read_phis(phis, env, prev) -> list:
    """(dest, value) of each phi on the edge from `prev`; the phis read all
    their inputs before any of them is written."""
    values = []
    for dest, sources in phis:
        var = sources[prev]   # KeyError, as PhiInstr.arg_for, on a bad edge
        if var not in env:
            raise _Trap(UNDEFINED_READ)
        values.append((dest, env[var]))
    return values


def _exhausted(env, memory):
    """The step after the last one that fits in the budget."""
    raise _Trap(BUDGET_EXHAUSTED)


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


def draw_vector(rng: random.Random, guards: list[bool],
                mem_size: int) -> tuple[list[int], list[int]]:
    """One input vector: `rng.choice([0, 1])` for each guard parameter and
    `rng.randint(-4, 12)` for each other one, in order, then
    `rng.randint(-8, 8)` for each memory cell.  Each draw is that of
    `random.Random`: a draw from n values takes n.bit_length() bits and is
    redrawn while it is n or more."""
    bits = rng.getrandbits
    args = []
    for guard in guards:
        if guard:   # 2 values, 2 bits
            r = bits(2)
            while r >= 2:
                r = bits(2)
            args.append(r)
        else:       # 17 values, 5 bits
            r = bits(5)
            while r >= 17:
                r = bits(5)
            args.append(r - 4)
    mem = []
    for _ in range(mem_size):
        r = bits(5)
        while r >= 17:
            r = bits(5)
        mem.append(r - 8)
    return args, mem


def differential_check(f1: Function, f2: Function, trials: int = 32,
                       seed: int = 0, mem_size: int = DEFAULT_MEM_SIZE,
                       budget: int = DEFAULT_BUDGET) -> DiffReport:
    """Run both functions on pseudo-random inputs and compare results.

    Executions where f1 traps on an undefined read or an all-false psi are
    skipped: f1 is only partially defined there and f2 is free to differ.
    Comparing a function with itself proves nothing and raises ValueError.
    """
    if f1 is f2:
        raise ValueError(f"@{f1.name} compared with itself")
    if len(f1.params) != len(f2.params):
        raise ValueError("functions have different signatures")
    rng = random.Random(seed)
    code1, code2 = decode(f1), decode(f2)
    guards = [guard for _, guard in code1.params]
    mismatches: list[Mismatch] = []
    compared = skipped = 0
    for _ in range(trials):
        args, mem = draw_vector(rng, guards, mem_size)
        r1 = _run(code1, args, mem, budget)
        if r1[0] in (UNDEFINED_READ, PSI_NONE_TRUE):
            skipped += 1
            continue
        r2 = _run(code2, args, mem, budget)
        compared += 1
        if r1 != r2:
            mismatches.append(Mismatch(args, mem, _result(r1), _result(r2)))
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
    b = _Builder(name, ["a0", "a1"])
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
    b.func.guards = {n for n, kind in infer_kinds(b.func).items()
                     if kind == "guard"}
    return b.func
