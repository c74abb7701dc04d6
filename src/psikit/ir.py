"""Predicated integer IR: types, textual format, and structural validation.

A module is a list of functions; a function is a CFG of blocks holding
guarded instructions over virtual registers.  Registers come in two kinds:
`value` (64-bit wrapping integers) and `guard` (booleans).  Any instruction
may carry a guard prefix (`%p? %x = add %y, 1`) and is a no-op when the
guard is false.  Two pseudo instructions merge values: `phi` at control-flow
joins and `psi` for values defined under different predicates.

Textual form (one instruction per line, `#` starts a comment):

    module   := func*
    func     := "func" "@"ident "(" [param ("," param)*] ")" "{" block+ "}"
    param    := "%"ident [":guard"]
    block    := ident ":" line*
    line     := [pred "?"] instr
    pred     := "1" | ["!"] "%"ident
    instr    := "%"ident [":guard"] "=" opcode operand ("," operand)*
              | "%"ident "=" "phi" "(" ident ":" "%"ident ("," ident ":" "%"ident)* ")"
              | "%"ident "=" "psi" "(" pred "?" "%"ident ("," pred "?" "%"ident)* ")"
              | "store" operand "," operand
              | "br" "%"ident "," ident "," ident | "goto" ident | "ret" ["%"ident]
    operand  := "%"ident | integer

Kinds are held by `Function.guards`, the set of the function's guard-kind
variables, which the printer, `validate`, the guard env and the
interpreter read.  `infer_kinds` fills it once, where a function enters
psikit (the parser, the program generator).  A name a pass creates takes
the kind of the name it is made from (`NameAllocator.fresh`); the one
made from nothing, if-conversion's conjunction temporary, is a guard.
The inference is a greatest fixpoint: guard parameters, `:guard` markers
and compare results are guards; a name defined only by mov, and/or/not,
select, phi and psi is a guard unless one of its definitions does not
derive one, so a guard that a loop carries through a phi stays a guard.
The printer writes `:guard` on parameters and on `const`/`load` results
only, where the opcode cannot tell.  A marker or a guard parameter must
agree with what each definition of the name yields, or the printed text
would lose the kind.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field

OPCODES = {
    "const", "mov", "add", "sub", "mul", "neg",
    "cmp_eq", "cmp_lt", "cmp_le", "and", "or", "not",
    "select", "load", "store", "br", "goto", "ret", "phi", "psi",
}
TERMINATORS = {"br", "goto", "ret"}
CMP_OPS = {"cmp_eq", "cmp_lt", "cmp_le"}
BOOL_OPS = {"and", "or", "not"}
# Operand arity for plain instructions (None entries are handled specially).
ARITY = {
    "const": 1, "mov": 1, "add": 2, "sub": 2, "mul": 2, "neg": 1,
    "cmp_eq": 2, "cmp_lt": 2, "cmp_le": 2, "and": 2, "or": 2, "not": 1,
    "select": 3, "load": 1, "store": 2, "goto": 1, "br": 3,
}
# Index of the first operand that names a block; from there on, every
# operand does (`Instr.labels()`).  `Instr.uses()`, which every analysis
# calls per instruction, reads it without the call.
FIRST_LABEL = {"br": 1, "goto": 0}


class ParseError(Exception):
    """Syntax or semantic error in IR text, with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Pred:
    """A simple predicate: a guard register with polarity, or constant true."""

    reg: str | None = None
    positive: bool = True

    def is_true(self) -> bool:
        return self.reg is None

    def __str__(self) -> str:
        if self.reg is None:
            return "1"
        return ("%" if self.positive else "!%") + self.reg


TRUE = Pred()


@dataclass
class Instr:
    """A plain (non-phi, non-psi) instruction, possibly guarded."""

    opcode: str
    dest: str | None
    operands: list
    guard: Pred | None = None

    def uses(self) -> list[str]:
        """Every variable the instruction reads, in the order `rename_uses`
        renames them: its variable operands (the `labels()` excluded), then
        its guard register."""
        first = FIRST_LABEL.get(self.opcode)
        operands = self.operands if first is None else self.operands[:first]
        out = [o for o in operands if isinstance(o, str)]
        if self.guard is not None:
            out.append(self.guard.reg)
        return out

    def labels(self) -> list[str]:
        """The operands that name blocks; they trail the others."""
        first = FIRST_LABEL.get(self.opcode)
        return [] if first is None else self.operands[first:]

    def clone(self) -> "Instr":
        return Instr(self.opcode, self.dest, list(self.operands), self.guard)


@dataclass
class PhiInstr:
    """Control-flow merge: one argument per CFG predecessor."""

    dest: str
    args: list[tuple[str, str]]  # (predecessor label, variable)

    opcode = "phi"
    guard = None

    def uses(self) -> list[str]:
        return [v for _, v in self.args]

    def clone(self) -> "PhiInstr":
        return PhiInstr(self.dest, list(self.args))

    def arg_for(self, label: str) -> str:
        for lbl, v in self.args:
            if lbl == label:
                return v
        raise KeyError(label)


@dataclass
class PsiInstr:
    """Predicated merge: value is the rightmost argument whose predicate holds."""

    dest: str
    args: list[tuple[Pred, str]]

    opcode = "psi"
    guard = None

    def uses(self) -> list[str]:
        """Argument by argument, the predicate register, then the value."""
        out = []
        for p, v in self.args:
            if p.reg is not None:
                out.append(p.reg)
            out.append(v)
        return out

    def clone(self) -> "PsiInstr":
        return PsiInstr(self.dest, list(self.args))


Instruction = Instr | PhiInstr | PsiInstr


def rename_uses(ins: Instruction, rename) -> None:
    """Replace each variable `ins` reads by `rename(var)`, in the order of
    `ins.uses()`.  Labels and `dest` stay as they are."""
    if isinstance(ins, PhiInstr):
        ins.args = [(label, rename(v)) for label, v in ins.args]
    elif isinstance(ins, PsiInstr):
        ins.args = [(Pred(rename(p.reg), p.positive) if p.reg else p,
                     rename(v)) for p, v in ins.args]
    else:
        labels = ins.labels()
        operands = ins.operands[:-len(labels)] if labels else ins.operands
        ins.operands = [rename(o) if isinstance(o, str) else o
                        for o in operands] + labels
        if ins.guard is not None:
            ins.guard = Pred(rename(ins.guard.reg), ins.guard.positive)


@dataclass
class Block:
    label: str
    phis: list[PhiInstr] = field(default_factory=list)
    body: list[Instruction] = field(default_factory=list)
    term: Instr | None = None

    def instructions(self):
        yield from self.phis
        yield from self.body
        if self.term is not None:
            yield self.term

    def successors(self) -> list[str]:
        return self.term.labels() if self.term is not None else []

    def clone(self) -> "Block":
        return Block(self.label, [phi.clone() for phi in self.phis],
                     [ins.clone() for ins in self.body],
                     None if self.term is None else self.term.clone())


@dataclass
class Function:
    """A CFG of blocks over virtual registers.  `params` names the inputs in
    order.  `guards` holds every variable's kind: the guard-kind names the
    function takes or defines (a name no longer defined may stay); every
    other name is a value."""

    name: str
    params: list[str]
    blocks: list[Block] = field(default_factory=list)
    guards: set[str] = field(default_factory=set)

    @property
    def entry(self) -> str:
        return self.blocks[0].label

    def block_map(self) -> dict[str, Block]:
        return {b.label: b for b in self.blocks}

    def predecessors(self) -> dict[str, list[str]]:
        preds: dict[str, list[str]] = {b.label: [] for b in self.blocks}
        for b in self.blocks:
            if b.term is None:
                continue
            for t in b.term.labels():
                if t in preds and b.label not in preds[t]:
                    preds[t].append(b.label)
        return preds

    def instructions(self):
        for b in self.blocks:
            for ins in b.instructions():
                yield b, ins

    def defs(self) -> dict[str, Instruction]:
        out: dict[str, Instruction] = {}
        for _, ins in self.instructions():
            if ins.dest is not None:
                out[ins.dest] = ins
        return out

    def var_names(self) -> set[str]:
        """Every name the function mentions: its parameters, and each
        instruction's destination and `uses()`."""
        names = list(self.params)
        for block in self.blocks:
            for phi in block.phis:
                names.append(phi.dest)
                names += phi.uses()
            for ins in block.body:
                names.append(ins.dest)
                names += ins.uses()
            if block.term is not None:
                names += block.term.uses()
        out = set(names)
        out.discard(None)  # the destination of a store
        return out

    def clone(self) -> "Function":
        """A copy with its own blocks, instructions and containers; what
        cannot change in place (names, `Pred`s, argument tuples) is shared."""
        return Function(self.name, list(self.params),
                        [b.clone() for b in self.blocks],
                        set(self.guards))


@dataclass
class Module:
    functions: list[Function] = field(default_factory=list)

    def function(self, name: str) -> Function:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)

    def clone(self) -> "Module":
        return Module([f.clone() for f in self.functions])


class NameAllocator:
    """Deterministic fresh-variable names for one function: `root`, else
    `root.i` with the smallest unused i.  Names are only ever added, so
    that i never decreases; the search for a root resumes where its last
    one stopped.  `names`, when given, are the function's names
    (`Function.var_names()`), already collected; the allocator owns them.
    A fresh name takes the kind of `base`: it is in `func.guards` exactly
    when `base` is, whatever a definition that a pass removed left there."""

    def __init__(self, func: Function, names: set[str] | None = None):
        self.used = func.var_names() if names is None else names
        self.func = func
        self._next: dict[str, int] = {}

    def fresh(self, base: str) -> str:
        name = root = base.split(".")[0] or "t"
        if root in self.used:
            i = self._next.get(root, 1)
            while f"{root}.{i}" in self.used:
                i += 1
            self._next[root] = i + 1
            name = f"{root}.{i}"
        self.used.add(name)
        if base in self.func.guards:
            self.func.guards.add(name)
        else:
            self.func.guards.discard(name)
        return name


# ---------------------------------------------------------------------------
# Kind inference

# The opcodes whose result is a guard when their operands are guards.
_CARRIERS = BOOL_OPS | {"mov", "select", "phi", "psi"}


def infer_kinds(func: Function) -> dict[str, str]:
    """Map every parameter and defined variable to 'value' or 'guard'.

    `func.guards` holds the declared guards (guard parameters and `:guard`
    markers); they and compare results are guards.  Every other name that
    is no parameter and is defined by `_CARRIERS` alone starts as a guard
    and becomes a value as soon as one of its definitions does not derive
    one (`_yields_guard`): the greatest fixpoint, which keeps a guard that
    a loop carries through a phi.  Everything else is a value.
    """
    guards = set(func.guards)
    blocked = set(func.params)  # names with a definition that is no carrier
    carried: dict[str, list[Instruction]] = {}
    for block in func.blocks:
        for seq in (block.phis, block.body):
            for ins in seq:
                dest = ins.dest
                if dest is None:
                    continue
                if ins.opcode in CMP_OPS:
                    guards.add(dest)
                elif ins.opcode in _CARRIERS:
                    carried.setdefault(dest, []).append(ins)
                else:
                    blocked.add(dest)
    pending = [name for name in carried
               if name not in blocked and name not in guards]
    guards.update(pending)
    changed = True
    while changed:
        changed = False
        for name in pending:
            if name in guards and not all(_yields_guard(ins, guards)
                                          for ins in carried[name]):
                guards.discard(name)
                changed = True
    return (dict.fromkeys([*blocked, *carried], "value")
            | dict.fromkeys(guards, "guard"))


# ---------------------------------------------------------------------------
# Parsing

# Each match is one token, the group, after the blanks and the comment
# before it.  Its first character gives its kind: `%` a variable, `@` a
# function name, `-` or a digit an integer, a letter or `_` a word (block
# labels, opcodes and keywords), else punctuation or a newline.  The empty
# token ends the text.  A character that starts no token ends the scan: the
# match before the end holds it and the rest of the text.
_TOKEN = (r"%[A-Za-z_][A-Za-z0-9_.]*|@[A-Za-z_][A-Za-z0-9_.]*|-?[0-9]+"
          r"|[A-Za-z_][A-Za-z0-9_.]*|[(){},:=?!\n]")
_TOKEN_RE = re.compile(r"[ \t\r]*(?:#[^\n]*)?(" + _TOKEN + r"|\Z|[\s\S]+)")
_GOOD_TOKEN_RE = re.compile(_TOKEN)
_WORD_START = frozenset(string.ascii_letters + "_")
_INT_START = frozenset("-0123456789")
_PRED_START = _INT_START | {"%"}


class _Parser:
    """Recursive descent over the token list.  A grammar method takes the
    index of its first token and returns the index after its last (with
    what it built, if anything); it reads at most one token past one it
    has checked, so one token of padding after the end suffices."""

    def __init__(self, text: str):
        self.text = text
        toks = _TOKEN_RE.findall(text)
        last = toks[-2] if len(toks) > 1 else ""
        if last and not _GOOD_TOKEN_RE.fullmatch(last):
            self.error(f"unexpected character {last[0]!r}", len(toks) - 2)
        toks.append("")
        self.toks = toks

    def error(self, message: str, i: int):
        """Raise at token `i`, located by scanning the text again."""
        text = self.text
        for k, m in enumerate(_TOKEN_RE.finditer(text)):
            start = m.start(1)
            if k == i:
                break
        raise ParseError(message, text.count("\n", 0, start) + 1,
                         start - text.rfind("\n", 0, start))

    def expected(self, want: str, i: int):
        self.error(f"expected {want!r}, found {self.toks[i] or 'eof'!r}", i)

    def newlines(self, i: int) -> int:
        toks = self.toks
        while toks[i] == "\n":
            i += 1
        return i

    # -- grammar ---------------------------------------------------------

    def module(self) -> Module:
        mod = Module()
        i = self.newlines(0)
        while self.toks[i]:
            func, i = self.function(i)
            mod.functions.append(func)
            i = self.newlines(i)
        return mod

    def function(self, i: int) -> tuple[Function, int]:
        toks = self.toks
        if toks[i] != "func":
            self.expected("func", i)
        if toks[i + 1][:1] != "@":
            self.expected("fname", i + 1)
        func = Function(name=toks[i + 1][1:], params=[])
        self.labels: set[str] = set()
        self.label_refs: list[tuple[int, str]] = []
        if toks[i + 2] != "(":
            self.expected("(", i + 2)
        i += 3
        seen = set()
        while toks[i] != ")":
            var = toks[i][1:]
            if toks[i][:1] != "%":
                self.expected("var", i)
            i += 1
            if toks[i] == ":":
                if toks[i + 1] != "guard":
                    self.expected("guard", i + 1)
                func.guards.add(var)
                i += 2
            if var in seen:
                self.error(f"duplicate parameter %{var}", i)
            seen.add(var)
            func.params.append(var)
            if toks[i] == ",":
                i += 1
                if toks[i] == ")":
                    self.expected("var", i)
            elif toks[i] != ")":
                self.error("expected ',' or ')' in parameter list", i)
        if toks[i + 1] != "{":
            self.expected("{", i + 1)
        i = self.newlines(i + 2)
        while toks[i] != "}":
            i = self.block(func, i)
        i += 1
        self.check_targets()
        if not func.blocks:
            self.error(f"function @{func.name} has no blocks", i)
        func.guards = {n for n, kind in infer_kinds(func).items()
                       if kind == "guard"}
        return func, i

    def block(self, func: Function, i: int) -> int:
        toks = self.toks
        label = toks[i]
        if label[:1] not in _WORD_START or toks[i + 1] != ":":
            self.error("expected block label", i)
        if label in self.labels:
            self.error(f"duplicate block label {label}", i)
        self.labels.add(label)
        block = Block(label)
        func.blocks.append(block)
        i = self.newlines(i + 2)
        while True:
            tok = toks[i]
            if not tok or tok == "}":
                break
            if tok[0] in _WORD_START and toks[i + 1] == ":":
                break  # next block
            i = self.instruction(func, block, i)
            while toks[i] == "\n":
                i += 1
        if block.term is None:
            self.error(f"block {label} has no terminator", i)
        return i

    def pred(self, i: int) -> tuple[Pred, int]:
        tok = self.toks[i]
        if tok[:1] in _INT_START:
            if tok != "1":
                self.error("predicate literal must be 1", i)
            return TRUE, i + 1
        positive = tok != "!"
        if not positive:
            i += 1
            tok = self.toks[i]
        if tok[:1] != "%":
            self.expected("var", i)
        return Pred(tok[1:], positive), i + 1

    def instruction(self, func: Function, block: Block, i: int) -> int:
        toks = self.toks
        start = i
        if block.term is not None:
            self.error(f"instruction after terminator in block {block.label}",
                       i)
        guard = None
        # A guard prefix is a pred followed by '?' before any '='.
        tok = toks[i]
        if tok == "!" or (toks[i + 1] == "?" and tok[:1] in _PRED_START):
            guard, i = self.pred(i)
            if toks[i] != "?":
                self.expected("?", i)
            i += 1
            if guard.is_true():
                guard = None
            tok = toks[i]
        if tok in TERMINATORS:
            block.term, i = self.terminator(guard, i)
            return i
        if tok == "store":
            operands, end = self.operands(i + 1)
            if len(operands) != 2:
                self.error("store takes 2 operands", i)
            block.body.append(Instr("store", None, operands, guard))
            return end
        if tok[:1] != "%":
            self.expected("var", i)
        dest = tok[1:]
        i += 1
        if toks[i] == ":":
            if toks[i + 1] != "guard":
                self.expected("guard", i + 1)
            func.guards.add(dest)
            i += 2
        if toks[i] != "=":
            self.expected("=", i)
        i += 1
        op = toks[i]
        if op not in OPCODES:
            if op[:1] not in _WORD_START:
                self.expected("word", i)
            self.error(f"unknown opcode {op!r}", i)
        if op in TERMINATORS:
            self.error(f"{op} does not produce a result", i)
        if op == "phi":
            if guard is not None:
                self.error("phi cannot be guarded", start)
            if block.body:
                self.error("phi must precede non-phi instructions", start)
            phi, i = self.phi(dest, i + 1)
            block.phis.append(phi)
            return i
        if op == "psi":
            if guard is not None:
                self.error("psi results are not guarded", start)
            psi, i = self.psi(dest, i + 1)
            block.body.append(psi)
            return i
        operands, end = self.operands(i + 1)
        arity = ARITY.get(op)
        if arity is not None and len(operands) != arity:
            self.error(f"{op} takes {arity} operand(s), got {len(operands)}",
                       i)
        if op == "const" and not isinstance(operands[0], int):
            self.error("const takes an integer literal", i)
        block.body.append(Instr(op, dest, operands, guard))
        return end

    def phi(self, dest: str, i: int) -> tuple[PhiInstr, int]:
        toks = self.toks
        if toks[i] != "(":
            self.expected("(", i)
        args = []
        while True:
            lbl, i = self.label_ref(i + 1, "phi references undefined block")
            if toks[i] != ":":
                self.expected(":", i)
            if toks[i + 1][:1] != "%":
                self.expected("var", i + 1)
            args.append((lbl, toks[i + 1][1:]))
            i += 2
            if toks[i] != ",":
                break
        if toks[i] != ")":
            self.expected(")", i)
        return PhiInstr(dest, args), i + 1

    def psi(self, dest: str, i: int) -> tuple[PsiInstr, int]:
        toks = self.toks
        if toks[i] != "(":
            self.expected("(", i)
        args = []
        while True:
            p, i = self.pred(i + 1)
            if toks[i] != "?":
                self.expected("?", i)
            if toks[i + 1][:1] != "%":
                self.expected("var", i + 1)
            args.append((p, toks[i + 1][1:]))
            i += 2
            if toks[i] != ",":
                break
        if toks[i] != ")":
            self.expected(")", i)
        return PsiInstr(dest, args), i + 1

    def operands(self, i: int) -> tuple[list, int]:
        toks = self.toks
        out = []
        while True:
            tok = toks[i]
            if tok[:1] == "%":
                out.append(tok[1:])
            elif tok[:1] in _INT_START:
                out.append(int(tok))
            else:
                self.error(f"expected operand, found {tok or 'eof'!r}", i)
            if toks[i + 1] != ",":
                return out, i + 1
            i += 2

    def terminator(self, guard: Pred | None, i: int) -> tuple[Instr, int]:
        toks = self.toks
        tok = toks[i]
        if guard is not None:
            self.error(f"{tok} cannot be guarded", i)
        if tok == "goto":
            target, i = self.label_ref(i + 1, "undefined block")
            return Instr("goto", None, [target]), i
        if tok == "br":
            if toks[i + 1][:1] != "%":
                self.expected("var", i + 1)
            if toks[i + 2] != ",":
                self.expected(",", i + 2)
            t1, j = self.label_ref(i + 3, "undefined block")
            if toks[j] != ",":
                self.expected(",", j)
            t2, j = self.label_ref(j + 1, "undefined block")
            return Instr("br", None, [toks[i + 1][1:], t1, t2]), j
        # ret
        if toks[i + 1][:1] == "%":
            return Instr("ret", None, [toks[i + 1][1:]]), i + 2
        if toks[i + 1][:1] in _INT_START:
            self.expected("var", i + 1)
        return Instr("ret", None, []), i + 1

    def label_ref(self, i: int, what: str) -> tuple[str, int]:
        """Read a block label that must name a block of the function;
        `check_targets` reports it as `what` if it does not."""
        if self.toks[i][:1] not in _WORD_START:
            self.expected("word", i)
        self.label_refs.append((i, what))
        return self.toks[i], i + 1

    def check_targets(self):
        for i, what in self.label_refs:
            if self.toks[i] not in self.labels:
                self.error(f"{what} {self.toks[i]}", i)


def parse_module(text: str) -> Module:
    """Parse IR text into a Module; raises ParseError on malformed input."""
    return _Parser(text).module()


# ---------------------------------------------------------------------------
# Printing

def _format_instr(ins: Instruction, guards: set[str]) -> str:
    if isinstance(ins, PhiInstr):
        args = ", ".join(f"{lbl}: %{v}" for lbl, v in ins.args)
        return f"%{ins.dest} = phi({args})"
    if isinstance(ins, PsiInstr):
        args = ", ".join(f"{p} ? %{v}" for p, v in ins.args)
        return f"%{ins.dest} = psi({args})"
    prefix = f"{ins.guard}? " if ins.guard is not None else ""
    ops = [f"%{o}" if isinstance(o, str) else str(o) for o in ins.operands]
    if ins.opcode in FIRST_LABEL:
        ops[FIRST_LABEL[ins.opcode]:] = ins.labels()
    text = f"{ins.opcode} {', '.join(ops)}" if ops else ins.opcode
    if ins.dest is None:
        return prefix + text
    marker = (":guard" if ins.opcode in ("const", "load")
              and ins.dest in guards else "")
    return f"{prefix}%{ins.dest}{marker} = {text}"


def print_function(func: Function) -> str:
    guards = func.guards
    params = ", ".join(
        f"%{n}:guard" if n in guards else f"%{n}" for n in func.params)
    lines = [f"func @{func.name}({params}) {{"]
    for b in func.blocks:
        lines.append(f"{b.label}:")
        for ins in b.instructions():
            lines.append("  " + _format_instr(ins, guards))
    lines.append("}")
    return "\n".join(lines) + "\n"


def print_module(mod: Module) -> str:
    """Render a module as text; parse_module round-trips the result."""
    return "\n".join(print_function(f) for f in mod.functions)


# ---------------------------------------------------------------------------
# Validation

@dataclass(frozen=True)
class Diagnostic:
    severity: str  # 'error' | 'warning'
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.where}: {self.message}"


def _check_kind_uses(func: Function, defined, diags: list[Diagnostic]):
    """Kind errors, read from `func.guards`.  An argument that is not among
    the `defined` names has no kind to mix: it is reported as undefined."""
    guards = func.guards

    def err(block, msg):
        diags.append(Diagnostic("error", f"@{func.name}/{block.label}", msg))

    for block in func.blocks:
        for ins in block.instructions():
            if ins.guard is not None and ins.guard.reg not in guards:
                err(block, f"guard %{ins.guard.reg} is not guard-kind")
            if ins.dest in guards and not _yields_guard(ins, guards):
                err(block, f"guard-kind %{ins.dest} is defined by "
                           f"{ins.opcode}, which yields a value")
            elif (ins.opcode in _CARRIERS and ins.dest not in guards
                  and _yields_guard(ins, guards)):
                err(block, f"value-kind %{ins.dest} is defined by "
                           f"{ins.opcode}, which yields a guard")
            if isinstance(ins, PsiInstr):
                for p, _ in ins.args:
                    if p.reg is not None and p.reg not in guards:
                        err(block, f"psi predicate %{p.reg} is not guard-kind")
            if isinstance(ins, (PhiInstr, PsiInstr)):
                if len({v in guards for _, v in ins.args if v in defined}) > 1:
                    err(block, f"{ins.opcode} %{ins.dest} mixes value and "
                               "guard args")
                continue
            if ins.opcode == "br" and ins.operands[0] not in guards:
                err(block, f"br condition %{ins.operands[0]} is not guard-kind")
            elif ins.opcode == "select":
                if ins.operands[0] not in guards:
                    err(block, "select condition must be a guard register")
            elif ins.opcode in CMP_OPS:
                for o in ins.operands:
                    if o in guards:
                        err(block, f"{ins.opcode} operand %{o} must be value-kind")
            elif ins.opcode in BOOL_OPS:
                ks = {o in guards for o in ins.operands if isinstance(o, str)}
                if True in ks and (len(ks) > 1 or any(
                        isinstance(o, int) for o in ins.operands)):
                    err(block, f"{ins.opcode} mixes guard and value operands")
            elif ins.opcode in ("add", "sub", "mul", "neg", "load", "store",
                                "ret"):
                # Operands only: the guard is read as a guard (above).
                for o in ins.operands:
                    if o in guards:
                        err(block, f"guard %{o} used as a value in {ins.opcode}")


def _yields_guard(ins: Instruction, guards: set[str]) -> bool:
    """Whether `ins` yields a guard, `guards` being the guard-kind names:
    a phi or psi of guards, a mov of one, a select between two, an
    and/or/not with a guard operand and no value register, a compare, and
    a const or load, whose `:guard` marker the printer writes.
    `infer_kinds` derives guards by it; `validate` checks by it that the
    printed text keeps every variable's kind."""
    op = ins.opcode
    if op in ("phi", "psi"):
        return all(v in guards for _, v in ins.args)
    if op in BOOL_OPS:
        regs = [o for o in ins.operands if isinstance(o, str)]
        return bool(regs) and all(o in guards for o in regs)
    if op in ("mov", "select"):
        sources = ins.operands[1:] if op == "select" else ins.operands
        return all(o in guards for o in sources)
    return op not in ("add", "sub", "mul", "neg")


def validate(mod: Module, mode: str = "non_ssa") -> list[Diagnostic]:
    """Structural validation; in 'ssa' mode also single-def and dominance."""
    if mode not in ("non_ssa", "ssa"):
        raise ValueError(f"validation mode must be non_ssa or ssa: {mode!r}")
    diags: list[Diagnostic] = []
    names = set()
    for func in mod.functions:
        if func.name in names:
            diags.append(Diagnostic("error", f"@{func.name}",
                                    "duplicate function name"))
        names.add(func.name)
        diags.extend(_validate_function(func, mode))
    return diags


def _validate_function(func: Function, mode: str) -> list[Diagnostic]:
    from .analysis import Analyses, reachable_blocks  # analysis imports ir

    diags: list[Diagnostic] = []

    def err(where, msg):
        diags.append(Diagnostic("error", f"@{func.name}/{where}", msg))

    cache = Analyses(func)
    for block in func.blocks:
        if block.term is None:
            err(block.label, "missing terminator")
            continue
        if block.term.opcode not in TERMINATORS:
            err(block.label, f"terminator is {block.term.opcode}")
        for ins in block.body:
            if isinstance(ins, Instr) and ins.opcode in TERMINATORS:
                err(block.label, "terminator in mid-block")
        for t in block.term.labels():
            if t not in cache.blocks:
                err(block.label, f"undefined branch target {t}")
        for phi in block.phis:
            if block.label == func.entry:
                err(block.label, f"phi %{phi.dest} in the entry block: the "
                                 "function's inputs enter it by no edge")
                continue
            got = sorted(lbl for lbl, _ in phi.args)
            want = sorted(cache.preds[block.label])
            if got != want:
                err(block.label,
                    f"phi %{phi.dest} args {got} do not match predecessors {want}")
        for ins in block.body:
            if isinstance(ins, PsiInstr) and not ins.args:
                err(block.label, f"psi %{ins.dest} has no arguments")

    defs = {}
    params = set(func.params)
    multi = set()
    for block in func.blocks:
        for ins in block.instructions():
            if ins.dest is not None:
                if ins.dest in defs or ins.dest in params:
                    multi.add(ins.dest)
                defs[ins.dest] = ins
    defined = defs.keys() | params
    _check_kind_uses(func, defined, diags)
    undefined = dict.fromkeys(v for _, ins in func.instructions()
                              for v in ins.uses() if v not in defined)
    for v in undefined:
        diags.append(Diagnostic("error", f"@{func.name}",
                                f"use of undefined variable %{v}"))

    # Unreachable blocks are legal but analyses drop them.
    seen = set(reachable_blocks(func))
    for b in func.blocks:
        if b.label not in seen:
            diags.append(Diagnostic("warning", f"@{func.name}/{b.label}",
                                    "unreachable block"))

    if mode == "ssa" and not any(d.severity == "error" for d in diags):
        for v in sorted(multi):
            diags.append(Diagnostic("error", f"@{func.name}",
                                    f"multiple definitions of %{v}"))
        if not multi:
            diags.extend(_check_ssa_dominance(cache))
    return diags


def _check_ssa_dominance(cache) -> list[Diagnostic]:
    """Dominance of every use, asked of `analysis.Analyses.defined_at`."""
    diags: list[Diagnostic] = []
    func, blocks, defined_at = cache.func, cache.blocks, cache.defined_at
    for block in func.blocks:
        for ins in block.instructions():
            at = cache.locate(ins)
            if isinstance(ins, PhiInstr):
                bad = [f"phi arg %{v} does not dominate edge from {lbl}"
                       for lbl, v in ins.args
                       if not defined_at(v, cache.locate(blocks[lbl].term))]
            elif isinstance(ins, PsiInstr):
                bad = [f"psi {kind} %{var}{tail} does not dominate the psi"
                       for p, v in ins.args
                       for kind, var, tail in (("arg", v, " definition"),
                                               ("predicate", p.reg, ""))
                       if var is not None and not defined_at(var, at, True)]
            else:
                bad = [f"use of %{v} not dominated by its definition"
                       for v in ins.uses() if not defined_at(v, at, True)]
            diags.extend(Diagnostic("error", f"@{func.name}/{block.label}", m)
                         for m in bad)
    return diags


# ---------------------------------------------------------------------------
# Structural comparison up to renaming

def alpha_equivalent(a: Function, b: Function) -> bool:
    """True if the two functions are identical up to a bijective renaming
    of variables and block labels: their canonical texts are equal."""
    return _canonical_text(a) == _canonical_text(b)


def _canonical_text(func: Function) -> str:
    """`func` printed with its variables renamed v0, v1, ... and its block
    labels L0, L1, ... in the order they first appear: parameters, block
    labels, then per instruction its uses, its destination and its labels."""
    names: dict[str, str] = {}
    labels: dict[str, str] = {}

    def var(v: str) -> str:
        return names.setdefault(v, f"v{len(names)}")

    def label(lbl: str) -> str:
        return labels.setdefault(lbl, f"L{len(labels)}")

    func = func.clone()
    func.params = [var(n) for n in func.params]
    for block in func.blocks:
        block.label = label(block.label)
    for _, ins in func.instructions():
        rename_uses(ins, var)
        if ins.dest is not None:
            ins.dest = var(ins.dest)
        first = FIRST_LABEL.get(ins.opcode)
        if isinstance(ins, PhiInstr):
            ins.args = [(label(lbl), v) for lbl, v in ins.args]
        elif first is not None:
            ins.operands[first:] = map(label, ins.operands[first:])
    func.guards = {names[n] for n in func.guards if n in names}
    return print_function(func)
