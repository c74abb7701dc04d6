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

The `:guard` marker is required only where the kind of a definition cannot
be recovered from its opcode (`const`/`load` results used as guards);
compare and boolean connectives over guards are inferred.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

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

    def values(self) -> list[str]:
        return [v for _, v in self.args]

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
    name: str
    params: list[tuple[str, str]]  # (name, kind)
    blocks: list[Block] = field(default_factory=list)
    guard_decls: set[str] = field(default_factory=set)

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
        names = {n for n, _ in self.params}
        for _, ins in self.instructions():
            if ins.dest is not None:
                names.add(ins.dest)
            names.update(ins.uses())
        return names

    def clone(self) -> "Function":
        """A copy with its own blocks, instructions and containers; what
        cannot change in place (names, `Pred`s, argument tuples) is shared."""
        return Function(self.name, list(self.params),
                        [b.clone() for b in self.blocks],
                        set(self.guard_decls))


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
    one stopped."""

    def __init__(self, func: Function):
        self.used = set(func.var_names())
        self._next: dict[str, int] = {}

    def fresh(self, base: str) -> str:
        root = base.split(".")[0] or "t"
        if root not in self.used:
            self.used.add(root)
            return root
        i = self._next.get(root, 1)
        while f"{root}.{i}" in self.used:
            i += 1
        self._next[root] = i + 1
        name = f"{root}.{i}"
        self.used.add(name)
        return name


# ---------------------------------------------------------------------------
# Kind inference

def infer_kinds(func: Function) -> dict[str, str]:
    """Map every variable to 'value' or 'guard'.

    Guard-ness is seeded by `:guard` declarations and compare results, then
    propagated through mov/and/or/not/select/phi/psi until stable.  Only
    those instructions can derive it, so only they are swept again.
    """
    kinds = {name: kind for name, kind in func.params}
    candidates: list[Instruction] = []
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


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<nl>\n)
      | (?P<var>%[A-Za-z_][A-Za-z0-9_.]*)
      | (?P<fname>@[A-Za-z_][A-Za-z0-9_.]*)
      | (?P<int>-?[0-9]+)
      | (?P<word>[A-Za-z_][A-Za-z0-9_.]*)
      | (?P<punct>[(){},:=?!])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


class _Tok(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    """One scan of `text`: the matches cover it, and a character that
    starts no token is the `bad` group."""
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        col = m.start() - line_start + 1
        if kind == "nl":
            toks.append(_Tok("nl", "\n", line, col))
            line += 1
            line_start = m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        else:
            toks.append(_Tok(kind, m.group(), line, col))
    toks.append(_Tok("eof", "", line, len(text) - line_start + 1))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Tok:
        i = min(self.pos + ahead, len(self.toks) - 1)
        return self.toks[i]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: _Tok | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, kind: str, text: str | None = None) -> _Tok:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            self.error(f"expected {want!r}, found {tok.text or tok.kind!r}")
        return self.next()

    def skip_newlines(self):
        while self.peek().kind == "nl":
            self.next()

    def at_punct(self, text: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.kind == "punct" and tok.text == text

    # -- grammar ---------------------------------------------------------

    def module(self) -> Module:
        mod = Module()
        self.skip_newlines()
        while self.peek().kind != "eof":
            mod.functions.append(self.function())
            self.skip_newlines()
        return mod

    def function(self) -> Function:
        self.expect("word", "func")
        name_tok = self.expect("fname")
        func = Function(name=name_tok.text[1:], params=[])
        self.labels: set[str] = set()
        self.label_refs: list[tuple[_Tok, str]] = []
        self.expect("punct", "(")
        seen = set()
        while not self.at_punct(")"):
            var = self.expect("var").text[1:]
            kind = "value"
            if self.at_punct(":"):
                self.next()
                self.expect("word", "guard")
                kind = "guard"
            if var in seen:
                self.error(f"duplicate parameter %{var}")
            seen.add(var)
            func.params.append((var, kind))
            if kind == "guard":
                func.guard_decls.add(var)
            if self.at_punct(","):
                self.next()
            elif not self.at_punct(")"):
                self.error("expected ',' or ')' in parameter list")
        self.next()  # ')'
        self.expect("punct", "{")
        self.skip_newlines()
        while not self.at_punct("}"):
            self.block(func)
        self.next()  # '}'
        self.check_targets()
        if not func.blocks:
            self.error(f"function @{func.name} has no blocks")
        return func

    def block(self, func: Function):
        tok = self.peek()
        if tok.kind != "word" or not self.at_punct(":", 1):
            self.error("expected block label")
        label = self.next().text
        self.next()  # ':'
        if label in self.labels:
            self.error(f"duplicate block label {label}", tok)
        self.labels.add(label)
        block = Block(label)
        func.blocks.append(block)
        self.skip_newlines()
        while True:
            tok = self.peek()
            if tok.kind == "eof" or self.at_punct("}"):
                break
            if tok.kind == "word" and self.at_punct(":", 1):
                break  # next block
            self.instruction(func, block)
            self.skip_newlines()
        if block.term is None:
            self.error(f"block {label} has no terminator", tok)

    def pred(self) -> Pred:
        tok = self.peek()
        if tok.kind == "int":
            if tok.text != "1":
                self.error("predicate literal must be 1")
            self.next()
            return TRUE
        positive = True
        if self.at_punct("!"):
            self.next()
            positive = False
        reg = self.expect("var").text[1:]
        return Pred(reg, positive)

    def instruction(self, func: Function, block: Block):
        start = self.peek()
        if block.term is not None:
            self.error(f"instruction after terminator in block {block.label}")
        guard = None
        # A guard prefix is a pred followed by '?' before any '='.
        if (self.at_punct("!")
                or (self.peek().kind == "int" and self.at_punct("?", 1))
                or (self.peek().kind == "var" and self.at_punct("?", 1))):
            guard = self.pred()
            self.expect("punct", "?")
            if guard.is_true():
                guard = None
        tok = self.peek()
        if tok.kind == "word" and tok.text in TERMINATORS:
            ins = self.terminator(guard)
            block.term = ins
            return
        if tok.kind == "word" and tok.text == "store":
            self.next()
            operands = self.operands()
            if len(operands) != 2:
                self.error("store takes 2 operands", tok)
            block.body.append(Instr("store", None, operands, guard))
            return
        dest_tok = self.expect("var")
        dest = dest_tok.text[1:]
        if self.at_punct(":"):
            self.next()
            self.expect("word", "guard")
            func.guard_decls.add(dest)
        self.expect("punct", "=")
        op_tok = self.expect("word")
        op = op_tok.text
        if op not in OPCODES:
            self.error(f"unknown opcode {op!r}", op_tok)
        if op in TERMINATORS:
            self.error(f"{op} does not produce a result", op_tok)
        if op == "phi":
            if guard is not None:
                self.error("phi cannot be guarded", start)
            if block.body:
                self.error("phi must precede non-phi instructions", start)
            block.phis.append(self.phi(dest))
            return
        if op == "psi":
            if guard is not None:
                self.error("psi results are not guarded", start)
            block.body.append(self.psi(dest))
            return
        operands = self.operands()
        arity = ARITY.get(op)
        if arity is not None and len(operands) != arity:
            self.error(f"{op} takes {arity} operand(s), got {len(operands)}",
                       op_tok)
        if op == "const" and not isinstance(operands[0], int):
            self.error("const takes an integer literal", op_tok)
        block.body.append(Instr(op, dest, operands, guard))

    def phi(self, dest: str) -> PhiInstr:
        self.expect("punct", "(")
        args = []
        while True:
            lbl = self.label_ref("phi references undefined block")
            self.expect("punct", ":")
            var = self.expect("var").text[1:]
            args.append((lbl, var))
            if self.at_punct(","):
                self.next()
            else:
                break
        self.expect("punct", ")")
        return PhiInstr(dest, args)

    def psi(self, dest: str) -> PsiInstr:
        self.expect("punct", "(")
        args = []
        while True:
            p = self.pred()
            self.expect("punct", "?")
            var = self.expect("var").text[1:]
            args.append((p, var))
            if self.at_punct(","):
                self.next()
            else:
                break
        self.expect("punct", ")")
        return PsiInstr(dest, args)

    def operands(self) -> list:
        out = []
        while True:
            tok = self.peek()
            if tok.kind == "var":
                out.append(self.next().text[1:])
            elif tok.kind == "int":
                out.append(int(self.next().text))
            else:
                self.error(f"expected operand, found {tok.text or tok.kind!r}")
            if self.at_punct(","):
                self.next()
            else:
                return out

    def terminator(self, guard: Pred | None) -> Instr:
        tok = self.next()
        if guard is not None:
            self.error(f"{tok.text} cannot be guarded", tok)
        if tok.text == "goto":
            target = self.label_ref("undefined block")
            return Instr("goto", None, [target])
        if tok.text == "br":
            cond = self.expect("var").text[1:]
            self.expect("punct", ",")
            t1 = self.label_ref("undefined block")
            self.expect("punct", ",")
            t2 = self.label_ref("undefined block")
            return Instr("br", None, [cond, t1, t2])
        # ret
        if self.peek().kind == "var":
            return Instr("ret", None, [self.next().text[1:]])
        return Instr("ret", None, [])

    def label_ref(self, what: str) -> str:
        """Read a block label that must name a block of the function;
        `check_targets` reports it as `what` if it does not."""
        tok = self.expect("word")
        self.label_refs.append((tok, what))
        return tok.text

    def check_targets(self):
        for tok, what in self.label_refs:
            if tok.text not in self.labels:
                self.error(f"{what} {tok.text}", tok)


def parse_module(text: str) -> Module:
    """Parse IR text into a Module; raises ParseError on malformed input."""
    return _Parser(text).module()


# ---------------------------------------------------------------------------
# Printing

def _format_instr(ins: Instruction, kinds: dict[str, str]) -> str:
    if isinstance(ins, PhiInstr):
        args = ", ".join(f"{lbl}: %{v}" for lbl, v in ins.args)
        return f"%{ins.dest} = phi({args})"
    if isinstance(ins, PsiInstr):
        args = ", ".join(f"{p} ? %{v}" for p, v in ins.args)
        return f"%{ins.dest} = psi({args})"
    prefix = f"{ins.guard}? " if ins.guard is not None else ""
    if ins.opcode == "goto":
        return f"{prefix}goto {ins.operands[0]}"
    if ins.opcode == "br":
        c, t1, t2 = ins.operands
        return f"{prefix}br %{c}, {t1}, {t2}"
    if ins.opcode == "ret":
        return f"{prefix}ret" + (f" %{ins.operands[0]}" if ins.operands else "")
    ops = ", ".join(f"%{o}" if isinstance(o, str) else str(o)
                    for o in ins.operands)
    if ins.opcode == "store":
        return f"{prefix}store {ops}"
    dest = f"%{ins.dest}"
    if (kinds.get(ins.dest) == "guard"
            and ins.opcode in ("const", "load")):
        dest += ":guard"
    return f"{prefix}{dest} = {ins.opcode} {ops}"


def print_function(func: Function) -> str:
    kinds = infer_kinds(func)
    params = ", ".join(
        f"%{n}:guard" if k == "guard" else f"%{n}" for n, k in func.params)
    lines = [f"func @{func.name}({params}) {{"]
    for b in func.blocks:
        lines.append(f"{b.label}:")
        for ins in b.instructions():
            lines.append("  " + _format_instr(ins, kinds))
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


def _check_kind_uses(func: Function, kinds, diags: list[Diagnostic]):
    def err(block, msg):
        diags.append(Diagnostic("error", f"@{func.name}/{block.label}", msg))

    for block in func.blocks:
        for ins in block.instructions():
            if ins.guard is not None and kinds.get(ins.guard.reg) != "guard":
                err(block, f"guard %{ins.guard.reg} is not guard-kind")
            if isinstance(ins, PsiInstr):
                for p, v in ins.args:
                    if p.reg is not None and kinds.get(p.reg) != "guard":
                        err(block, f"psi predicate %{p.reg} is not guard-kind")
                vk = {kinds.get(v) for v in ins.values()}
                if len(vk) > 1:
                    err(block, f"psi %{ins.dest} mixes value and guard args")
                continue
            if isinstance(ins, PhiInstr):
                ak = {kinds.get(v) for _, v in ins.args}
                if len(ak) > 1:
                    err(block, f"phi %{ins.dest} mixes value and guard args")
                continue
            if ins.opcode == "br" and kinds.get(ins.operands[0]) != "guard":
                err(block, f"br condition %{ins.operands[0]} is not guard-kind")
            elif ins.opcode == "select":
                cond = ins.operands[0]
                if not isinstance(cond, str) or kinds.get(cond) != "guard":
                    err(block, "select condition must be a guard register")
            elif ins.opcode in CMP_OPS:
                for o in ins.operands:
                    if isinstance(o, str) and kinds.get(o) == "guard":
                        err(block, f"{ins.opcode} operand %{o} must be value-kind")
            elif ins.opcode in BOOL_OPS:
                ks = {kinds.get(o) for o in ins.operands if isinstance(o, str)}
                if "guard" in ks and (len(ks) > 1 or any(
                        isinstance(o, int) for o in ins.operands)):
                    err(block, f"{ins.opcode} mixes guard and value operands")
            elif ins.opcode in ("add", "sub", "mul", "neg", "load", "store",
                                "ret"):
                # Operands only: the guard is read as a guard (above).
                for o in ins.operands:
                    if isinstance(o, str) and kinds.get(o) == "guard":
                        err(block, f"guard %{o} used as a value in {ins.opcode}")


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
            got = sorted(lbl for lbl, _ in phi.args)
            want = sorted(cache.preds[block.label])
            if got != want:
                err(block.label,
                    f"phi %{phi.dest} args {got} do not match predecessors {want}")
        for ins in block.body:
            if isinstance(ins, PsiInstr) and not ins.args:
                err(block.label, f"psi %{ins.dest} has no arguments")

    kinds = infer_kinds(func)
    _check_kind_uses(func, kinds, diags)

    defs = {}
    param_names = {n for n, _ in func.params}
    multi = set()
    for block in func.blocks:
        for ins in block.instructions():
            if ins.dest is not None:
                if ins.dest in defs or ins.dest in param_names:
                    multi.add(ins.dest)
                defs[ins.dest] = ins
    for _, ins in func.instructions():
        for v in ins.uses():
            if v not in defs and v not in param_names:
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
    """Dominance of every use, read from the function's `analysis.Analyses`."""
    from .analysis import def_point  # deferred: analysis imports ir

    diags: list[Diagnostic] = []
    func, blocks = cache.func, cache.blocks
    dom, pos, defs = cache.dom, cache.positions, cache.defs

    def dominates_use(var, use_pos, strict_before=True,
                      resolved=False) -> bool:
        dpos = def_point(var, defs, pos, resolved)
        if dpos is None:
            return True  # a parameter dominates everything
        return dom.dominates_pos(dpos, use_pos, strict=strict_before)

    for block in func.blocks:
        for ins in block.instructions():
            upos = pos[id(ins)]
            if isinstance(ins, PhiInstr):
                for lbl, v in ins.args:
                    edge_pos = pos[id(blocks[lbl].term)]
                    if not dominates_use(v, edge_pos, strict_before=False):
                        diags.append(Diagnostic(
                            "error", f"@{func.name}/{block.label}",
                            f"phi arg %{v} does not dominate edge from {lbl}"))
            elif isinstance(ins, PsiInstr):
                for p, v in ins.args:
                    if not dominates_use(v, upos, resolved=True):
                        diags.append(Diagnostic(
                            "error", f"@{func.name}/{block.label}",
                            f"psi arg %{v} definition does not dominate the psi"))
                    if p.reg is not None and not dominates_use(p.reg, upos):
                        diags.append(Diagnostic(
                            "error", f"@{func.name}/{block.label}",
                            f"psi predicate %{p.reg} does not dominate the psi"))
            else:
                for v in ins.uses():
                    if not dominates_use(v, upos):
                        diags.append(Diagnostic(
                            "error", f"@{func.name}/{block.label}",
                            f"use of %{v} not dominated by its definition"))
    return diags


# ---------------------------------------------------------------------------
# Structural comparison up to renaming

def alpha_equivalent(a: Module | Function, b: Module | Function) -> bool:
    """True if the two programs are identical up to a bijective renaming of
    variables and block labels."""
    if isinstance(a, Module) and isinstance(b, Module):
        if len(a.functions) != len(b.functions):
            return False
        return all(alpha_equivalent(x, y)
                   for x, y in zip(a.functions, b.functions))
    assert isinstance(a, Function) and isinstance(b, Function)
    if a.name != b.name or len(a.params) != len(b.params):
        return False
    if len(a.blocks) != len(b.blocks):
        return False
    fwd: dict[str, str] = {}
    bwd: dict[str, str] = {}
    lfwd: dict[str, str] = {}
    lbwd: dict[str, str] = {}

    def match_var(x, y) -> bool:
        if (x in fwd) != (y in bwd):
            return False
        if x in fwd:
            return fwd[x] == y and bwd[y] == x
        fwd[x] = y
        bwd[y] = x
        return True

    def match_label(x, y) -> bool:
        if (x in lfwd) != (y in lbwd):
            return False
        if x in lfwd:
            return lfwd[x] == y and lbwd[y] == x
        lfwd[x] = y
        lbwd[y] = x
        return True

    for (pa, ka), (pb, kb) in zip(a.params, b.params):
        if ka != kb or not match_var(pa, pb):
            return False
    for ba, bb in zip(a.blocks, b.blocks):
        if not match_label(ba.label, bb.label):
            return False
    for ba, bb in zip(a.blocks, b.blocks):
        ia, ib = list(ba.instructions()), list(bb.instructions())
        if len(ia) != len(ib):
            return False
        for x, y in zip(ia, ib):
            if not _match_instr(x, y, match_var, match_label):
                return False
    return True


def _match_pred(p: Pred, q: Pred, match_var) -> bool:
    if p.is_true() or q.is_true():
        return p.is_true() and q.is_true()
    return p.positive == q.positive and match_var(p.reg, q.reg)


def _match_instr(x, y, match_var, match_label) -> bool:
    if type(x) is not type(y):
        return False
    if isinstance(x, PhiInstr):
        if len(x.args) != len(y.args):
            return False
        if not match_var(x.dest, y.dest):
            return False
        return all(match_label(l1, l2) and match_var(v1, v2)
                   for (l1, v1), (l2, v2) in zip(x.args, y.args))
    if isinstance(x, PsiInstr):
        if len(x.args) != len(y.args) or not match_var(x.dest, y.dest):
            return False
        return all(_match_pred(p1, p2, match_var) and match_var(v1, v2)
                   for (p1, v1), (p2, v2) in zip(x.args, y.args))
    if x.opcode != y.opcode:
        return False
    if (x.guard is None) != (y.guard is None):
        return False
    if x.guard is not None and not _match_pred(x.guard, y.guard, match_var):
        return False
    if (x.dest is None) != (y.dest is None):
        return False
    if x.dest is not None and not match_var(x.dest, y.dest):
        return False
    if len(x.operands) != len(y.operands):
        return False
    first_label = len(x.operands) - len(x.labels())
    for i, (ox, oy) in enumerate(zip(x.operands, y.operands)):
        if i >= first_label:
            if not match_label(ox, oy):
                return False
        elif isinstance(ox, int) or isinstance(oy, int):
            if ox != oy:
                return False
        elif not match_var(ox, oy):
            return False
    return True
