"""Predicate-domain algebra over guard registers.

Each guard register is mapped to a boolean formula over fresh condition
symbols (one per compare or otherwise-opaque definition).  A subset or
disjointness query builds the truth tables of its two formulas, as Python
ints, over just the symbols those formulas mention, which decides it
exactly however many symbols the whole function has.  A query mentioning
more than QUERY_SYMBOL_CAP symbols is answered syntactically instead and
clears `GuardEnv.exact` (`GuardEnv.capped_queries` counts such queries);
every "unknown" answer there is reported as False and all callers treat
False conservatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .ir import Function, Instruction, Pred

# At 20 symbols a truth table is 2^20 bits, 128 KiB.
QUERY_SYMBOL_CAP = 20


class PredExpr:
    """Base class for predicate formulas."""


@dataclass(frozen=True)
class Const(PredExpr):
    value: bool


@dataclass(frozen=True)
class Sym(PredExpr):
    index: int


@dataclass(frozen=True)
class Not(PredExpr):
    arg: PredExpr


@dataclass(frozen=True)
class And(PredExpr):
    left: PredExpr
    right: PredExpr


@dataclass(frozen=True)
class Or(PredExpr):
    left: PredExpr
    right: PredExpr


TRUE_EXPR = Const(True)
FALSE_EXPR = Const(False)


class GuardEnv:
    """Formulas for every guard register of one function.

    Queries are decided exactly over the symbols the two formulas mention.
    `exact` turns False once a query mentioned more than QUERY_SYMBOL_CAP
    symbols and was answered syntactically instead; `capped_queries` counts
    those queries.
    """

    def __init__(self, formulas: dict[str, PredExpr], symbol_count: int):
        self.formulas = formulas
        self.symbol_count = symbol_count
        self.exact = True
        self.capped_queries = 0
        self._preds_disjoint: dict[tuple[Pred | None, Pred | None], bool] = {}

    def fresh(self) -> PredExpr:
        """A new symbol."""
        self.symbol_count += 1
        return Sym(self.symbol_count - 1)

    def define(self, ins: Instruction) -> None:
        """Set the formula of the guard register `ins` defines.  A boolean
        connective or a move maps to the corresponding formula operation
        and const 0/1 to a constant; a compare, any other definition (phi,
        psi, load) and a connective over an operand without a formula get
        a fresh symbol, which is conservative."""
        op, formulas = ins.opcode, self.formulas
        args = ([formulas.get(o) for o in ins.operands]
                if op in ("mov", "not", "and", "or") else None)
        if op == "const":
            formulas[ins.dest] = TRUE_EXPR if ins.operands[0] else FALSE_EXPR
        elif args is None or None in args:
            formulas[ins.dest] = self.fresh()
        elif op == "mov":
            formulas[ins.dest] = args[0]
        elif op == "not":
            formulas[ins.dest] = Not(args[0])
        else:
            formulas[ins.dest] = (And if op == "and" else Or)(*args)

    def pred_formula(self, pred: Pred | None) -> PredExpr:
        """Formula of a simple predicate reference (None means always-true)."""
        if pred is None or pred.is_true():
            return TRUE_EXPR
        f = self.formulas[pred.reg]
        return f if pred.positive else Not(f)

    # -- decision procedures ---------------------------------------------

    def _tables(self, a: PredExpr, b: PredExpr) -> tuple[int, int] | None:
        """Truth tables of a and b over their joint support, or None (and
        `exact` cleared, the query counted) when that support is larger
        than the cap."""
        support = _support(a) | _support(b)
        n = len(support)
        if n > QUERY_SYMBOL_CAP:
            self.exact = False
            self.capped_queries += 1
            return None
        columns = {s: _column(k, n) for k, s in enumerate(support)}
        full = (1 << (1 << n)) - 1
        return _table(a, columns, full), _table(b, columns, full)

    def subset(self, a: PredExpr, b: PredExpr) -> bool:
        """True iff a implies b under every symbol assignment."""
        tables = self._tables(a, b)
        if tables is None:
            return a == b or b == TRUE_EXPR or a == FALSE_EXPR
        ta, tb = tables
        return ta & ~tb == 0

    def disjoint(self, a: PredExpr, b: PredExpr) -> bool:
        """True iff no assignment satisfies both a and b."""
        tables = self._tables(a, b)
        if tables is None:
            if a == FALSE_EXPR or b == FALSE_EXPR:
                return True
            return a == Not(b) or b == Not(a)
        ta, tb = tables
        return ta & tb == 0

    def equal(self, a: PredExpr, b: PredExpr) -> bool:
        """True iff a and b agree under every symbol assignment."""
        tables = None if a is b else self._tables(a, b)
        return a == b if tables is None else tables[0] == tables[1]

    def preds_disjoint(self, p: Pred | None, q: Pred | None) -> bool:
        """`disjoint` over two simple predicates, decided once per pair: a
        register's formula never changes once it is set."""
        key = (p, q)
        if key not in self._preds_disjoint:
            self._preds_disjoint[key] = self.disjoint(self.pred_formula(p),
                                                      self.pred_formula(q))
        return self._preds_disjoint[key]


def _support(expr: PredExpr) -> set[int]:
    """Indices of the symbols `expr` mentions."""
    if isinstance(expr, Sym):
        return {expr.index}
    if isinstance(expr, Not):
        return _support(expr.arg)
    if isinstance(expr, (And, Or)):
        return _support(expr.left) | _support(expr.right)
    return set()


@lru_cache(maxsize=None)
def _column(k: int, n: int) -> int:
    """Truth table of the k-th of n symbols: bit m is set iff bit k of m is.

    n never exceeds QUERY_SYMBOL_CAP, which bounds the cache."""
    width = 1 << (k + 1)
    column = ((1 << (1 << k)) - 1) << (1 << k)
    while width < 1 << n:
        column |= column << width
        width <<= 1
    return column


def _table(expr: PredExpr, columns: dict[int, int], full: int) -> int:
    """Truth table of `expr`, given the tables of its symbols; `full` is the
    table of true."""
    if isinstance(expr, Sym):
        return columns[expr.index]
    if isinstance(expr, Const):
        return full if expr.value else 0
    if isinstance(expr, Not):
        return full ^ _table(expr.arg, columns, full)
    left = _table(expr.left, columns, full)
    right = _table(expr.right, columns, full)
    return left & right if isinstance(expr, And) else left | right


def domain_union(preds: list[PredExpr]) -> PredExpr:
    """Or-fold of the given formulas; the empty union is false."""
    out: PredExpr = FALSE_EXPR
    for p in preds:
        out = p if out == FALSE_EXPR else Or(out, p)
    return out


def guard_env_or_conservative(func: Function) -> GuardEnv:
    """Assign a formula to every guard register of `func`: a fresh symbol
    to each guard parameter, `GuardEnv.define`'s to each definition.
    There is no limit on the number of symbols: only a query over more
    than QUERY_SYMBOL_CAP of them falls back to syntactic answers.
    """
    guards = func.guards
    env = GuardEnv({}, 0)
    for name in func.params:
        if name in guards:
            env.formulas[name] = env.fresh()

    # Definitions are visited in block order; a forward reference (loop phi)
    # falls back to a fresh symbol anyway, so one pass suffices.
    for _, ins in func.instructions():
        if ins.dest in guards and ins.dest not in env.formulas:
            env.define(ins)
    return env
