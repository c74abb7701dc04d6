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

from .ir import CMP_OPS, Function, Instr, Pred, PhiInstr, PsiInstr

# At 20 symbols a truth table is 2^20 bits, 128 KiB.
QUERY_SYMBOL_CAP = 20


class PredExpr:
    """Base class for predicate formulas."""

    def eval(self, assignment: int) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(PredExpr):
    value: bool

    def eval(self, assignment: int) -> bool:
        return self.value

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class Sym(PredExpr):
    index: int

    def eval(self, assignment: int) -> bool:
        return bool(assignment >> self.index & 1)

    def __str__(self) -> str:
        return f"s{self.index}"


@dataclass(frozen=True)
class Not(PredExpr):
    arg: PredExpr

    def eval(self, assignment: int) -> bool:
        return not self.arg.eval(assignment)

    def __str__(self) -> str:
        return f"!{self.arg}"


@dataclass(frozen=True)
class And(PredExpr):
    left: PredExpr
    right: PredExpr

    def eval(self, assignment: int) -> bool:
        return self.left.eval(assignment) and self.right.eval(assignment)

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@dataclass(frozen=True)
class Or(PredExpr):
    left: PredExpr
    right: PredExpr

    def eval(self, assignment: int) -> bool:
        return self.left.eval(assignment) or self.right.eval(assignment)

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


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

    def formula(self, guard: str) -> PredExpr:
        return self.formulas[guard]

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
        return self.subset(a, b) and self.subset(b, a)

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
    """Assign a formula to every guard register of `func`.

    Compares get fresh symbols; boolean connectives and moves map to the
    corresponding formula operations; const 0/1 map to constants; any other
    guard definition (phi, psi, load, param) gets a fresh symbol, which is
    conservative.  There is no limit on the number of symbols: only a query
    over more than QUERY_SYMBOL_CAP of them falls back to syntactic answers.
    """
    from .ir import infer_kinds

    kinds = infer_kinds(func)
    formulas: dict[str, PredExpr] = {}
    counter = 0

    def fresh() -> PredExpr:
        nonlocal counter
        counter += 1
        return Sym(counter - 1)

    for name, kind in func.params:
        if kind == "guard":
            formulas[name] = fresh()

    # Definitions are visited in block order; a forward reference (loop phi)
    # falls back to a fresh symbol anyway, so one pass suffices.
    for _, ins in func.instructions():
        dest = ins.dest
        if dest is None or kinds.get(dest) != "guard" or dest in formulas:
            continue
        if isinstance(ins, (PhiInstr, PsiInstr)):
            formulas[dest] = fresh()
            continue
        assert isinstance(ins, Instr)
        op = ins.opcode
        if op in CMP_OPS:
            formulas[dest] = fresh()
        elif op == "const":
            formulas[dest] = TRUE_EXPR if ins.operands[0] else FALSE_EXPR
        elif op == "mov" and isinstance(ins.operands[0], str):
            formulas[dest] = formulas.get(ins.operands[0]) or fresh()
        elif op == "not":
            inner = formulas.get(ins.operands[0])
            formulas[dest] = Not(inner) if inner is not None else fresh()
        elif op in ("and", "or"):
            left = formulas.get(ins.operands[0])
            right = formulas.get(ins.operands[1])
            if left is None or right is None:
                formulas[dest] = fresh()
            else:
                formulas[dest] = (And if op == "and" else Or)(left, right)
        else:
            formulas[dest] = fresh()
    return GuardEnv(formulas, counter)

