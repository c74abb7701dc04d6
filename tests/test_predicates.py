import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from psikit import ir
from psikit.predicates import (And, Const, FALSE_EXPR, GuardEnv, Not, Or,
                               QUERY_SYMBOL_CAP, Sym, TRUE_EXPR,
                               domain_union, guard_env_or_conservative)


def env_with(n: int) -> GuardEnv:
    return GuardEnv({}, symbol_count=n)


# -- truth-table oracle ------------------------------------------------------

def evaluate(expr, m: int) -> bool:
    """The value of `expr` when symbol i is bit i of `m`."""
    if isinstance(expr, Sym):
        return bool(m >> expr.index & 1)
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Not):
        return not evaluate(expr.arg, m)
    left, right = evaluate(expr.left, m), evaluate(expr.right, m)
    return left and right if isinstance(expr, And) else left or right


def assignments(indices):
    """Every assignment to the symbols `indices`, as an `evaluate`
    argument."""
    for m in range(1 << len(indices)):
        yield sum(1 << s for k, s in enumerate(indices) if m >> k & 1)


def oracle_subset(a, b, indices):
    return all(not evaluate(a, m) or evaluate(b, m)
               for m in assignments(indices))


def oracle_disjoint(a, b, indices):
    return not any(evaluate(a, m) and evaluate(b, m)
                   for m in assignments(indices))


# Dense low indices and sparse ones above 16: a query's support, not the
# largest index, sets the size of its truth tables.
MIXED_SYMBOLS = (0, 1, 2, 3, 17, 23, 40, 100)


def formulas(indices):
    leaves = st.one_of(
        st.sampled_from(indices).map(Sym),
        st.sampled_from([TRUE_EXPR, FALSE_EXPR]),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda t: And(*t)),
            st.tuples(sub, sub).map(lambda t: Or(*t)),
        ),
        max_leaves=12,
    )


@settings(max_examples=300, deadline=None)
@given(formulas(MIXED_SYMBOLS), formulas(MIXED_SYMBOLS))
def test_subset_and_disjoint_match_truth_table_oracle(a, b):
    env = env_with(8)
    assert env.subset(a, b) == oracle_subset(a, b, MIXED_SYMBOLS)
    assert env.disjoint(a, b) == oracle_disjoint(a, b, MIXED_SYMBOLS)
    assert env.exact


@settings(max_examples=150, deadline=None)
@given(formulas(range(6)), formulas(range(6)), formulas(range(6)))
def test_subset_is_reflexive_and_transitive(a, b, c):
    env = env_with(6)
    assert env.subset(a, a)
    if env.subset(a, b) and env.subset(b, c):
        assert env.subset(a, c)


@settings(max_examples=150, deadline=None)
@given(formulas(range(6)), formulas(range(6)))
def test_disjoint_of_satisfiable_excludes_subset(a, b):
    env = env_with(6)
    satisfiable = any(evaluate(a, m) for m in range(1 << 6))
    if satisfiable and env.disjoint(a, b):
        assert not env.subset(a, b)


# -- examples ----------------------------------------------------------------

def test_subset_basics():
    env = env_with(2)
    assert env.subset(Sym(0), TRUE_EXPR)
    assert env.subset(And(Sym(0), Sym(1)), Sym(0))
    assert not env.subset(Sym(0), Sym(1))


def test_disjoint_basics():
    env = env_with(2)
    assert env.disjoint(Sym(0), Not(Sym(0)))
    assert not env.disjoint(Sym(0), Sym(1))
    assert env.disjoint(FALSE_EXPR, Sym(1))


def test_union_fold():
    env = env_with(1)
    assert domain_union([]) == FALSE_EXPR
    assert domain_union([Sym(0)]) == Sym(0)
    u = domain_union([Sym(0), Not(Sym(0))])
    assert env.subset(TRUE_EXPR, u)


# -- building the environment ------------------------------------------------

def test_env_maps_connectives():
    func = ir.parse_module("""
func @f(%a, %b) {
b0:
  %p = cmp_lt %a, %b
  %np = not %p
  %q = cmp_eq %a, 0
  %r = or %p, %q
  %m = mov %p
  ret %a
}
""").functions[0]
    env = guard_env_or_conservative(func)
    assert env.formulas["p"] == Sym(0)
    assert env.formulas["np"] == Not(Sym(0))
    assert env.formulas["r"] == Or(Sym(0), Sym(1))
    assert env.formulas["m"] == Sym(0)
    assert env.symbol_count == 2


def test_env_const_guards_and_opaque_defs():
    func = ir.parse_module("""
func @f(%a, %g:guard) {
b0:
  %t:guard = const 1
  %z:guard = const 0
  %l:guard = load 0
  ret %a
}
""").functions[0]
    env = guard_env_or_conservative(func)
    assert env.formulas["t"] == Const(True)
    assert env.formulas["z"] == Const(False)
    assert isinstance(env.formulas["l"], Sym)
    assert isinstance(env.formulas["g"], Sym)


def test_env_beyond_sixteen_symbols_stays_exact():
    lines = ["func @f(%a) {", "b0:"]
    for i in range(17):
        lines.append(f"  %p{i} = cmp_lt %a, {i}")
    lines += ["  ret %a", "}"]
    func = ir.parse_module("\n".join(lines)).functions[0]
    env = guard_env_or_conservative(func)
    assert env.symbol_count == 17
    p0, p16 = env.formulas["p0"], env.formulas["p16"]
    assert env.subset(And(p0, p16), p16)
    assert not env.subset(p0, p16)
    assert env.disjoint(And(p0, Not(p16)), p16)
    assert not env.disjoint(p0, p16)
    assert env.exact


def test_query_over_cap_is_syntactic_and_clears_exact():
    env = env_with(QUERY_SYMBOL_CAP + 1)
    at_cap = domain_union([Sym(i) for i in range(QUERY_SYMBOL_CAP)])
    assert env.subset(And(at_cap, Sym(0)), at_cap)
    assert env.exact and env.capped_queries == 0
    over = Or(at_cap, Sym(QUERY_SYMBOL_CAP))
    # Both hold exactly, but neither is decidable syntactically.
    assert not env.subset(And(over, Sym(0)), over)
    assert not env.exact and env.capped_queries == 1
    assert not env.disjoint(And(over, Sym(0)), Not(Sym(0)))
    assert env.capped_queries == 2
    # The syntactic cases are still decided.
    assert env.subset(over, over)
    assert env.subset(over, TRUE_EXPR)
    assert env.disjoint(over, Not(over))


def test_exhaustive_enumeration_matches_at_larger_widths():
    env = env_with(8)
    big_a = Sym(7)
    big_b = Or(Sym(7), Sym(0))
    for a, b in itertools.permutations([big_a, big_b, TRUE_EXPR], 2):
        assert env.subset(a, b) == oracle_subset(a, b, range(8))
