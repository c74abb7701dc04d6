import copy
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psikit import ir, pipeline
from psikit.interp import SizeProfile, gen_random_program
from psikit.ir import (ParseError, Pred, PsiInstr, parse_module, print_module,
                       rename_uses)
from psikit.machine import FULL, PARTIAL

from helpers import DATA, assert_no_errors, load_func
from kinds_oracle import infer_kinds as oracle_kinds


def parse_one(text: str) -> ir.Function:
    return parse_module(textwrap.dedent(text)).functions[0]


def test_minimal_program_single_line_style():
    mod = parse_module("func @f(%a){ b0: %x = add %a, 1\n ret %x }")
    assert len(mod.functions) == 1
    func = mod.functions[0]
    assert len(func.blocks) == 1
    assert len(list(func.blocks[0].instructions())) == 2


def test_psi_argument_order_is_preserved():
    func = parse_one("""
        func @f(%i, %p:guard) {
        b0:
          %p? %a = add %i, 1
          !%p? %b = add %i, 2
          %x = psi(%p ? %a, !%p ? %b)
          ret %x
        }
    """)
    psi = func.blocks[0].body[-1]
    assert isinstance(psi, PsiInstr)
    assert psi.args == [(Pred("p", True), "a"), (Pred("p", False), "b")]


def test_undefined_branch_target_is_an_error():
    with pytest.raises(ParseError, match="undefined block b9") as exc:
        parse_module("func @f(){ b0: goto b9 }")
    assert (exc.value.line, exc.value.col) == (1, 21)
    with pytest.raises(ParseError, match="undefined block b7") as exc:
        parse_module("func @f(%p:guard) {\nb0:\n  br %p, b0, b7\n}")
    assert (exc.value.line, exc.value.col) == (3, 14)
    with pytest.raises(ParseError,
                       match="phi references undefined block b5") as exc:
        parse_module("func @f(%a) {\nb0:\n  goto b1\nb1:\n"
                     "  %x = phi(b0: %a, b5: %a)\n  ret %x\n}")
    assert (exc.value.line, exc.value.col) == (5, 20)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_module("func @f() {\nb0:\n  %x = bogus 1\n  ret\n}")
    assert (exc.value.line, exc.value.col) == (3, 8)


_HEAD = "func @f(%a, %p:guard) {\nb0:\n"

# One malformed text per place the parser raises, with the message and the
# position it reports: the token in question, or the end of the file.
PARSE_ERRORS = [
    ('unexpected_character', _HEAD + '  %x = add %a, $1\n  ret %x\n}',
     "unexpected character '$'", 3, 16),
    ('unexpected_character_after_a_syntax_error', 'func f() {\nb0:\n  ret ~\n}',
     "unexpected character '~'", 3, 7),
    ('expected_token', 'func f() {\nb0:\n  ret\n}',
     "expected 'fname', found 'f'", 1, 6),
    ('expected_token_at_end_of_file', 'func @f(%a,  ',
     "expected 'var', found 'eof'", 1, 14),
    ('block_label_at_end_of_file', _HEAD + '  %x = add %a, 1\n  ret %x\n',
     'expected block label', 5, 1),
    ('expected_token_at_a_newline', _HEAD + '  %x = phi(\nb0: %a)\n  ret %x\n}',
     "expected 'word', found '\\n'", 3, 12),
    ('duplicate_parameter', 'func @f(%a, %a:guard) {\nb0:\n  ret\n}',
     'duplicate parameter %a', 1, 21),
    ('parameter_list_separator', 'func @f(%a %b) {\nb0:\n  ret\n}',
     "expected ',' or ')' in parameter list", 1, 12),
    ('parameter_list_trailing_comma', 'func @f(%a,) {\nb0:\n  ret\n}',
     "expected 'var', found ')'", 1, 12),
    ('function_without_blocks', 'func @f() {\n}\nfunc @g() {}',
     'function @f has no blocks', 2, 2),
    ('block_label', 'func @f() {\n  ret\n}',
     'expected block label', 2, 3),
    ('duplicate_block_label', _HEAD + '  goto b0\n  b0:\n  ret\n}',
     'duplicate block label b0', 4, 3),
    ('block_without_terminator', _HEAD + '  %x = add %a, 1\nb1:\n  ret\n}',
     'block b0 has no terminator', 4, 1),
    ('predicate_literal', _HEAD + '  %x = psi(%p ? %a, 0 ? %a)\n  ret %x\n}',
     'predicate literal must be 1', 3, 21),
    ('instruction_after_terminator', _HEAD + '  ret %a %a\n}',
     'instruction after terminator in block b0', 3, 10),
    ('store_arity', _HEAD + '  store %a\n  ret\n}',
     'store takes 2 operands', 3, 3),
    ('unknown_opcode', _HEAD + '  %x = bogus 1\n  ret\n}',
     "unknown opcode 'bogus'", 3, 8),
    ('terminator_with_a_result', _HEAD + '  %x = goto b0\n  ret\n}',
     'goto does not produce a result', 3, 8),
    ('guarded_phi', _HEAD + '  goto b1\nb1:\n  %p? %x = phi(b0: %a)\n  ret\n}',
     'phi cannot be guarded', 5, 3),
    ('phi_after_body', _HEAD + '  goto b1\nb1:\n  %y = mov %a\n  %x = phi(b0: %a)\n  ret\n}',
     'phi must precede non-phi instructions', 6, 3),
    ('guarded_psi', _HEAD + '  !%p? %x = psi(%p ? %a)\n  ret\n}',
     'psi results are not guarded', 3, 3),
    ('operand_count', _HEAD + '  %x = add %a\n  ret\n}',
     'add takes 2 operand(s), got 1', 3, 8),
    ('const_operand', _HEAD + '  %x = const %a\n  ret\n}',
     'const takes an integer literal', 3, 8),
    ('operand', _HEAD + '  %x = add %a, =\n  ret\n}',
     "expected operand, found '='", 3, 16),
    ('guarded_terminator', _HEAD + '  %p? ret %a\n}',
     'ret cannot be guarded', 3, 7),
    ('undefined_block', _HEAD + '  br %p, b0, b7\n}',
     'undefined block b7', 3, 14),
    ('phi_undefined_block', _HEAD + '  goto b1\nb1:\n  %x = phi(b0: %a, b5: %a)\n  ret %x\n}',
     'phi references undefined block b5', 5, 20),
    ('free_form_layout', 'func @f(%a){ b0: %x = add %a,\n 1 ret %x }',
     "expected operand, found '\\n'", 1, 30),
    ('comment_before_error', '# head\nfunc @f() { # open\nb0: # label\n  ret 1 # tail\n}',
     "expected 'var', found '1'", 4, 7),
    ('crlf_and_tabs', 'func @f(%a) {\r\nb0:\r\n\t%x = add\t%a, 1,\r\n\tret %x\r\n}',
     "expected operand, found '\\n'", 3, 18),
]


@pytest.mark.parametrize("text, message, line, col",
                         [case[1:] for case in PARSE_ERRORS],
                         ids=[case[0] for case in PARSE_ERRORS])
def test_parse_error_message_and_position(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_module(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (
        message, line, col)
    assert str(exc.value) == f"{line}:{col}: {message}"


@pytest.mark.parametrize("bad_line", [
    "  %x = add %a, $1",    # a character no token starts with
    "  %x = sub %a, - 1",   # a minus sign not followed by a digit
    "  %x = sub %a, -",     # ... nor at the end of a line
])
def test_unexpected_character_carries_position(bad_line):
    text = f"func @f(%a) {{\nb0:\n{bad_line}\n  ret %x\n}}"
    with pytest.raises(ParseError) as exc:
        parse_module(text)
    char = bad_line[15]
    assert exc.value.message == f"unexpected character {char!r}"
    assert (exc.value.line, exc.value.col) == (3, 16)


def test_duplicate_block_label_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_module("func @f(%a) {\nb0:\n  goto b1\nb1:\n  goto b0\n"
                     " b0:\n  ret %a\n}")
    assert exc.value.message == "duplicate block label b0"
    assert (exc.value.line, exc.value.col) == (6, 2)
    # Labels are per function: a second function may reuse them.
    mod = parse_module("func @f() {\nb0:\n  ret\n}\nfunc @g() {\nb0:\n  ret\n}")
    assert [f.blocks[0].label for f in mod.functions] == ["b0", "b0"]


@pytest.mark.parametrize("text", [
    "func @f(){ b0: ret }",
    "func @f(%a, %p:guard){ b0: br %p, b1, b1\nb1: ret %a }",
])
def test_roundtrip_small(text):
    mod = parse_module(text)
    assert parse_module(print_module(mod)) == mod


def test_roundtrip_preserves_guard_declarations():
    func = parse_one("""
        func @f() {
        b0:
          %p:guard = const 1
          %p? %x = const 3
          ret %x
        }
    """)
    text = ir.print_function(func)
    assert ":guard = const 1" in text
    again = parse_module(text).functions[0]
    assert ir.infer_kinds(again)["p"] == "guard"


def test_print_format_of_psi_arguments():
    func = load_func("diamond_predicated.pir")
    assert "psi(%p ? %a, !%p ? %b)" in ir.print_function(func)


def test_roundtrip_fixpoint_on_generated_corpus():
    for seed in range(1000):
        func = gen_random_program(seed, "tiny" if seed % 2 else "small")
        mod = ir.Module([func])
        once = print_module(mod)
        assert parse_module(once) == mod
        assert print_module(parse_module(once)) == once


# The generator profiles of the benchmark ladder's rungs (about 100, 160,
# 290 and 520 instructions).
RUNG_PROFILES = [SizeProfile(f"rung{target}", statements, 3, 2, True)
                 for target, statements in ((100, 16), (160, 28), (290, 56),
                                            (520, 104))]


def _rung_programs(per_rung: int):
    for profile in RUNG_PROFILES:
        for seed in range(per_rung):
            yield gen_random_program(seed, profile)


def _held_guards(func: ir.Function) -> set[str]:
    """`func.guards` restricted to the names `func` takes or defines."""
    return func.guards & (set(func.params) | func.defs().keys())


def _printed_declarations(func: ir.Function) -> ir.Function:
    """A copy of `func` that declares only the guards its printed text
    marks: the guard parameters and the `const`/`load` guards."""
    marked = func.clone()
    defs = func.defs()
    marked.guards = {
        name for name in func.guards if name in func.params
        or (name in defs and defs[name].opcode in ("const", "load"))}
    return marked


def test_printed_text_parses_back_to_itself():
    """Inputs and every state of the standard pipeline: the reparsed text
    prints identically, validates with the same diagnostics and holds the
    same guards, so the text keeps every guard kind."""
    for func in _rung_programs(3):
        text = print_module(ir.Module([func]))
        assert print_module(parse_module(text)) == text
    funcs = []
    for path in sorted(DATA.glob("*.pir")):
        mod = parse_module(path.read_text())
        text = print_module(mod)
        assert parse_module(text) == mod, path.name
        assert print_module(parse_module(text)) == text, path.name
        funcs += mod.functions
    funcs += [gen_random_program(seed, "tiny" if seed % 2 else "small")
              for seed in range(60)]
    checked = 0
    for func in funcs:
        for state in _standard_states(func):
            text = ir.print_function(state)
            again = parse_module(text)
            assert print_module(again) == text, func.name
            assert again.functions[0].guards == _held_guards(state), text
            assert (ir.validate(again, "non_ssa")
                    == ir.validate(ir.Module([state]), "non_ssa")), text
            checked += 1
    assert checked > 6 * 60  # the standard pipeline ran on every program


def test_infer_kinds_matches_the_oracle():
    """On every state of the standard pipeline, as declared and as its
    printed text declares it; the guards the state holds are the ones
    inferred from the printed declarations."""
    funcs = [f for path in sorted(DATA.glob("*.pir"))
             for f in parse_module(path.read_text()).functions]
    funcs += [gen_random_program(seed, "tiny" if seed % 2 else "small")
              for seed in range(60)]
    funcs += list(_rung_programs(1))
    checked = 0
    for func in funcs:
        for state in _standard_states(func):
            assert ir.infer_kinds(state) == oracle_kinds(state), func.name
            declared = _printed_declarations(state)
            kinds = oracle_kinds(declared)
            assert ir.infer_kinds(declared) == kinds, func.name
            assert _held_guards(state) == {
                name for name, kind in kinds.items() if kind == "guard"}
            checked += 1
    assert checked > 6 * 60  # the standard pipeline ran on every program


# Characters of .pir text, plus a few it never contains.
_PIR_CHARS = "%@!?:,=(){}\n #;-_.0123456789abcdefghijklmnopqrstuvwxyz\t\"'$"
_PIR_TEXTS = [path.read_text() for path in sorted(DATA.glob("*.pir"))]


@st.composite
def mutated_pir(draw):
    """A tests/data text with one to three characters inserted, deleted or
    duplicated."""
    text = draw(st.sampled_from(_PIR_TEXTS))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text) - 1))
        edit = draw(st.sampled_from(["insert", "delete", "duplicate"]))
        if edit == "insert":
            char = draw(st.sampled_from(_PIR_CHARS) | st.characters())
            text = text[:i] + char + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + text[i] + text[i:]
    return text


@settings(max_examples=500, deadline=None)
@given(mutated_pir())
def test_mutated_text_raises_parse_error_or_round_trips(text):
    try:
        mod = parse_module(text)
    except ParseError:
        return
    printed = print_module(mod)
    assert print_module(parse_module(printed)) == printed


def _mutable_parts(func: ir.Function):
    """Every list, set, block and instruction object reachable from `func`."""
    yield from (func, func.params, func.guards, func.blocks)
    for block in func.blocks:
        yield from (block, block.phis, block.body)
        for ins in block.instructions():
            yield ins
            yield ins.operands if isinstance(ins, ir.Instr) else ins.args


def _assert_clone_is_independent(func: ir.Function):
    text = ir.print_function(func)
    reference = copy.deepcopy(func)
    clone = func.clone()
    assert clone == func
    assert ir.print_function(clone) == text
    shared = ({id(o) for o in _mutable_parts(func)}
              & {id(o) for o in _mutable_parts(clone)})
    assert not shared
    # Grow every container of the clone; the original must not see it.
    names = clone.var_names()
    clone.params.append("zz")
    clone.guards.update(names)
    for block in clone.blocks:
        for ins in block.instructions():
            if isinstance(ins, ir.PhiInstr):
                ins.args.append(("zz", "zz"))
            elif isinstance(ins, ir.PsiInstr):
                ins.args.append((ir.TRUE, "zz"))
            else:
                ins.operands.append("zz")
        block.phis.append(ir.PhiInstr("zz", []))
        block.body.append(ir.Instr("mov", "zz", [0]))
    clone.blocks.append(ir.Block("zz"))
    assert func == reference
    assert ir.print_function(func) == text


def _standard_states(func: ir.Function):
    """`func`, then the function after each pass of the standard pipeline
    that accepts it (the `ssa` pass is skipped for psi-SSA inputs)."""
    states = [func]
    in_ssa = any(isinstance(ins, (ir.PhiInstr, ir.PsiInstr))
                 or (ins.guard is not None and ins.dest is not None)
                 for _, ins in func.instructions())
    passes = pipeline.STANDARD[1:] if in_ssa else pipeline.STANDARD
    try:
        pipeline.run(func.clone(), passes,
                     after=lambda _, f: states.append(f.clone()))
    except pipeline.FAILURES:
        pass
    return states


def test_clone_copies_every_container_and_shares_nothing_mutable():
    funcs = [f for path in sorted(DATA.glob("*.pir"))
             for f in parse_module(path.read_text()).functions]
    funcs += [gen_random_program(seed, "tiny" if seed % 2 else "small")
              for seed in range(50)]
    checked = 0
    for func in funcs:
        for state in _standard_states(func):
            _assert_clone_is_independent(state)
            checked += 1
    assert checked > 6 * 50  # the standard pipeline ran on every program


def test_module_clone_clones_each_function():
    mod = parse_module((DATA / "two_merges.pir").read_text()
                       + (DATA / "diamond_predicated.pir").read_text())
    clone = mod.clone()
    assert clone == mod and clone.functions is not mod.functions
    for f, g in zip(mod.functions, clone.functions):
        assert f is not g and f.blocks is not g.blocks


def test_uses_lists_exactly_what_rename_uses_renames():
    """`uses()` is the operand rule: a recording `rename_uses` sees the
    variables it lists, in its order, guards and psi predicates included,
    labels excluded."""
    def check(name, func):
        for _, ins in func.instructions():
            seen = []
            rename_uses(ins, lambda v: seen.append(v) or v)
            assert seen == ins.uses(), (name, ins)

    for path in sorted(DATA.glob("*.pir")):
        for func in parse_module(path.read_text()).functions:
            check(path.name, func)
    for machine in (FULL, PARTIAL):
        for seed in range(40):
            func = gen_random_program(seed, "tiny" if seed % 2 == 0
                                      else "small")
            pipeline.run(func, pipeline.STANDARD, machine, after=check)


def test_validate_accepts_psi_ssa_form():
    func = load_func("two_merges_predicated.pir")
    assert_no_errors(ir.Module([func]), "ssa")


def test_validate_rejects_an_unknown_mode():
    mod = parse_module((DATA / "diamond.pir").read_text())
    for mode in ("SSA", "non-ssa", ""):
        with pytest.raises(ValueError, match="validation mode"):
            ir.validate(mod, mode)
    # Not an assert, which `python -O` would strip.
    code = ("import pathlib, sys; from psikit import ir; "
            "mod = ir.parse_module(pathlib.Path(sys.argv[1]).read_text())\n"
            "try: ir.validate(mod, 'SSA')\n"
            "except ValueError: sys.exit(0)\n"
            "sys.exit(3)")
    proc = subprocess.run([sys.executable, "-O", "-c", code,
                           str(DATA / "diamond.pir")], check=False)
    assert proc.returncode == 0


def test_validate_multiple_definitions_in_ssa_mode():
    func = parse_one("""
        func @f(%a) {
        b0:
          %x = add %a, 1
          %x = add %a, 2
          ret %x
        }
    """)
    diags = ir.validate(ir.Module([func]), "ssa")
    assert any("multiple definitions of %x" in d.message for d in diags)
    assert_no_errors(ir.Module([func]), "non_ssa")


def test_validate_psi_argument_must_dominate_the_psi():
    # The argument's definition sits in a sibling block that does not
    # dominate the block holding the psi.
    func = parse_one("""
        func @f(%i, %p:guard) {
        b0:
          br %p, b1, b2
        b1:
          %a = add %i, 1
          goto b3
        b2:
          goto b3
        b3:
          %x = psi(%p ? %a)
          ret %x
        }
    """)
    diags = ir.validate(ir.Module([func]), "ssa")
    assert any("does not dominate the psi" in d.message for d in diags)


def test_validate_rejects_value_used_as_guard():
    expected = {
        "%v": ["guard %v is not guard-kind"],
        # %z is never defined: an undefined use besides the kind error.
        "%z": ["guard %z is not guard-kind", "use of undefined variable %z"],
    }
    for guard, messages in expected.items():
        func = parse_one(f"""
            func @f(%a) {{
            b0:
              %v = add %a, 1
              {guard}? %x = add %a, 2
              ret %x
            }}
        """)
        diags = ir.validate(ir.Module([func]), "non_ssa")
        for message in messages:
            assert any(d.message == message for d in diags), guard


@pytest.mark.parametrize("text, messages", [
    # A psi or phi argument that is never defined has no kind to mix.
    ("func @f(%a, %p:guard) {b0: %x = add %a, 1\n"
     "  %y = psi(1 ? %x, %p ? %zz)\n  ret %y}",
     ["use of undefined variable %zz"]),
    ("func @f(%a, %p:guard) {b0: br %p, b1, b2\nb1: %c = add %a, 1\n"
     "  goto b2\nb2: %y = phi(b0: %zz, b1: %c)\n  ret %y}",
     ["use of undefined variable %zz"]),
    # Read twice, reported once.
    ("func @f(%a, %p:guard) {b0: %x = add %a, 1\n  %y = and %zz, %x\n"
     "  br %zz, b1, b1\nb1: ret %a}",
     ["br condition %zz is not guard-kind", "use of undefined variable %zz"]),
], ids=["psi", "phi", "read_twice"])
def test_an_undefined_variable_is_reported_once_as_undefined(text, messages):
    diags = ir.validate(parse_module(text), "non_ssa")
    assert [d.message for d in diags if d.severity == "error"] == messages


def test_validate_rejects_value_branch_condition():
    func = parse_one("""
        func @f(%a) {
        b0:
          br %a, b1, b1
        b1:
          ret
        }
    """)
    diags = ir.validate(ir.Module([func]), "non_ssa")
    assert any("br condition" in d.message for d in diags)


def _built(body=(), term=None) -> ir.Function:
    """`@f(%a)` of one block b0, built without the parser, which refuses
    every shape below."""
    return ir.Function("f", ["a"], [ir.Block("b0", body=list(body),
                                             term=term)])


RET = ir.Instr("ret", None, ["a"])
MALFORMED = [
    ("psi_predicate", "func @f(%a, %b) {\nb0:\n  %x = psi(%a ? %b)\n"
     "  ret %x\n}", ["psi predicate %a is not guard-kind"]),
    ("psi_mixed", "func @f(%a, %p:guard) {\nb0:\n"
     "  %x = psi(%p ? %a, %p ? %p)\n  ret %a\n}",
     ["psi %x mixes value and guard args"]),
    ("select", "func @f(%a, %b) {\nb0:\n  %x = select %a, %b, %b\n"
     "  ret %x\n}", ["select condition must be a guard register"]),
    ("compare", "func @f(%a, %p:guard) {\nb0:\n  %x = cmp_lt %p, %a\n"
     "  br %x, b1, b1\nb1:\n  ret %a\n}",
     ["cmp_lt operand %p must be value-kind"]),
    ("and", "func @f(%a, %p:guard) {\nb0:\n  %x = and %p, %a\n"
     "  ret %x\n}", ["and mixes guard and value operands"]),
    ("add", "func @f(%a, %p:guard) {\nb0:\n  %x = add %p, %a\n"
     "  ret %x\n}", ["guard %p used as a value in add"]),
    ("missing_terminator", _built([ir.Instr("add", "x", ["a", 1])]),
     ["missing terminator"]),
    ("terminator_is", _built(term=ir.Instr("add", "x", ["a", 1])),
     ["terminator is add"]),
    ("mid_block", _built([RET], RET), ["terminator in mid-block"]),
    ("branch_target", _built(term=ir.Instr("goto", None, ["b9"])),
     ["undefined branch target b9"]),
    # A psi of no arguments yields a guard as vacuously as a value.
    ("empty_psi", _built([PsiInstr("x", [])], RET),
     ["psi %x has no arguments",
      "value-kind %x is defined by psi, which yields a guard"]),
]


@pytest.mark.parametrize("mode", ["non_ssa", "ssa"])
@pytest.mark.parametrize("source, messages",
                         [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_validate_reports_each_malformed_shape(source, messages, mode):
    func = parse_one(source) if isinstance(source, str) else source
    diags = ir.validate(ir.Module([func]), mode)
    assert [d.message for d in diags] == messages
    assert all(d.severity == "error" for d in diags)


# Guard kinds that only a declaration gives and that the printed text
# would drop: the printer writes `:guard` on const and load only.
LOST_GUARD_KINDS = [
    ('mov_of_a_value',
     'func @f(%a) {\nb0:\n  %x:guard = mov %a\n  br %x, b1, b1\nb1:\n'
     '  ret %a\n}', "guard-kind %x is defined by mov, which yields a value"),
    ('add',
     'func @f(%a) {\nb0:\n  %x:guard = add %a, 1\n  br %x, b1, b1\nb1:\n'
     '  ret %a\n}', "guard-kind %x is defined by add, which yields a value"),
    ('redefined_guard_parameter',
     'func @f(%a, %p:guard) {\nb0:\n  %p = add %a, 1\n  br %p, b1, b2\n'
     'b1:\n  goto b2\nb2:\n  ret %a\n}',
     "guard-kind %p is defined by add, which yields a value"),
    # The mirror case: %x is a value, as `add` defines it too, but SSA
    # renaming gives its copy of a guard a name that would print as one.
    ('value_copy_of_a_guard',
     'func @f(%a, %p:guard) {\nb0:\n  %x = mov %p\n  %x = add %x, 1\n'
     '  ret %x\n}', "value-kind %x is defined by mov, which yields a guard"),
]


@pytest.mark.parametrize("text, message",
                         [case[1:] for case in LOST_GUARD_KINDS],
                         ids=[case[0] for case in LOST_GUARD_KINDS])
def test_validate_rejects_a_guard_kind_the_printed_text_would_lose(text,
                                                                   message):
    diags = ir.validate(parse_module(text), "non_ssa")
    assert [d.message for d in diags if d.severity == "error"] == [message]


def test_declared_guards_the_printed_text_keeps_validate_clean():
    func = parse_one("""
        func @f(%a, %p:guard, %q:guard) {
        b0:
          %c:guard = const 1
          %l:guard = load %a
          %t:guard = cmp_lt %a, 2
          %m:guard = mov %p
          %s:guard = select %c, %p, %q
          %n:guard = and %m, %l
          br %n, b1, b2
        b1:
          goto b2
        b2:
          %x:guard = phi(b0: %s, b1: %t)
          %y:guard = psi(%p ? %x, %q ? %n)
          %y? %r = add %a, 1
          ret %r
        }
    """)
    assert_no_errors(ir.Module([func]), "non_ssa")
    again = parse_module(ir.print_function(func)).functions[0]
    assert ir.infer_kinds(again) == ir.infer_kinds(func)


def test_validate_phi_arity_matches_predecessors():
    func = parse_one("""
        func @f(%a, %p:guard) {
        b0:
          br %p, b1, b2
        b1:
          goto b3
        b2:
          goto b3
        b3:
          %x = phi(b1: %a)
          ret %x
        }
    """)
    diags = ir.validate(ir.Module([func]), "non_ssa")
    assert any("do not match predecessors" in d.message for d in diags)


def test_validate_duplicate_function_names():
    text = "func @f(){ b0: ret }\nfunc @f(){ b0: ret }"
    diags = ir.validate(ir.parse_module(text), "non_ssa")
    assert any("duplicate function name" in d.message for d in diags)


def test_unreachable_block_warns():
    func = parse_one("""
        func @f(%a) {
        b0:
          ret %a
        b1:
          ret %a
        }
    """)
    diags = ir.validate(ir.Module([func]), "non_ssa")
    assert any(d.severity == "warning" and "unreachable" in d.message
               for d in diags)


def test_alpha_equivalence_modulo_renaming():
    a = load_func("diamond_predicated.pir")
    b = a.clone()
    # Rename every variable and block label consistently.
    text = ir.print_function(b)
    text = (text.replace("%a", "%u").replace("%b", "%w")
                .replace("%x", "%y").replace("b0", "entry"))
    renamed = parse_module(text).functions[0]
    assert ir.alpha_equivalent(a, renamed)


def test_alpha_equivalence_rejects_structural_change():
    a = load_func("diamond_predicated.pir")
    b = a.clone()
    b.blocks[0].body[0].operands[1] = 7
    assert not ir.alpha_equivalent(a, b)
    c = a.clone()
    psi = c.blocks[0].body[-1]
    psi.args.reverse()
    assert not ir.alpha_equivalent(a, c)


def test_alpha_equivalence_compares_phi_arity():
    a = parse_one("""
        func @f(%a) {
        b0:
          goto b1
        b1:
          %x = phi(b0: %a)
          ret %x
        }
    """)
    b = a.clone()
    b.blocks[1].phis[0].args.clear()
    assert not ir.alpha_equivalent(a, b)
    assert not ir.alpha_equivalent(b, a)


def test_alpha_equivalence_compares_guard_declarations():
    """`%g:guard = const 5` reads as 1, `%g = const 5` as 5."""
    guard = parse_one("func @f() {\nb0:\n  %g:guard = const 5\n  ret %g\n}")
    value = parse_one("func @f() {\nb0:\n  %g = const 5\n  ret %g\n}")
    assert not ir.alpha_equivalent(guard, value)
    assert not ir.alpha_equivalent(value, guard)


def test_alpha_equivalence_rejects_non_injective_renamings():
    two = parse_one("func @f(%a, %b) {\nb0:\n  %x = add %a, %b\n  ret %x\n}")
    one = parse_one("func @f(%u, %w) {\nb0:\n  %x = add %u, %u\n  ret %x\n}")
    assert not ir.alpha_equivalent(two, one)
    assert not ir.alpha_equivalent(one, two)
    text = "func @f(%p:guard) {\nb0:\n  br %p, b1, B\nb1:\n  ret\nb2:\n  ret\n}"
    two_labels = parse_one(text.replace("B", "b2"))
    one_label = parse_one(text.replace("B", "b1"))
    assert not ir.alpha_equivalent(two_labels, one_label)
    assert not ir.alpha_equivalent(one_label, two_labels)


def test_name_allocator_resumes_where_probing_would_stop():
    func = parse_one("""
        func @f(%x) {
        b0:
          %x.1 = add %x, 1
          %x.3 = add %x.1, 1
          ret %x.3
        }
        """)
    alloc = ir.NameAllocator(func)
    used = set(func.var_names())

    def probe(base: str) -> str:
        """Smallest unused index, searched from 1 on every call."""
        root = base.split(".")[0] or "t"
        name, i = root, 0
        while name in used:
            i += 1
            name = f"{root}.{i}"
        used.add(name)
        return name

    bases = ["x", "x.3", "y", "x", "y.2", "x.1", "", ".5", "x"]
    got = [alloc.fresh(b) for b in bases]
    assert got == [probe(b) for b in bases]
    assert got == ["x.2", "x.4", "y", "x.5", "y.1", "x.6", "t", "t.1", "x.7"]


def test_a_fresh_name_takes_the_kind_of_its_base():
    """A fresh name is a guard exactly when the name it is made from is.
    A name whose guard definition a pass removed stays in
    `Function.guards`; handed out again for a value, it leaves."""
    func = parse_one("""
        func @f(%a) {
        b0:
          %x = cmp_lt %a, 1
          %a.1 = cmp_eq %a, 2
          ret %a
        }
        """)
    del func.blocks[0].body[1]
    assert "a.1" in func.guards
    alloc = ir.NameAllocator(func)
    assert alloc.fresh("a") == "a.1"
    assert alloc.fresh("x") == "x.1"
    assert alloc.fresh("x.1") == "x.2"
    assert alloc.fresh("a.1") == "a.2"
    assert func.guards == {"x", "x.1", "x.2"}
