import copy
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psikit import ir, pipeline
from psikit.interp import gen_random_program
from psikit.ir import (ParseError, Pred, PsiInstr, parse_module, print_module,
                       rename_uses)
from psikit.machine import FULL, PARTIAL

from helpers import DATA, assert_no_errors, load_func


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
    assert exc.value.line == 3


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
    yield from (func, func.params, func.guard_decls, func.blocks)
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
    clone.params.append(("zz", "value"))
    clone.guard_decls.update(names)
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
