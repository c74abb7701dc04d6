import pytest

from psikit import interp, ir
from psikit.analysis import Analyses
from psikit.ifconvert import (NotConvertible, _find_regions_once, if_convert,
                              if_convert_pass)
from psikit.machine import FULL, PARTIAL, machine_from_flags
from psikit.out_of_ssa import run_out_of_ssa
from psikit.ssa import construct_ssa

from helpers import assert_no_errors, load_func


def regions_of(func, machine=FULL):
    """Regions directly convertible in the function as it stands."""
    return _find_regions_once(Analyses(func), machine)


def test_diamond_is_a_region():
    func = construct_ssa(load_func("diamond.pir"))
    regions = regions_of(func)
    assert len(regions) == 1
    region = regions[0]
    assert region.head == "b0"
    assert region.then_blocks == ["b1"]
    assert region.else_blocks == ["b2"]
    assert region.merge == "b3"


def test_loop_back_edge_is_not_a_region():
    func = ir.parse_module("""
func @f(%a, %p:guard) {
b0:
  br %p, b1, b2
b1:
  %x = add %a, 1
  goto b0
b2:
  ret %a
}
""").functions[0]
    assert regions_of(func) == []


def test_nested_diamonds_listed_innermost_first():
    func = construct_ssa(ir.parse_module("""
func @f(%i, %p:guard, %q:guard) {
b0:
  br %p, b1, b5
b1:
  br %q, b2, b3
b2:
  %x = add %i, 1
  goto b4
b3:
  %x = add %i, 2
  goto b4
b4:
  goto b6
b5:
  %x = add %i, 3
  goto b6
b6:
  ret %x
}
""").functions[0])
    # Only the inner diamond is a region at first; the outer one becomes
    # one once the inner has collapsed into its arm.
    assert [r.head for r in regions_of(func)] == ["b1"]
    work = func.clone()
    assert if_convert_pass(work, FULL) == 2
    assert len(work.blocks) == 1


def test_store_needs_a_predicated_store():
    func = construct_ssa(ir.parse_module("""
func @f(%i, %p:guard) {
b0:
  br %p, b1, b2
b1:
  store 0, %i
  goto b2
b2:
  ret %i
}
""").functions[0])
    no_pred_store = machine_from_flags("partial", predicable="mov,select")
    assert regions_of(func, no_pred_store) == []
    assert len(regions_of(func, PARTIAL)) == 1
    work = func.clone()
    if_convert_pass(work, PARTIAL)
    store = next(i for _, i in work.instructions() if i.opcode == "store")
    assert store.guard == ir.Pred("p")
    report = interp.differential_check(func, work, trials=32, seed=0)
    assert not report.mismatches


def test_if_convert_reports_not_convertible():
    func = construct_ssa(ir.parse_module("""
func @f(%i, %p:guard) {
b0:
  br %p, b1, b2
b1:
  store 0, %i
  goto b2
b2:
  ret %i
}
""").functions[0])
    cache = Analyses(func)
    region = _find_regions_once(cache, PARTIAL)[0]
    with pytest.raises(NotConvertible):
        if_convert(cache, region, machine_from_flags("partial",
                                                     predicable="mov,select"),
                   ir.NameAllocator(func))


def test_full_predication_matches_reference():
    func = load_func("diamond.pir")
    expected = load_func("diamond_predicated.pir")
    work = construct_ssa(func)
    assert if_convert_pass(work, FULL) == 1
    assert ir.alpha_equivalent(work, expected)
    assert_no_errors(ir.Module([work]), "ssa")
    report = interp.differential_check(func, work, trials=32, seed=1)
    assert not report.mismatches


def test_partial_predication_speculates_and_extends_psi():
    func = load_func("speculate_add.pir")
    expected = load_func("speculate_add_predicated.pir")
    work = construct_ssa(func)
    if_convert_pass(work, PARTIAL)
    assert ir.alpha_equivalent(work, expected)
    report = interp.differential_check(func, work, trials=32, seed=2)
    assert not report.mismatches


def test_chained_merges_inline_into_wide_psi():
    func = load_func("two_merges.pir")
    expected = load_func("two_merges_predicated.pir")
    work = construct_ssa(func)
    assert if_convert_pass(work, FULL) == 2
    assert ir.alpha_equivalent(work, expected)
    report = interp.differential_check(func, work, trials=32, seed=3)
    assert not report.mismatches


def test_triangle_conversion():
    func = ir.parse_module("""
func @f(%i, %q:guard) {
b0:
  %x = mul %i, 3
  br %q, b1, b2
b1:
  %x = const 0
  goto b2
b2:
  ret %x
}
""").functions[0]
    work = construct_ssa(func)
    if_convert_pass(work, FULL)
    assert len(work.blocks) == 1
    report = interp.differential_check(func, work, trials=32, seed=4)
    assert not report.mismatches


def test_nested_conversion_is_equivalent():
    func = ir.parse_module("""
func @f(%i, %p:guard, %q:guard) {
b0:
  br %p, b1, b5
b1:
  br %q, b2, b3
b2:
  %x = add %i, 1
  goto b4
b3:
  %x = add %i, 2
  goto b4
b4:
  goto b6
b5:
  %x = add %i, 3
  goto b6
b6:
  ret %x
}
""").functions[0]
    for machine in (FULL, PARTIAL):
        work = construct_ssa(func)
        if_convert_pass(work, machine)
        assert len(work.blocks) == 1
        assert_no_errors(ir.Module([work]), "ssa")
        report = interp.differential_check(func, work, trials=32, seed=5)
        assert not report.mismatches, machine.name


def test_convert_then_out_of_ssa_round_trips_semantics():
    for name in ("diamond.pir", "two_merges.pir", "speculate_add.pir"):
        func = load_func(name)
        work = construct_ssa(func)
        if_convert_pass(work, FULL)
        run_out_of_ssa(work)
        assert_no_errors(ir.Module([work]), "non_ssa")
        report = interp.differential_check(func, work, trials=32, seed=6)
        assert not report.mismatches, name
