import pytest

from psikit import interp, ir
from psikit.analysis import Analyses
from psikit.ifconvert import (Region, _follow_arm, _planned, if_convert,
                              if_convert_pass)
from psikit.interp import gen_random_program
from psikit.machine import FULL, PARTIAL, machine_from_flags
from psikit.predicates import guard_env_or_conservative
from psikit.ssa import construct_ssa, psi_inline_all, psi_promote_pass

from helpers import DATA, assert_no_errors, load, load_func, pipeline


def rescanned_regions(cache, machine):
    """The reference detector: the planned regions of the CFG as it stands,
    innermost first, found by a scan of every block on fresh predecessors.
    A region is planned only when the generator reaches it."""
    func, blocks, dom = cache.func, cache.blocks, cache.dom
    preds = func.predecessors()
    candidates = []
    for block in func.blocks:
        term = block.term
        if term is None or term.opcode != "br" or block.label not in dom.depth:
            continue
        t_target, e_target = term.labels()
        if t_target == e_target:
            continue
        t = _follow_arm(blocks, t_target, block.label, preds)
        e = _follow_arm(blocks, e_target, block.label, preds)
        if t is None or e is None:
            continue
        (t_chain, merge), (e_chain, e_merge) = t, e
        if (merge != e_merge or set(t_chain) & set(e_chain)
                or merge == block.label or len(preds[merge]) != 2):
            continue
        candidates.append(Region(block.label, t_chain, e_chain, merge,
                                 cond=term.operands[0]))
    order = {b.label: i for i, b in enumerate(func.blocks)}
    candidates.sort(key=lambda r: (-dom.depth.get(r.head, 0), order[r.head]))
    for region in candidates:
        if _planned(cache, region, machine):
            yield region


def rescanning_loop(cache, machine):
    """The regions to convert one after another, each found by a rescan."""
    return iter(lambda: next(rescanned_regions(cache, machine), None), None)


def regions_of(func, machine=FULL):
    """Regions directly convertible in the function as it stands."""
    return list(rescanned_regions(Analyses(func), machine))


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


def test_full_predication_matches_reference():
    func = load_func("diamond.pir")
    expected = load_func("diamond_predicated.pir")
    work = construct_ssa(func.clone())
    assert if_convert_pass(work, FULL) == 1
    assert ir.alpha_equivalent(work, expected)
    assert_no_errors(ir.Module([work]), "ssa")
    report = interp.differential_check(func, work, trials=32, seed=1)
    assert not report.mismatches


def test_partial_predication_speculates_and_extends_psi():
    func = load_func("speculate_add.pir")
    expected = load_func("speculate_add_predicated.pir")
    work, _ = pipeline(func, ["ssa", "ifconvert"], PARTIAL)
    assert ir.alpha_equivalent(work, expected)
    report = interp.differential_check(func, work, trials=32, seed=2)
    assert not report.mismatches


def test_chained_merges_inline_into_wide_psi():
    func = load_func("two_merges.pir")
    expected = load_func("two_merges_predicated.pir")
    work = construct_ssa(func.clone())
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
    work, _ = pipeline(func, ["ssa", "ifconvert"])
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
        work, _ = pipeline(func, ["ssa", "ifconvert"], machine)
        assert len(work.blocks) == 1
        assert_no_errors(ir.Module([work]), "ssa")
        report = interp.differential_check(func, work, trials=32, seed=5)
        assert not report.mismatches, machine.name


def test_convert_then_out_of_ssa_round_trips_semantics():
    for name in ("diamond.pir", "two_merges.pir", "speculate_add.pir"):
        func = load_func(name)
        work, _ = pipeline(func, ["ssa", "ifconvert", "out-of-ssa"])
        assert_no_errors(ir.Module([work]), "non_ssa")
        report = interp.differential_check(func, work, trials=32, seed=6)
        assert not report.mismatches, name


def _assert_cache_is_fresh(cache):
    """The carried analyses equal the ones a new cache computes."""
    func = cache.func
    fresh = Analyses(func)
    assert cache.defs.keys() == fresh.defs.keys()
    assert all(cache.defs[v] is fresh.defs[v] for v in fresh.defs)
    assert list(cache.blocks) == list(fresh.blocks)
    # The same predecessors; a folded merge's successors list the head
    # where the merge was, not in block order.
    assert ({l: sorted(ps) for l, ps in cache.preds.items()}
            == {l: sorted(ps) for l, ps in fresh.preds.items()})
    assert all(cache.blocks[l] is fresh.blocks[l] for l in fresh.blocks)
    assert cache.positions == fresh.positions
    assert cache.dom.idom == fresh.dom.idom
    assert cache.dom.depth == fresh.dom.depth
    assert cache.dom.entry == fresh.dom.entry
    assert cache.dom.children == fresh.dom.children
    env, ref = cache.env, fresh.env
    assert env.formulas.keys() == ref.formulas.keys()
    preds = [ir.Pred(reg, positive) for reg in sorted(ref.formulas)
             for positive in (True, False)]
    for a in preds:
        for b in preds:
            fa, fb = env.pred_formula(a), env.pred_formula(b)
            ra, rb = ref.pred_formula(a), ref.pred_formula(b)
            assert env.subset(fa, fb) == ref.subset(ra, rb), (a, b)
            assert env.disjoint(fa, fb) == ref.disjoint(ra, rb), (a, b)


@pytest.mark.parametrize("machine", [FULL, PARTIAL], ids=["full", "partial"])
def test_carried_analyses_match_fresh_ones_after_every_region(machine):
    """Step if_convert_pass's loop by hand and check the updated cache
    after each conversion and after each psi inlining."""
    regions = 0
    for seed in range(24):
        program = gen_random_program(seed, ("tiny", "small")[seed % 2])
        func, _ = pipeline(program, ["ssa", "fold"])
        cache = Analyses(func)
        alloc = ir.NameAllocator(func)
        for region in rescanning_loop(cache, machine):
            if_convert(cache, region, alloc)
            _assert_cache_is_fresh(cache)
            psi_inline_all(cache)
            _assert_cache_is_fresh(cache)
            regions += 1
    assert regions > 40


def _convert_inlining_after_every_region(func, machine) -> int:
    """The reference: if_convert_pass's loop with the chained psis inlined
    after each region instead of once at the end; returns the splices."""
    cache = Analyses(func)
    alloc = ir.NameAllocator(func)
    splices = 0
    for region in rescanning_loop(cache, machine):
        if_convert(cache, region, alloc)
        splices += psi_inline_all(cache)
    return splices


def _ifconvert_inputs(seeds: int = 200):
    """SSA functions ready for if-conversion: generated programs after
    `ssa,fold`, and every function of tests/data (as given when it is
    already in psi-SSA form)."""
    for seed in range(seeds):
        program = gen_random_program(seed, ("tiny", "small")[seed % 2])
        yield pipeline(program, ["ssa", "fold"])[0]
    for path in sorted(DATA.glob("*.pir")):
        for func in load(path.name).functions:
            try:
                yield construct_ssa(func.clone())
            except ValueError:
                yield func


@pytest.mark.parametrize("machine", [FULL, PARTIAL], ids=["full", "partial"])
def test_inlining_once_per_pass_matches_inlining_after_every_region(machine):
    splices = 0
    for func in _ifconvert_inputs():
        reference = func.clone()
        splices += _convert_inlining_after_every_region(reference, machine)
        if_convert_pass(func, machine)
        assert ir.print_function(func) == ir.print_function(reference)
    assert splices > 20


def _shape(region):
    return (region.head, region.then_blocks, region.else_blocks,
            region.merge)


@pytest.mark.parametrize("machine", [FULL, PARTIAL], ids=["full", "partial"])
def test_worklist_converts_the_regions_a_rescan_finds(machine, monkeypatch):
    """if_convert_pass converts the regions that rescanning the CFG after
    every conversion finds, in the same order, to the same output."""
    from psikit import ifconvert
    converted = []

    def recording(cache, region, alloc):
        converted.append(_shape(region))
        return if_convert(cache, region, alloc)
    monkeypatch.setattr(ifconvert, "if_convert", recording)
    regions = 0
    for func in _ifconvert_inputs(400):
        reference = func.clone()
        cache = Analyses(reference)
        alloc = ir.NameAllocator(reference)
        expected = []
        for region in rescanning_loop(cache, machine):
            expected.append(_shape(region))
            if_convert(cache, region, alloc)
        if expected:
            psi_inline_all(cache)
        converted.clear()
        assert if_convert_pass(func, machine) == len(expected)
        assert converted == expected
        assert ir.print_function(func) == ir.print_function(reference)
        regions += len(expected)
    assert regions > 1000


def _diamond_chain_source(n: int) -> ir.Function:
    """n sequential diamonds, each merge the head of the next; not SSA."""
    lines = ["func @f(%x) {"]
    for i in range(n):
        lines += [f"h{i}:", f"  %c = cmp_lt %x, {i}", f"  br %c, t{i}, e{i}",
                  f"t{i}:", "  %x = add %x, 1", f"  goto h{i + 1}",
                  f"e{i}:", "  %x = sub %x, 1", f"  goto h{i + 1}"]
    lines += [f"h{n}:", "  ret %x", "}"]
    return ir.parse_module("\n".join(lines)).functions[0]


def _diamond_chain(n: int) -> ir.Function:
    return construct_ssa(_diamond_chain_source(n))


def _counting(monkeypatch, module, name: str, counts: dict):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)


def test_if_convert_pass_builds_each_analysis_once(monkeypatch):
    from psikit import analysis, ifconvert
    func = _diamond_chain(100)
    counts: dict[str, int] = {}
    _counting(monkeypatch, analysis, "guard_env_or_conservative", counts)
    _counting(monkeypatch, analysis, "dominator_tree", counts)
    _counting(monkeypatch, ifconvert, "_plan_arm", counts)
    _counting(monkeypatch, ifconvert, "psi_inline_all", counts)
    _counting(monkeypatch, ir.Function, "predecessors", counts)
    assert if_convert_pass(func, FULL) == 100
    assert len(func.blocks) == 1
    assert counts["guard_env_or_conservative"] == 1
    assert counts["dominator_tree"] <= 1
    assert counts["predecessors"] <= 1
    assert counts["_plan_arm"] == 2 * 100
    assert counts["psi_inline_all"] == 1


def test_construction_and_validation_compute_predecessors_once(monkeypatch):
    counts: dict[str, int] = {}
    _counting(monkeypatch, ir.Function, "predecessors", counts)
    func = construct_ssa(_diamond_chain_source(100))
    assert counts.pop("predecessors") == 1
    assert_no_errors(ir.Module([func]), "ssa")
    assert counts.pop("predecessors") == 1


def test_promotion_builds_the_definitions_once(monkeypatch):
    func = _diamond_chain(100)
    assert if_convert_pass(func, FULL) == 100
    env = guard_env_or_conservative(func)
    counts: dict[str, int] = {}
    _counting(monkeypatch, ir.Function, "defs", counts)
    assert psi_promote_pass(func, env, FULL) == 100
    assert counts["defs"] == 1


def test_a_failed_plan_is_not_repeated(monkeypatch):
    """k convertible diamonds, then m whose then-arm loads, which a machine
    that cannot predicate loads cannot convert.  The failing regions are
    innermost, so each conversion comes after them in the order, and the
    last conversion hands the first failing branch to its head; each
    failing region is still planned once."""
    from psikit import ifconvert
    k, m = 30, 20
    lines = ["func @f(%x) {"]
    for i in range(k):
        lines += [f"h{i}:", f"  %c = cmp_lt %x, {i}", f"  br %c, t{i}, e{i}",
                  f"t{i}:", "  %x = add %x, 1", f"  goto h{i + 1}",
                  f"e{i}:", "  %x = sub %x, 1", f"  goto h{i + 1}"]
    for j in range(m):
        lines += [f"h{k + j}:", f"  %c = cmp_lt %x, {j}",
                  f"  br %c, ft{j}, fe{j}",
                  f"ft{j}:", "  %x = load %x", f"  goto h{k + j + 1}",
                  f"fe{j}:", "  %x = sub %x, 1", f"  goto h{k + j + 1}"]
    lines += [f"h{k + m}:", "  ret %x", "}"]
    func = construct_ssa(ir.parse_module("\n".join(lines)).functions[0])
    no_pred_load = machine_from_flags("partial", predicable="mov")
    planned: dict[tuple, int] = {}
    plan_arm = ifconvert._plan_arm

    def counting(cache, arm_labels, machine):
        planned[tuple(arm_labels)] = planned.get(tuple(arm_labels), 0) + 1
        return plan_arm(cache, arm_labels, machine)
    monkeypatch.setattr(ifconvert, "_plan_arm", counting)
    assert if_convert_pass(func, no_pred_load) == k
    assert len(func.blocks) == 3 * m + 1
    assert all(planned[(f"ft{j}",)] == 1 for j in range(m))
    assert sum(planned.values()) == 2 * k + m
