from psikit import analysis, interp, ir, out_of_ssa
from psikit.machine import FULL, PARTIAL
from psikit.out_of_ssa import (CongruenceClasses, OutOfSsaOptions, count_movs,
                               psi_normalize, rename_and_strip, run_out_of_ssa)
from psikit.predicates import guard_env_or_conservative
from psikit.ssa import all_psis, is_normalized

from helpers import ALL_OFF, assert_no_errors, load_func, pipeline, to_cssa


def normalize_only(func, reorder=True):
    work = func.clone()
    copies = psi_normalize(analysis.Analyses(work), reorder)
    return work, copies


# -- psi-normalize ------------------------------------------------------------

def test_normalize_three_shapes():
    func = load_func("normalize_three.pir")
    expected = load_func("normalize_three_normalized.pir")
    work, copies = normalize_only(func)
    assert copies == 3
    assert ir.alpha_equivalent(work, expected)
    cache = analysis.Analyses(work)
    assert all(is_normalized(cache, p) for p in all_psis(work))


def test_normalize_is_idempotent():
    func = load_func("normalize_three.pir")
    work, first = normalize_only(func)
    again, second = normalize_only(work)
    assert first == 3 and second == 0
    assert ir.alpha_equivalent(work, again)


def test_normalize_already_normalized_is_identity():
    func = load_func("diamond_predicated.pir")
    work, copies = normalize_only(func)
    assert copies == 0
    assert ir.alpha_equivalent(work, func)


def test_normalize_order_violation_inserts_predicated_copy():
    func = load_func("order_swap.pir")
    expected = load_func("order_swap_cssa.pir")
    work, copies = normalize_only(func, reorder=False)
    assert copies == 1
    assert ir.alpha_equivalent(work, expected)


def test_oracle_and_normalizer_share_the_order_rule():
    """A psi-defined left argument is defined at its psi, not at its chain
    head, for `is_normalized` as for `psi_normalize`."""
    func = load_func("order_psi_left.pir")
    y = all_psis(func)[-1]
    assert not is_normalized(analysis.Analyses(func), y)
    work, copies = normalize_only(func)
    assert copies == 1
    cache = analysis.Analyses(work)
    assert all(is_normalized(cache, p) for p in all_psis(work))
    assert not interp.differential_check(func, work, trials=32,
                                         seed=3).mismatches


# -- psi-congruence -----------------------------------------------------------

def test_congruence_repairs_live_overlap():
    func = load_func("live_overlap.pir")
    expected = load_func("live_overlap_repaired.pir")
    work, classes, counts = to_cssa(func, ALL_OFF)
    assert counts == (0, 3, 0)
    assert ir.alpha_equivalent(work, expected)
    # a joins the three repair variables in one class.
    group = classes.members("a")
    assert len(group) == 4 and "a" in group
    for name in ("b", "c", "x"):
        assert name not in group
    report = interp.differential_check(func, work, trials=32, seed=0)
    assert not report.mismatches


def test_congruence_clean_psi_needs_no_copies():
    func = load_func("diamond_predicated.pir")
    work, classes, counts = to_cssa(func, ALL_OFF)
    assert counts == (0, 0, 0)
    assert sorted(classes.members("x")) == ["a", "b", "x"]


def test_congruence_shared_argument_is_detached():
    func = load_func("shared_arg.pir")
    expected = load_func("shared_arg_cssa.pir")
    work, classes, counts = to_cssa(func)
    assert counts == (0, 1, 0)
    assert ir.alpha_equivalent(work, expected)
    assert len(classes.members("x")) == 3
    assert len(classes.members("y")) == 3
    assert classes.find("x") != classes.find("y")


def test_rename_and_strip_matches_reference_outputs():
    for src, want in [("order_swap.pir", "order_swap_nonssa.pir"),
                      ("shared_arg.pir", "shared_arg_nonssa.pir")]:
        func = load_func(src)
        work, classes, _ = to_cssa(func)
        rename_and_strip(work, classes)
        assert ir.alpha_equivalent(work, load_func(want)), src
        assert_no_errors(ir.Module([work]), "non_ssa")
        report = interp.differential_check(func, work, trials=32, seed=1)
        assert not report.mismatches, src


def test_rename_and_strip_without_merges_is_identity():
    func = ir.parse_module("""
func @f(%a) {
b0:
  %x = add %a, 1
  ret %x
}
""").functions[0]
    work = func.clone()
    rename_and_strip(work, CongruenceClasses())
    assert ir.alpha_equivalent(work, func)


# -- phi-congruence -----------------------------------------------------------

def test_clean_phi_merges_without_copies():
    _, stats = pipeline(load_func("diamond.pir"), ["ssa", "out-of-ssa"])
    assert stats.copies_phi_congruence == 0
    assert stats.total_copies == 0


def test_lost_copy_loop_needs_one_copy():
    func = ir.parse_module("""
func @f(%n) {
b0:
  %i0 = const 0
  goto b1
b1:
  %i1 = phi(b0: %i0, b1: %i2)
  %i2 = add %i1, 1
  %c = cmp_lt %i2, %n
  br %c, b1, b2
b2:
  ret %i1
}
""").functions[0]
    work = func.clone()
    stats = run_out_of_ssa(work)
    assert stats.copies_phi_congruence == 1
    assert_no_errors(ir.Module([work]), "non_ssa")
    report = interp.differential_check(func, work, trials=32, seed=2)
    assert not report.mismatches


def test_swap_loop_stays_correct():
    func = ir.parse_module("""
func @f(%n, %a, %b) {
b0:
  %k = const 0
  goto b1
b1:
  %x = phi(b0: %a, b1: %y)
  %y = phi(b0: %b, b1: %x)
  %k2 = phi(b0: %k, b1: %k3)
  %k3 = add %k2, 1
  %c = cmp_lt %k3, %n
  br %c, b1, b2
b2:
  ret %x
}
""").functions[0]
    work = func.clone()
    run_out_of_ssa(work)
    assert_no_errors(ir.Module([work]), "non_ssa")
    report = interp.differential_check(func, work, trials=32, seed=3)
    assert not report.mismatches


def test_phi_naive_mode_is_equivalent():
    func = load_func("loop_carried.pir")
    work = func.clone()
    stats = run_out_of_ssa(work, OutOfSsaOptions(phi_naive=True))
    assert_no_errors(ir.Module([work]), "non_ssa")
    report = interp.differential_check(func, work, trials=32, seed=4,
                                       budget=5000)
    assert not report.mismatches
    lean = func.clone()
    lean_stats = run_out_of_ssa(lean)
    assert lean_stats.copies_phi_congruence <= stats.copies_phi_congruence


# -- the loop example and promotion -------------------------------------------

def test_loop_carried_copy_counts_without_promotion():
    func = load_func("loop_carried.pir")
    work = func.clone()
    stats = run_out_of_ssa(work)
    assert stats.copies_normalize == 1
    assert stats.copies_psi_congruence == 0
    assert stats.copies_phi_congruence == 1
    report = interp.differential_check(func, work, trials=32, seed=5,
                                       budget=5000)
    assert not report.mismatches


def test_loop_carried_copy_counts_with_promotion():
    func = load_func("loop_carried.pir")
    work, stats = pipeline(func, ["psi-promote", "out-of-ssa"])
    assert stats.copies_inserted() == 0
    report = interp.differential_check(func, work, trials=32, seed=5,
                                       budget=5000)
    assert not report.mismatches


# -- the four refinements -----------------------------------------------------

REORDER_WITNESS = """
func @f(%i) {
b0:
  %p = cmp_lt %i, 5
  !%p? %b = add %i, 1
  %p? %a = add %i, 2
  %x = psi(%p ? %a, !%p ? %b)
  ret %x
}
"""

DISJOINT_WITNESS = """
func @f(%i) {
b0:
  %p = cmp_lt %i, 5
  %p? %a = add %i, 1
  !%p? %b = add %i, 2
  %x = psi(%p ? %a, !%p ? %b)
  %p? %d = add %a, 3
  %u = add %x, %d
  ret %u
}
"""


def run_with(text_or_name, opts):
    if text_or_name.endswith(".pir"):
        func = load_func(text_or_name)
    else:
        func = ir.parse_module(text_or_name).functions[0]
    work = func.clone()
    stats = run_out_of_ssa(work, opts)
    report = interp.differential_check(func, work, trials=32, seed=6)
    assert not report.mismatches
    return stats.copies_inserted()


def opts_with(**changes):
    base = dict(reorder_disjoint=False, disjoint_interference=False,
                left_only=False, ignore_result=False)
    base.update(changes)
    return OutOfSsaOptions(**base)


def test_reorder_disjoint_witness():
    off = run_with(REORDER_WITNESS, opts_with())
    on = run_with(REORDER_WITNESS, opts_with(reorder_disjoint=True))
    assert (off, on) == (1, 0)


def test_disjoint_interference_witness():
    off = run_with(DISJOINT_WITNESS, opts_with(left_only=True,
                                               ignore_result=True))
    on = run_with(DISJOINT_WITNESS, opts_with(left_only=True,
                                              ignore_result=True,
                                              disjoint_interference=True))
    assert (off, on) == (1, 0)


def test_left_only_witness():
    off = run_with("live_overlap.pir", opts_with())
    on = run_with("live_overlap.pir", opts_with(left_only=True))
    assert (off, on) == (3, 2)


def test_ignore_result_witness():
    off = run_with("live_overlap.pir", opts_with())
    on = run_with("live_overlap.pir", opts_with(ignore_result=True))
    assert (off, on) == (3, 2)


CRAFTED = ["diamond.pir", "two_merges.pir", "speculate_add.pir",
           "order_swap.pir", "shared_arg.pir", "fold_pred_copy.pir",
           "normalize_three.pir", "select_chain.pir", "live_overlap.pir",
           "loop_carried.pir"]


def crafted_corpus():
    for name in CRAFTED:
        func = load_func(name)
        already_ssa = any(b.phis for b in func.blocks) or any(
            isinstance(i, ir.PsiInstr) for b in func.blocks for i in b.body)
        if already_ssa:
            work = func.clone()
        else:
            work, _ = pipeline(func, ["ssa", "ifconvert"])
        yield name, work


def test_each_improvement_never_increases_copies_on_crafted_corpus():
    for name, func in crafted_corpus():
        base = run_out_of_ssa(func.clone(), ALL_OFF).copies_inserted()
        for flag in ("reorder_disjoint", "disjoint_interference",
                     "left_only", "ignore_result"):
            improved = run_out_of_ssa(
                func.clone(), opts_with(**{flag: True})).copies_inserted()
            assert improved <= base, (name, flag)


# -- accounting ----------------------------------------------------------------

def test_copy_accounting_matches_mov_delta():
    for name, func in crafted_corpus():
        for opts in (OutOfSsaOptions(), ALL_OFF):
            work = func.clone()
            before = count_movs(work)
            stats = run_out_of_ssa(work, opts)
            after = count_movs(work)
            assert stats.copies_inserted() == after - before, name
            assert stats.total_copies == after, name


# -- live ranges carried through the conversion --------------------------------

def assert_matches_fresh(live: analysis.LiveRanges, refine: bool):
    """The carried live ranges equal a fresh `liveness`, and `interferes`
    equals a fresh `interference_graph` on every pair of variables."""
    func = live.func
    fresh = analysis.liveness(func)
    assert {l: frozenset(s) for l, s in live.live_in.items()} == fresh.live_in
    assert {l: frozenset(s) for l, s in live.live_out.items()} == fresh.live_out
    graph = analysis.interference_graph(
        func, fresh, guard_env_or_conservative(func), refine_disjoint=refine)
    names = sorted(func.var_names())
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert live.interferes(a, b, refine) == graph.interferes(a, b), \
                (func.name, a, b)


def stepped_to_cssa(monkeypatch, func: ir.Function, opts: OutOfSsaOptions):
    """to_cssa on `func`, comparing the carried live ranges with fresh ones
    after each update (each psi-congruence copy, the end of phi-congruence)
    and at the end; returns the cache and the number of comparisons."""
    steps = []
    update = analysis.LiveRanges.update

    def checked(self, *args, **kwargs):
        update(self, *args, **kwargs)
        assert_matches_fresh(self, opts.disjoint_interference)
        steps.append(1)

    monkeypatch.setattr(analysis.LiveRanges, "update", checked)
    cache = analysis.Analyses(func)
    out_of_ssa.to_cssa(func, opts, cache)
    assert_matches_fresh(cache.live, opts.disjoint_interference)
    monkeypatch.undo()
    return cache, len(steps)


def test_carried_live_ranges_equal_fresh_ones_after_every_copy(monkeypatch):
    steps = 0
    for seed in range(24):
        func = interp.gen_random_program(seed, "tiny" if seed % 2 == 0
                                         else "small", name=f"f{seed}")
        for machine in (FULL, PARTIAL):
            work, _ = pipeline(func, ["ssa", "fold", "ifconvert",
                                      "psi-promote"], machine)
            for opts in (OutOfSsaOptions(), ALL_OFF):
                steps += stepped_to_cssa(monkeypatch, work.clone(), opts)[1]
    assert steps > 200


def test_phi_result_rename_moves_a_synthetic_use_onto_its_copy(monkeypatch):
    func = load_func("phi_result_heads_chain.pir")
    work = func.clone()
    cache, steps = stepped_to_cssa(monkeypatch, work,
                                   OutOfSsaOptions(phi_naive=True))
    assert steps == 1
    mov = cache.defs["x"]
    assert mov.opcode == "mov" and mov.operands == ["x.1"]
    assert analysis.liveness(work).synthetic_uses[id(mov)] == ["w"]
    assert "w" in cache.live.live_out["b1"]
    assert "w" in cache.live.live_in["b3"]
    assert not cache.live.interferes("w", "x")
    assert cache.live.interferes("w", "y1")
    final = func.clone()
    run_out_of_ssa(final, OutOfSsaOptions(phi_naive=True))
    report = interp.differential_check(func, final, trials=32, seed=6)
    assert not report.mismatches


def test_psi_argument_copy_moves_a_synthetic_use_in_a_later_psi(monkeypatch):
    func = load_func("psi_chain_copy.pir")
    stepped_to_cssa(monkeypatch, func.clone(), ALL_OFF)
    work = func.clone()
    cache, steps = stepped_to_cssa(monkeypatch, work, OutOfSsaOptions())
    assert steps == 2  # the copy, then the end of phi-congruence
    mov = cache.defs["a.1"]
    assert mov.opcode == "mov" and mov.operands == ["a"]
    assert analysis.liveness(work).synthetic_uses[id(mov)] == ["u"]
    assert cache.live.interferes("u", "a", True)


def test_phi_result_copy_goes_below_a_psi_argument_copy_at_the_head():
    """Psi-congruence copies %w at the head of the loop; phi-congruence then
    renames %x's phi.  %w.1's synthetic use moves onto the result copy
    `%x = mov %x.1`, so that copy must follow `%w.1 = mov %w`, or %w.1 is
    used before its definition and live around the loop."""
    func = load_func("loop_exit_psi_over_phis.pir")
    for opts in (OutOfSsaOptions(), OutOfSsaOptions(phi_naive=True)):
        work, _, _ = to_cssa(func, opts)
        head = [ins.dest for ins in work.block_map()["b1"].body
                if ins.opcode == "mov"]
        assert head.index("w.1") < head.index("x"), opts
        final, _ = pipeline(func, ["out-of-ssa"], opts=opts)
        assert_no_errors(ir.Module([final]))
        report = interp.differential_check(func, final, trials=32, seed=9,
                                           budget=5000)
        assert report.ok and report.compared > 0, opts


def test_run_out_of_ssa_builds_each_analysis_once(monkeypatch):
    counts: dict[str, int] = {}

    def count(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for seed in (3, 7, 23):
        func = interp.gen_random_program(seed, "small")
        work, _ = pipeline(func, ["ssa", "fold", "ifconvert", "psi-promote"])
        counts.clear()
        monkeypatch.undo()
        count(analysis, "guard_env_or_conservative")
        count(out_of_ssa, "guard_env_or_conservative")
        count(analysis, "liveness")
        count(analysis, "interference_graph")
        stats = run_out_of_ssa(work)
        assert stats.copies_psi_congruence and stats.copies_phi_congruence
        assert counts.get("guard_env_or_conservative", 0) <= 1
        assert counts.get("liveness", 0) <= 1
        assert counts.get("interference_graph", 0) == 0
    monkeypatch.undo()
