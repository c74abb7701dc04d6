"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import hashlib
import itertools
import random
import time

from psikit import analysis, interp, ir
from psikit.machine import FULL, PARTIAL
from psikit.out_of_ssa import (OutOfSsaOptions, count_movs, psi_normalize,
                               run_out_of_ssa)
from psikit.pipeline import STANDARD
from psikit.predicates import GuardEnv, guard_env_or_conservative
from psikit.ssa import all_psis, copy_fold, rewrite_psis_to_selects

from helpers import (ALL_OFF, load_func, pipeline, random_psi_function,
                     to_cssa)
from test_predicates import oracle_disjoint, oracle_subset


def report(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def equivalent(before: ir.Function, after: ir.Function, seed: int,
               budget: int = 5000) -> bool:
    # A small budget keeps deliberately non-terminating figure loops cheap:
    # both sides hit the same budget trap and still compare equal.
    return interp.differential_check(before, after, trials=32, seed=seed,
                                     budget=budget).ok


def test_criterion_1_figure_goldens():
    """Each reference transformation reproduces its expected output up to
    renaming, in under a second overall."""
    start = time.monotonic()
    checks = []

    def golden(actual: ir.Function, expected_name: str, label: str):
        checks.append((label,
                       ir.alpha_equivalent(actual, load_func(expected_name))))

    # Branchy diamond to predicated straight-line code.
    work, _ = pipeline(load_func("diamond.pir"), ["ssa", "ifconvert"])
    golden(work, "diamond_predicated.pir", "diamond")

    # Two merges in sequence; the wide psi absorbs the narrow one.
    work, _ = pipeline(load_func("two_merges.pir"), ["ssa", "ifconvert"])
    golden(work, "two_merges_predicated.pir", "two merges")

    # Partial predication: speculated adds, predicates on the psi.
    work, _ = pipeline(load_func("speculate_add.pir"), ["ssa", "ifconvert"],
                       PARTIAL)
    golden(work, "speculate_add_predicated.pir", "speculation")

    # Conventional-form examples, both stages each.
    cache, classes, _ = to_cssa(load_func("order_swap.pir"))
    golden(cache.func, "order_swap_cssa.pir", "order swap cssa")
    from psikit.out_of_ssa import rename_and_strip
    rename_and_strip(cache, classes, OutOfSsaOptions())
    golden(cache.func, "order_swap_nonssa.pir", "order swap non-ssa")

    cache, classes, _ = to_cssa(load_func("shared_arg.pir"))
    golden(cache.func, "shared_arg_cssa.pir", "shared arg cssa")
    rename_and_strip(cache, classes, OutOfSsaOptions())
    golden(cache.func, "shared_arg_nonssa.pir", "shared arg non-ssa")

    # Predicated copy folding.
    work = load_func("fold_pred_copy.pir")
    copy_fold(work, guard_env_or_conservative(work))
    golden(work, "fold_pred_copy_folded.pir", "copy folding")

    # Normalized-form conversion with three repairs.
    work = load_func("normalize_three.pir")
    psi_normalize(analysis.Analyses(work), OutOfSsaOptions())
    golden(work, "normalize_three_normalized.pir", "normalize")

    # Psi/select equivalence, structurally and on every assignment.
    psi_form = load_func("select_chain.pir")
    sel = rewrite_psis_to_selects(psi_form)
    golden(sel, "select_chain_selects.pir", "select rewrite")
    agree = all(
        (interp.eval_function(psi_form, [5, p, q]).value
         == interp.eval_function(load_func("select_chain_selects.pir"),
                                 [5, p, q]).value)
        for p, q in itertools.product((0, 1), repeat=2))
    checks.append(("select agreement", agree))

    # Interference repair with no refinements enabled.
    cache, _, _ = to_cssa(load_func("live_overlap.pir"), ALL_OFF)
    golden(cache.func, "live_overlap_repaired.pir", "live overlap")

    # Loop whose normalize copy appears right below the phi.
    work = load_func("loop_carried.pir")
    psi_normalize(analysis.Analyses(work), OutOfSsaOptions())
    golden(work, "loop_carried_normalized.pir", "loop normalize")

    elapsed = time.monotonic() - start
    failed = [label for label, ok in checks if not ok]
    report("criterion 1: figure goldens reproduced",
           not failed and elapsed < 1.0,
           f"{len(checks)} goldens, {elapsed:.2f}s"
           + (f", failed: {failed}" if failed else ""))


def test_criterion_2_promotion_copy_deltas():
    """The loop example inserts two copies without promotion and none with
    promotion applied first."""
    func = load_func("loop_carried.pir")

    plain = func.clone()
    stats_plain = run_out_of_ssa(plain)
    ok_plain = (stats_plain.copies_inserted() >= 2
                and stats_plain.copies_normalize == 1
                and stats_plain.copies_phi_congruence == 1
                and equivalent(func, plain, seed=21))

    promoted, stats_promo = pipeline(func, ["psi-promote", "out-of-ssa"])
    ok_promo = (stats_promo.copies_inserted() == 0
                and equivalent(func, promoted, seed=21))

    report("criterion 2: promotion removes the repair copies",
           ok_plain and ok_promo
           and stats_promo.copies_inserted() < stats_plain.copies_inserted(),
           f"without={stats_plain.copies_inserted()} "
           f"with={stats_promo.copies_inserted()}")


def test_criterion_3_differential_fuzzing():
    """1000 generated programs through the full pipeline, 32 vectors each."""
    start = time.monotonic()
    mismatches = 0
    failures = []
    for seed in range(1000):
        profile = "tiny" if seed % 2 == 0 else "small"
        func = interp.gen_random_program(seed, profile, name=f"f{seed}")
        try:
            work, _ = pipeline(func, STANDARD)
        except Exception as exc:  # noqa: BLE001 - any failure fails the gate
            failures.append((seed, repr(exc)))
            continue
        result = interp.differential_check(func, work, trials=32, seed=seed)
        mismatches += len(result.mismatches)
        if result.mismatches:
            failures.append((seed, str(result.mismatches[0])))
    elapsed = time.monotonic() - start
    report("criterion 3: 1000-program differential fuzz",
           mismatches == 0 and not failures and elapsed < 120.0,
           f"{elapsed:.1f}s, mismatches={mismatches}, errors={failures[:3]}")


def test_criterion_4_improvement_witnesses():
    """Each refinement strictly reduces copies on its witness and never
    increases them on the crafted corpus."""
    from test_out_of_ssa import (DISJOINT_WITNESS, REORDER_WITNESS,
                                 crafted_corpus, opts_with, run_with)

    strict = [
        ("reorder", run_with(REORDER_WITNESS, opts_with()),
         run_with(REORDER_WITNESS, opts_with(reorder_disjoint=True))),
        ("disjoint-interference",
         run_with(DISJOINT_WITNESS, opts_with(left_only=True,
                                              ignore_result=True)),
         run_with(DISJOINT_WITNESS, opts_with(left_only=True,
                                              ignore_result=True,
                                              disjoint_interference=True))),
        ("left-only", run_with("live_overlap.pir", opts_with()),
         run_with("live_overlap.pir", opts_with(left_only=True))),
        ("ignore-result", run_with("live_overlap.pir", opts_with()),
         run_with("live_overlap.pir", opts_with(ignore_result=True))),
    ]
    strict_ok = all(on < off for _, off, on in strict)

    monotone_ok = True
    for name, func in crafted_corpus():
        base = run_out_of_ssa(func.clone(), ALL_OFF).copies_inserted()
        for flag in ("reorder_disjoint", "disjoint_interference",
                     "left_only", "ignore_result"):
            got = run_out_of_ssa(func.clone(),
                                 opts_with(**{flag: True})).copies_inserted()
            monotone_ok = monotone_ok and got <= base

    report("criterion 4: refinement witnesses",
           strict_ok and monotone_ok,
           ", ".join(f"{n}: {off}->{on}" for n, off, on in strict))


def test_criterion_5_oracle_equivalence():
    """Predicate decisions match an independent truth table; psi liveness
    matches standard liveness of the select-form rewrite."""
    rng = random.Random(2024)
    env = GuardEnv({}, symbol_count=8)
    pairs_ok = True
    for _ in range(300):
        a = _random_formula(rng, 8)
        b = _random_formula(rng, 8)
        if env.subset(a, b) != oracle_subset(a, b, range(8)):
            pairs_ok = False
        if env.disjoint(a, b) != oracle_disjoint(a, b, range(8)):
            pairs_ok = False

    live_ok = True
    for seed in range(200):
        func = random_psi_function(seed)
        sel = rewrite_psis_to_selects(func)
        kinds = ir.infer_kinds(func)
        common = {v for v in func.var_names() & sel.var_names()
                  if kinds.get(v) == "value"}
        ga = analysis.interference_graph(func, analysis.liveness(func))
        gb = analysis.interference_graph(sel, analysis.liveness(sel))
        for v in common:
            if ga.neighbors(v) & common != gb.neighbors(v) & common:
                live_ok = False
        if not interp.differential_check(func, sel, trials=16, seed=seed).ok:
            live_ok = False

    report("criterion 5: truth-table and select-form oracles agree",
           pairs_ok and live_ok)


def _random_formula(rng, nsyms, depth=0):
    from psikit.predicates import And, FALSE_EXPR, Not, Or, Sym, TRUE_EXPR

    roll = rng.random()
    if depth >= 4 or roll < 0.4:
        return rng.choice([Sym(rng.randrange(nsyms)), TRUE_EXPR, FALSE_EXPR,
                           Sym(rng.randrange(nsyms))])
    if roll < 0.6:
        return Not(_random_formula(rng, nsyms, depth + 1))
    left = _random_formula(rng, nsyms, depth + 1)
    right = _random_formula(rng, nsyms, depth + 1)
    return (And if roll < 0.8 else Or)(left, right)


def test_criterion_6_idempotence_and_cssa_property():
    """psi-normalize is a fixpoint after one application, and the stripped
    program is valid non-SSA code equivalent to its psi-SSA input."""
    corpus = []
    for seed in range(150):
        func = interp.gen_random_program(seed, "tiny" if seed % 2 else "small")
        corpus.append(pipeline(func, ["ssa", "fold", "ifconvert",
                                      "psi-promote"])[0])
    for name in ("order_swap.pir", "shared_arg.pir", "normalize_three.pir",
                 "live_overlap.pir", "loop_carried.pir",
                 "fold_pred_copy_folded.pir"):
        corpus.append(load_func(name))

    idempotent = True
    cssa_ok = True
    for func in corpus:
        staged = func.clone()
        psi_normalize(analysis.Analyses(staged), OutOfSsaOptions())
        second = psi_normalize(analysis.Analyses(staged), OutOfSsaOptions())
        if second != 0:
            idempotent = False

        final, _ = pipeline(func, ["out-of-ssa"])
        errors = [d for d in ir.validate(ir.Module([final]), "non_ssa")
                  if d.severity == "error"]
        if errors or all_psis(final):
            cssa_ok = False
        if not equivalent(func, final, seed=61):
            cssa_ok = False

    report("criterion 6: normalize idempotence and the conventional-form "
           "property", idempotent and cssa_ok,
           f"corpus of {len(corpus)} functions")


# SHA-256 over the printed outputs (each followed by a NUL byte) and total
# movs of the standard pipeline on generator seeds 0-199, tiny and small
# alternating.  A change meant to leave the output alone must keep these.
PINNED_PIPELINE = {
    "full": ("4e03f5eb6c8ed603a507d0fec6c0e6262617c4bf1c39a443fe4c8df7e4c3e2e5",
             1041),
    "partial": ("ce37a77871013d3efbfec59855baf74a1a1ba9ebd61d44bd16010889aabbfb15",
                1786),
}


def _pipeline_digest(machine, opts=None):
    passes = ["ssa", "fold", "ifconvert", "psi-promote", "out-of-ssa"]
    digest = hashlib.sha256()
    movs = 0
    for seed in range(200):
        func = interp.gen_random_program(
            seed, "tiny" if seed % 2 == 0 else "small")
        work, _ = pipeline(func, passes, machine, opts)
        digest.update(ir.print_module(ir.Module([work])).encode() + b"\0")
        movs += count_movs(work)
    return digest.hexdigest(), movs


def test_pipeline_output_is_pinned():
    for machine in (FULL, PARTIAL):
        assert _pipeline_digest(machine) == PINNED_PIPELINE[machine.name]


# The same digests under options that default runs never use: with every
# refinement off (psi result copies, which `ignore_result` otherwise
# suppresses), and with phi-congruence copying every phi resource.
PINNED_PIPELINE_OPTIONS = {
    ("all_off", "full"): (
        "856635447870c44320d420f76f6273b7dab9dbc506085ca47196a2fa041808c8",
        1880),
    ("all_off", "partial"): (
        "d57c611f936d886283b66a7fa528d3d8889f5617299ea38d3bbe0ab40ca4e5db",
        2425),
    ("phi_naive", "full"): (
        "9da9b2d9ae8b28410eabab4a0ff9b151413df82f539700348393299b03543923",
        5151),
    ("phi_naive", "partial"): (
        "8cb8f820910191d13088bfcbc2eedb8bdaa5fc38dd35e8bb9caa981538bc95a6",
        5959),
}


def test_pipeline_output_is_pinned_under_other_options():
    options = {"all_off": ALL_OFF,
               "phi_naive": OutOfSsaOptions(phi_naive=True)}
    for (name, machine_name), pinned in PINNED_PIPELINE_OPTIONS.items():
        machine = FULL if machine_name == "full" else PARTIAL
        assert _pipeline_digest(machine, options[name]) == pinned, \
            (name, machine_name)
