import random
from pathlib import Path

from psikit import analysis, ir
from psikit.interp import gen_random_program
from psikit.machine import FULL, PARTIAL
from psikit.pipeline import STANDARD
from psikit.predicates import guard_env_or_conservative
from psikit.ssa import rewrite_psis_to_selects

import liveness_oracle
from helpers import DATA, load, load_func, pipeline


def build_cfg(edges: dict[str, list[str]], entry: str = "b0") -> ir.Function:
    """A function whose only content is its control flow."""
    func = ir.Function("g", ["p"], guards={"p"})
    labels = [entry] + sorted(l for l in edges if l != entry)
    for label in labels:
        block = ir.Block(label)
        succs = edges.get(label, [])
        if not succs:
            block.term = ir.Instr("ret", None, [])
        elif len(succs) == 1:
            block.term = ir.Instr("goto", None, [succs[0]])
        else:
            block.term = ir.Instr("br", None, ["p", succs[0], succs[1]])
        func.blocks.append(block)
    return func


def oracle_dominators(func: ir.Function):
    """Naive O(V*E) dataflow: dom(b) = {b} ∪ ⋂ dom(preds)."""
    labels = analysis.reachable_blocks(func)
    preds = {l: [p for p in func.predecessors()[l] if p in set(labels)]
             for l in labels}
    dom = {l: set(labels) for l in labels}
    dom[func.entry] = {func.entry}
    changed = True
    while changed:
        changed = False
        for label in labels:
            if label == func.entry:
                continue
            new = set.intersection(*(dom[p] for p in preds[label])) | {label} \
                if preds[label] else {label}
            if new != dom[label]:
                dom[label] = new
                changed = True
    idom = {func.entry: None}
    for label in labels:
        if label == func.entry:
            continue
        strict = dom[label] - {label}
        # The immediate dominator is the strict dominator dominated by all
        # the others.
        idom[label] = max(strict, key=lambda s: len(dom[s]))
    return dom, idom


def test_straight_line_dominance_is_in_block_order():
    func = build_cfg({"b0": []})
    tree = analysis.Analyses(func).dom
    pos_a, pos_b = (func.blocks[0], 1), (func.blocks[0], 4)
    assert tree.dominates_pos(pos_a, pos_b)
    assert not tree.dominates_pos(pos_b, pos_a, strict=True)


def test_diamond_idom():
    func = build_cfg({"b0": ["b1", "b2"], "b1": ["b3"], "b2": ["b3"],
                      "b3": []})
    tree = analysis.Analyses(func).dom
    assert tree.idom == {"b0": None, "b1": "b0", "b2": "b0", "b3": "b0"}


def random_cfg(seed: int, n: int = 50) -> ir.Function:
    """n blocks with random edges: loops and unreachable blocks included."""
    rng = random.Random(seed)
    labels = [f"b{i}" for i in range(n)]
    edges = {}
    for i, label in enumerate(labels):
        kind = rng.random()
        if kind < 0.15 or i == n - 1:
            edges[label] = []
        elif kind < 0.5:
            edges[label] = [rng.choice(labels)]
        else:
            edges[label] = [rng.choice(labels), rng.choice(labels)]
    return build_cfg(edges)


def test_random_cfgs_match_naive_oracle():
    for seed in range(30):
        func = random_cfg(seed)
        tree = analysis.Analyses(func).dom
        _, want = oracle_dominators(func)
        assert tree.idom == want, f"seed {seed}"


def test_dominance_frontiers_on_diamond():
    func = build_cfg({"b0": ["b1", "b2"], "b1": ["b3"], "b2": ["b3"],
                      "b3": []})
    df = analysis.dominance_frontiers(analysis.Analyses(func))
    assert df["b1"] == {"b3"}
    assert df["b2"] == {"b3"}
    assert df["b0"] == set()


def test_random_cfg_frontiers_match_their_definition():
    """DF(x) holds y iff x dominates a predecessor of y and does not
    strictly dominate y, over the reachable blocks."""
    for seed in range(30):
        func = random_cfg(seed)
        dom, _ = oracle_dominators(func)
        preds = func.predecessors()
        want = {x: {y for y in dom
                    if any(x in dom[p] for p in preds[y] if p in dom)
                    and not (x in dom[y] and x != y)}
                for x in dom}
        got = analysis.dominance_frontiers(analysis.Analyses(func))
        assert got == want, f"seed {seed}"


# -- liveness under the psi rule ----------------------------------------------

def live_ranges(func: ir.Function):
    """Instruction-granularity live sets, replayed from block liveness."""
    live = analysis.liveness(func)
    before = {}
    after = {}
    for block in func.blocks:
        current = set(live.live_out[block.label])
        items = list(block.body) + ([block.term] if block.term else [])
        for ins in reversed(items):
            after[id(ins)] = frozenset(current)
            if ins.dest is not None:
                current.discard(ins.dest)
            current.update(analysis._instr_uses(ins, live.synthetic_uses))
            before[id(ins)] = frozenset(current)
    return before, after


def test_psi_argument_dies_at_next_definition():
    func = load_func("live_overlap.pir")
    before, after = live_ranges(func)
    block = func.blocks[0]
    by_dest = {i.dest: i for i in block.body if i.dest}
    # a dies at b's definition: live before it, not after.
    assert "a" in before[id(by_dest["b"])]
    assert "a" not in after[id(by_dest["b"])]
    # b stays live down to its real use at d's definition.
    assert "b" in after[id(by_dest["c"])]
    assert "b" in before[id(by_dest["d"])]
    assert "b" not in after[id(by_dest["d"])]
    # c is the last argument: it dies at the psi itself.
    assert "c" in before[id(by_dest["x"])]
    assert "c" not in after[id(by_dest["x"])]


def test_single_argument_psi_uses_it_at_the_psi():
    func = ir.parse_module("""
func @f(%i) {
b0:
  %a = add %i, 1
  %x = psi(1 ? %a)
  ret %x
}
""").functions[0]
    before, after = live_ranges(func)
    psi = func.blocks[0].body[1]
    assert "a" in before[id(psi)]
    assert "a" not in after[id(psi)]


def test_interference_matches_live_overlap_example():
    func = load_func("live_overlap.pir")
    live = analysis.liveness(func)
    graph = analysis.interference_graph(func, live)
    assert graph.interferes("b", "c")
    assert graph.interferes("b", "x")
    assert not graph.interferes("c", "x")
    for other in ("b", "c", "x"):
        assert not graph.interferes("a", other)


def test_disjoint_guard_refinement_removes_edge():
    func = ir.parse_module("""
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
""").functions[0]
    env = guard_env_or_conservative(func)
    live = analysis.liveness(func)
    plain = analysis.interference_graph(func, live, None)
    refined = analysis.interference_graph(func, live, env)
    assert plain.interferes("a", "b")
    assert not refined.interferes("a", "b")


def test_refined_interference_decides_each_guard_pair_once(monkeypatch):
    """The refined graph is the plain one minus the edges between
    definitions under disjoint guards, and it asks the env once per pair
    of definition guards."""
    for seed in range(6):
        func, _ = pipeline(gen_random_program(seed, "small"),
                           ["ssa", "ifconvert"])
        env = guard_env_or_conservative(func)
        live = analysis.liveness(func)
        defs = func.defs()

        def guard(var):
            ins = defs.get(var)
            return ins.guard if isinstance(ins, ir.Instr) else None

        plain = analysis.interference_graph(func, live)
        calls = []
        disjoint = env.disjoint
        monkeypatch.setattr(env, "disjoint",
                            lambda a, b: calls.append((a, b)) or disjoint(a, b))
        refined = analysis.interference_graph(func, live, env)
        guards = {guard(v) for v in func.var_names()}
        assert 0 < len(calls) <= len(guards) ** 2
        expected = {(a, b) for a in plain.adj for b in plain.adj[a]
                    if not disjoint(env.pred_formula(guard(a)),
                                    env.pred_formula(guard(b)))}
        assert {(a, b) for a in refined.adj for b in refined.adj[a]} == expected


def _oracle_inputs():
    """Every tests/data function as given (two are multiply defined), in
    SSA after `fold,ifconvert,psi-promote` and after `out-of-ssa`, and
    generator seeds 0-99 after the standard pipeline, on FULL and
    PARTIAL."""
    for path in sorted(DATA.glob("*.pir")):
        mod = load(path.name)
        in_ssa = not [d for d in ir.validate(mod, "ssa")
                      if d.severity == "error"]
        front = [] if in_ssa else ["ssa"]
        for func in mod.functions:
            yield func
            for machine in (FULL, PARTIAL):
                try:
                    work, _ = pipeline(func, front + ["fold", "ifconvert",
                                                      "psi-promote"], machine)
                except ValueError:  # not SSA, and construction refuses it
                    continue
                yield work
                yield pipeline(work, ["out-of-ssa"], machine)[0]
    for seed in range(100):
        func = gen_random_program(seed, "tiny" if seed % 2 == 0 else "small")
        for machine in (FULL, PARTIAL):
            yield pipeline(func, STANDARD, machine)[0]


def test_liveness_equals_the_oracle():
    """The per-variable walk gives the live sets of the iterative dataflow,
    multiply-defined output of out-of-SSA included."""
    count = 0
    for func in _oracle_inputs():
        assert analysis.liveness(func).dump() \
            == liveness_oracle.liveness(func).dump(), func.name
        count += 1
    # Construction refuses only the data functions that are not SSA and
    # have a guarded definition; every other one is compiled on both
    # machines, and yields its SSA state and its output on each.
    data, refused = 0, 0
    for path in DATA.glob("*.pir"):
        mod = load(path.name)
        in_ssa = not [d for d in ir.validate(mod, "ssa")
                      if d.severity == "error"]
        for func in mod.functions:
            data += 1
            refused += not in_ssa and any(
                ins.dest is not None and ins.guard is not None
                for _, ins in func.instructions())
    assert 0 < refused < data
    assert count == data + (data - refused) * 2 * 2 + 100 * 2


def test_a_phi_result_read_only_by_dead_code_is_not_live():
    """Unreachable blocks have no live sets, and their reads keep nothing
    live; the oracle still reports such a phi result live-in at its
    block."""
    func = ir.parse_module("""
func @f(%a) {
b0:
  %c = cmp_lt %a, 10
  br %c, b1, b2
b1:
  goto b2
b2:
  %x = phi(b0: %a, b1: %a, b3: %x)
  ret %a
b3:
  %y = add %x, 1
  goto b2
}
""").functions[0]
    assert analysis.liveness(func).dump() == (
        "b0: in[a] out[a]\nb1: in[a] out[a]\nb2: in[a] out[]\n")
    assert "x" in liveness_oracle.liveness(func).live_in["b2"]


def test_liveness_is_a_fixpoint():
    for seed in range(20):
        func = gen_random_program(seed, "small")
        first = analysis.liveness(func)
        second = analysis.liveness(func)
        assert first.live_in == second.live_in
        assert first.live_out == second.live_out


def test_psi_rule_matches_select_form_liveness():
    """The psi liveness rule gives the same ranges as standard liveness of
    the select-form rewrite, observed through interference over the common
    value variables."""
    from helpers import random_psi_function

    for seed in range(200):
        func = random_psi_function(seed)
        sel = rewrite_psis_to_selects(func)
        kinds = ir.infer_kinds(func)
        common = {v for v in func.var_names() & sel.var_names()
                  if kinds.get(v) == "value"}
        ga = analysis.interference_graph(func, analysis.liveness(func))
        gb = analysis.interference_graph(sel, analysis.liveness(sel))
        edges_a = {frozenset((a, b)) for a in common
                   for b in ga.neighbors(a) & common}
        edges_b = {frozenset((a, b)) for a in common
                   for b in gb.neighbors(a) & common}
        assert edges_a == edges_b, f"seed {seed}"


def test_dump_output_is_sorted_and_deterministic():
    func = load_func("live_overlap.pir")
    live = analysis.liveness(func)
    graph = analysis.interference_graph(func, live)
    assert live.dump() == live.dump()
    lines = graph.dump().strip().splitlines()
    assert lines == sorted(lines)


def test_psi_rule_lives_only_in_analysis():
    """Every module asks `analysis` where a psi argument dies and where a
    variable is defined through its psi chain; none walks the chain."""
    package = Path(analysis.__file__).parent
    walkers = sorted(path.name for path in package.glob("*.py")
                     if path.name != "analysis.py"
                     and "resolve_psi_chain" in path.read_text())
    assert walkers == []
