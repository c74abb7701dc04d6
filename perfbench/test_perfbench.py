"""Tests of the benchmark itself, on smoke-sized corpora.

Run with `python -m pytest perfbench` from the root of the checkout.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from clock import Clock  # noqa: E402

SMOKE_SPECS = {
    "fuzz_mix": dict(programs=6),
    "verify_partial": dict(programs=4, vectors=64),
    "ladder": dict(programs=2),
}
SMOKE_RUNGS = ((100, 16, 1), (160, 28, 1))


@pytest.fixture
def smoke(monkeypatch, tmp_path):
    """Shrink every corpus, write spans to a temporary directory, and give
    the test suite back the psikit modules it imported (the benchmark
    re-imports psikit to time set-up)."""
    saved = {k: v for k, v in sys.modules.items()
             if k == "psikit" or k.startswith("psikit.")}
    specs = {name: dataclasses.replace(spec, **SMOKE_SPECS[name])
             for name, spec in workloads.SPECS.items()}
    monkeypatch.setattr(workloads, "SPECS", specs)
    monkeypatch.setattr(workloads, "LADDER_RUNGS", SMOKE_RUNGS)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    yield
    for key in [k for k in sys.modules
                if k == "psikit" or k.startswith("psikit.")]:
        del sys.modules[key]
    sys.modules.update(saved)


def bench_json():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def invoke(workload, seed=1, trace=0, held_out=False):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
            "--trace", str(trace)] + (["--held-out"] if held_out else [])
    return run.run(run.parse_args(argv))


@pytest.mark.parametrize("workload", sorted(workloads.SPECS))
def test_smoke_run_reports_every_declared_metric(smoke, workload):
    declared = bench_json()
    assert workload in {w["name"] for w in declared["workloads"]}
    metrics, report, correct, attempted, failed = invoke(workload)
    assert correct and failed == 0 and attempted >= 2
    assert set(metrics) == {m["name"] for m in declared["end_to_end"]}
    for m in declared["end_to_end"]:
        assert metrics[m["name"]][1] == m["unit"]
        assert metrics[m["name"]][0] > 0
    assert report["deterministic"] and report["passes"] >= run.MIN_PASSES
    for key in ("seed", "nproc", "python", "platform", "digest"):
        assert report[key] not in (None, "")

    metrics, report, correct, _, _ = invoke(workload, trace=1)
    assert correct and report["copies_match_pass_stats"]
    assert (run.ROOT / report["spans"]).is_file()
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    for m in declared["per_layer"]:
        assert metrics[m["name"]][1] == m["unit"]


def _bindings():
    """Every public name bound in a psikit module or in a class of one."""
    out = {}
    for key, module in sorted(sys.modules.items()):
        if key != "psikit" and not key.startswith("psikit."):
            continue
        owners = [module] + [v for v in vars(module).values()
                             if isinstance(v, type)
                             and v.__module__ == module.__name__]
        for owner in owners:
            for attr in vars(owner):
                if not attr.startswith("__"):
                    out[(id(owner), attr)] = vars(owner)[attr]
    return out


def test_tracer_wraps_every_binding_and_restores_it(smoke):
    m = run.import_psikit()
    before = _bindings()
    with tracing.Tracer() as tr:
        for fn in (m.ifconvert.guard_env_or_conservative,
                   m.out_of_ssa.guard_env_or_conservative,
                   m.predicates.guard_env_or_conservative,
                   m.interp.infer_kinds, m.ir.infer_kinds,
                   m.predicates.GuardEnv.subset, m.ir.Function.defs,
                   m.interp.eval_function):
            assert hasattr(fn, "__wrapped__")
        assert len(tr.patched_bindings()) > len(tracing.TRACED)
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_self_times_are_non_negative_and_within_wall_time(smoke):
    m = run.import_psikit()
    spec = workloads.SPECS["fuzz_mix"]
    corpus = workloads.build_corpus("fuzz_mix", 3, m)
    tr = tracing.Tracer()
    with tr:
        traced = run.run_pass(m, spec, m.machine.FULL, corpus, Clock(), tr)
    assert tr.calls["predicates.GuardEnv.subset"] > 0
    assert all(v >= -1e-9 for v in tr.self_s.values())
    assert sum(tr.self_s.values()) <= traced.elapsed_s
    for name, total in tr.total_s.items():
        assert tr.self_s[name] <= total + 1e-9


def test_same_seed_same_digest_other_seed_other_corpus(smoke):
    first = invoke("fuzz_mix", seed=5)[1]
    again = invoke("fuzz_mix", seed=5)[1]
    other = invoke("fuzz_mix", seed=6)[1]
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]
    held_out = invoke("fuzz_mix", seed=5, held_out=True)[1]
    assert held_out["digest"] != first["digest"]


def test_digest_does_not_depend_on_string_hashing(tmp_path):
    """Output must be byte-identical across processes, whose string hash
    seeds differ."""
    script = (
        "import dataclasses, sys; sys.path.insert(0, sys.argv[1]);"
        "import run, workloads;"
        "s = workloads.SPECS['fuzz_mix'];"
        "workloads.SPECS['fuzz_mix'] = dataclasses.replace(s, programs=8);"
        "a = run.parse_args(['--workload', 'fuzz_mix', '--seed', '4',"
        " '--seconds', '0.01']);"
        "print(run.run(a)[1]['digest'])")
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", script, str(HERE)],
                              capture_output=True, text=True, env=env,
                              cwd=tmp_path, timeout=120, check=True)
        digests.add(proc.stdout.strip())
    assert len(digests) == 1


def test_clock_scales_raw_time_by_the_reference_speed(monkeypatch):
    import clock
    kernel_s = iter([0.002, 0.004])
    monkeypatch.setattr(clock, "_kernel_s", lambda: next(kernel_s))
    now = [0.0]
    monkeypatch.setattr(clock, "perf_counter", lambda: now[0])

    def step():
        now[0] += 0.03
        return "done"

    result, seconds = Clock().time(step)
    assert result == "done"
    # The kernel took 0.002 s before the step and 0.004 s after it.
    assert seconds == pytest.approx(0.03 * clock.REFERENCE_S / 0.003)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(11) == 100
    assert run.percentile(list(range(1, 101)), 90) == 90


def test_without_sources_it_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "tracer.py", "workloads.py", "clock.py"):
        (bench / name).write_text((HERE / name).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
