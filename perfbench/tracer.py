"""Per-layer tracing by wrapping psikit's public functions from outside.

`Tracer.install()` replaces each listed function or method with a wrapper
at every place its name is bound (a function imported by name into another
psikit module is bound there too), and `Tracer.restore()` puts every
original back.  Each call opens a span; a span's self time is its duration
minus the time covered by the spans it caused.  Spans of hot functions are
only aggregated (call count and time); the others are kept in memory as
records and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (psikit module, attribute path) of every traced function.
TRACED = (
    ("ir", "parse_module"), ("ir", "validate"), ("ir", "print_module"),
    ("ir", "infer_kinds"), ("ir", "Function.defs"), ("ir", "Function.clone"),
    ("predicates", "guard_env_or_conservative"),
    ("predicates", "GuardEnv.subset"), ("predicates", "GuardEnv.disjoint"),
    ("analysis", "dominator_tree"), ("analysis", "instr_positions"),
    ("analysis", "liveness"), ("analysis", "interference_graph"),
    ("ssa", "construct_ssa"), ("ssa", "copy_fold"),
    ("ssa", "psi_inline_all"), ("ssa", "psi_promote_pass"),
    ("ifconvert", "if_convert_pass"),
    ("out_of_ssa", "run_out_of_ssa"), ("out_of_ssa", "psi_normalize"),
    ("out_of_ssa", "psi_congruence"), ("out_of_ssa", "phi_congruence"),
    ("out_of_ssa", "rename_and_strip"),
    ("out_of_ssa", "CongruenceClasses.members"),
    ("interp", "differential_check"), ("interp", "eval_function"),
)
NAMES = tuple(f"{mod}.{attr}" for mod, attr in TRACED)

# Called too often to keep one record per call: aggregated only.
HOT = frozenset({
    "ir.infer_kinds", "ir.Function.defs", "ir.Function.clone",
    "predicates.GuardEnv.subset", "predicates.GuardEnv.disjoint",
    "analysis.instr_positions", "out_of_ssa.CongruenceClasses.members",
    "interp.eval_function",
})


class Tracer:
    """Spans and counters for one traced run over the psikit package."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.records: list[tuple] = []   # (id, parent, request, name, t0, t1)
        self.counts: Counter[str] = Counter()
        self.request = -1                # id shared by one program's spans;
                                         # the caller advances it
        self.infer_kinds_in_interp_s = 0.0
        self._active: Counter[str] = Counter()
        # One frame per open span: [time covered by its children, id of
        # the innermost recorded span, which is the parent of new records].
        self._stack: list[list] = [[0.0, None]]
        self._next_id = 0
        self._saved: list[tuple] = []    # (owner, attribute, original)

    # -- spans -----------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        stack = self._stack
        parent = stack[-1]
        record = name not in HOT
        if record:
            span_id = self._next_id
            self._next_id += 1
        else:
            span_id = parent[1]
        frame = [0.0, span_id]
        stack.append(frame)
        self._active[name] += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self._active[name] -= 1
            dur = t1 - t0
            parent[0] += dur
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - frame[0]
            if name == "ir.infer_kinds" and self.active("interp.eval_function"):
                self.counts["infer_kinds_from_interp"] += 1
                self.infer_kinds_in_interp_s += dur - frame[0]
            if record:
                self.records.append((span_id, parent[1], self.request, name,
                                     t0, t1))
        self._observe(name, result)
        return result

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    def _observe(self, name: str, result) -> None:
        """Counters derived from return values; no code inside psikit."""
        counts = self.counts
        if name == "predicates.guard_env_or_conservative":
            counts["env_builds"] += 1
            counts["env_conservative"] += not result.exact
            if self.active("ifconvert.if_convert_pass"):
                counts["env_builds_in_ifconvert"] += 1
        elif name == "ifconvert.if_convert_pass":
            counts["regions"] += result
        elif name == "ssa.psi_promote_pass":
            counts["promoted"] += result
        elif name == "out_of_ssa.run_out_of_ssa":
            counts["copies_normalize"] += result.copies_normalize
            counts["copies_psi_congruence"] += result.copies_psi_congruence
            counts["copies_phi_congruence"] += result.copies_phi_congruence
            counts["total_copies"] += result.total_copies

    # -- patching --------------------------------------------------------

    def _wrapper(self, name: str, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.span(name, original, *args, **kwargs)
        return traced

    def install(self) -> None:
        """Wrap every TRACED name at each place it is bound."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "psikit" or key.startswith("psikit.")]
        for (mod_name, attr), name in zip(TRACED, NAMES):
            module = sys.modules[f"psikit.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original,
                            self._wrapper(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)

    def _patch(self, owner, attribute: str, original, wrapper) -> None:
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def patched_bindings(self) -> list[tuple]:
        return list(self._saved)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results ---------------------------------------------------------

    def module_self_s(self) -> dict[str, float]:
        """Self time per module.  The interpreter re-infers kinds on every
        run, so infer_kinds time spent under eval_function counts as
        interpreter time."""
        out: defaultdict[str, float] = defaultdict(float)
        for name, value in self.self_s.items():
            out[name.split(".")[0]] += value
        out["ir"] -= self.infer_kinds_in_interp_s
        out["interp"] += self.infer_kinds_in_interp_s
        return dict(out)

    def write_spans(self, path) -> None:
        """Write span records as JSON lines (times relative to the first)."""
        origin = min((r[4] for r in self.records), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, request, name, t0, t1 in self.records:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request,
                    "name": name, "start_s": round(t0 - origin, 9),
                    "end_s": round(t1 - origin, 9)}) + "\n")
            for name in sorted(self.calls):
                if name in HOT:
                    handle.write(json.dumps({
                        "aggregate": name, "calls": self.calls[name],
                        "total_s": self.total_s[name],
                        "self_s": self.self_s[name]}) + "\n")
