"""Step timing corrected for the speed of a shared core.

On a shared host a core's speed changes with what other tenants run: on
the shared 2-core x86-64 virtual machine this benchmark was tuned on, it
jumps between levels up to about 1.9x apart for stretches from
milliseconds to minutes, so raw times of the same work spread by tens of
percent between runs.  A `Clock`
runs a fixed reference kernel, interpreter-bound like psikit (small
objects, attribute access, method calls, dicts and sets), between the
steps it times, and scales each step's raw time by REFERENCE_S over the
mean of the kernel's times just before and just after it.  A step's time
is thus what it would take at the speed at which the kernel takes
REFERENCE_S, and a change in psikit's own speed shows in full, since the
kernel does not call psikit.
"""

from __future__ import annotations

import gc
from time import perf_counter

REFERENCE_SIZE = 600
# The kernel's typical time at that machine's faster speed level.
REFERENCE_S = 8.0e-4


class _Node:
    def __init__(self, name: str, operands: list):
        self.name = name
        self.operands = operands

    def uses(self) -> list[str]:
        return [o for o in self.operands if isinstance(o, str)]


def reference_kernel() -> int:
    """Fixed interpreter-bound work: build, index and scan a def-use list."""
    nodes = [_Node(f"v{i}", [f"v{i - 1}", i, f"v{i // 2}"])
             for i in range(REFERENCE_SIZE)]
    table = {node.name: node for node in nodes}
    live: set[str] = set()
    for node in reversed(nodes):
        for use in node.uses():
            if use in table:
                live.add(use)
    return len(live)


def _kernel_s() -> float:
    """The kernel's time, with the cyclic garbage collector held off so
    that it measures speed, not garbage left by the step before it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference_kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times steps in seconds at the reference speed."""

    def __init__(self):
        self._before = _kernel_s()

    def time(self, fn):
        """Run fn(); return (its result, its corrected time in seconds)."""
        t0 = perf_counter()
        result = fn()
        raw = perf_counter() - t0
        after = _kernel_s()
        speed = (self._before + after) / 2
        self._before = after
        return result, raw * REFERENCE_S / speed
