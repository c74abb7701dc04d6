"""The pass registry and the one runner every pipeline goes through.

`PASSES` maps each pass name to a callable `(func, machine, opts)` that
rewrites `func` in place and returns the copies it inserted (out-of-SSA)
or None (every other pass).  Every pass except `ssa` needs its input in
SSA form.
"""

from __future__ import annotations

from .analysis import Analyses
from .ifconvert import if_convert_pass
from .ir import Function
from .machine import FULL, MachineModel
from .out_of_ssa import (ClassInterferenceDetected, OutOfSsaOptions,
                         PassStats, run_out_of_ssa)
from .predicates import guard_env_or_conservative as env_of
from .ssa import (construct_ssa, copy_fold, psi_inline_all, psi_promote_pass,
                  psi_reduce_all)

# How a pass refuses an input it cannot transform.
FAILURES = (ClassInterferenceDetected, ValueError)


class PipelineError(Exception):
    """A pass list that cannot run: an unknown pass, a pass before `ssa`,
    or a dump point outside the list."""


def _ssa(func, machine, opts) -> None:
    construct_ssa(func)


def _fold(func, machine, opts) -> None:
    copy_fold(func, env_of(func))


def _ifconvert(func, machine, opts) -> None:
    if_convert_pass(func, machine)


def _psi_inline(func, machine, opts) -> None:
    psi_inline_all(Analyses(func))


def _psi_reduce(func, machine, opts) -> None:
    psi_reduce_all(func, env_of(func))


def _psi_promote(func, machine, opts) -> None:
    psi_promote_pass(func, env_of(func), machine)


PASSES = {"ssa": _ssa, "fold": _fold, "ifconvert": _ifconvert,
          "psi-inline": _psi_inline, "psi-reduce": _psi_reduce,
          "psi-promote": _psi_promote,
          "out-of-ssa": lambda func, machine, opts: run_out_of_ssa(func, opts)}
STANDARD = ["ssa", "fold", "ifconvert", "psi-promote", "out-of-ssa"]


def check(passes: list[str], in_ssa: bool = False,
          dump_after: str | None = None) -> None:
    """Raise PipelineError unless `passes` can run on an input that is in
    SSA form (`in_ssa`) or not, and `dump_after` is None or in `passes`."""
    for name in passes:
        if name not in PASSES:
            raise PipelineError(
                f"unknown pass {name!r} (known: {', '.join(PASSES)})")
    if passes and passes[0] != "ssa" and not in_ssa:
        raise PipelineError(
            f"pass {passes[0]!r} requires 'ssa' earlier in the pipeline "
            "(or --in-ssa for inputs already in SSA form)")
    if dump_after is not None and dump_after not in passes:
        raise PipelineError(
            f"cannot dump after {dump_after!r}: it is not in the pipeline "
            f"({','.join(passes) or 'no passes'})")


def run(func: Function, passes: list[str], machine: MachineModel = FULL,
        opts: OutOfSsaOptions | None = None, after=None) -> PassStats:
    """Apply `passes` to `func` in place, in order; returns the copies
    out-of-SSA inserted.  `after(name, func)`, if given, sees the function
    after each pass.  Raises one of FAILURES when a pass refuses the
    function."""
    stats = PassStats()
    for name in passes:
        copies = PASSES[name](func, machine, opts)
        if copies is not None:
            stats.add(copies)
        if after is not None:
            after(name, func)
    return stats
