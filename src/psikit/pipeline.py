"""The pass registry and the one runner every pipeline goes through.

`PASSES` maps each pass name to a callable over `(func, machine, opts)`
that returns the resulting function (`ssa` builds a new one, the others
rewrite theirs in place) and the copies out-of-SSA inserted (None for
the other passes).  Every pass except `ssa` needs its input in SSA form.
"""

from __future__ import annotations

from .analysis import Analyses
from .ifconvert import NotConvertible, if_convert_pass
from .ir import Function
from .machine import FULL, MachineModel
from .out_of_ssa import (ClassInterferenceDetected, OutOfSsaOptions,
                         PassStats, run_out_of_ssa)
from .predicates import guard_env_or_conservative as env_of
from .ssa import (construct_ssa, copy_fold, psi_inline_all, psi_promote_pass,
                  psi_reduce_all)

# How a pass refuses an input it cannot transform.
FAILURES = (NotConvertible, ClassInterferenceDetected, ValueError)


class PipelineError(Exception):
    """A pass list that cannot run: an unknown pass, a pass before `ssa`,
    or a dump point outside the list."""


def _in_place(step):
    """The pass `step(func, machine)`, which rewrites `func` in place."""
    def apply(func, machine, opts):
        step(func, machine)
        return func, None
    return apply


PASSES = {
    "ssa": lambda func, machine, opts: (construct_ssa(func), None),
    "fold": _in_place(lambda func, machine: copy_fold(func, env_of(func))),
    "ifconvert": _in_place(if_convert_pass),
    "psi-inline": _in_place(lambda func, machine:
                            psi_inline_all(Analyses(func))),
    "psi-reduce": _in_place(lambda func, machine:
                            psi_reduce_all(func, env_of(func))),
    "psi-promote": _in_place(lambda func, machine:
                             psi_promote_pass(func, env_of(func), machine)),
    "out-of-ssa": lambda func, machine, opts: (func,
                                               run_out_of_ssa(func, opts)),
}
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
        opts: OutOfSsaOptions | None = None,
        after=None) -> tuple[Function, PassStats]:
    """Apply `passes` to `func` in order; returns the resulting function and
    the copies out-of-SSA inserted.  `after(name, func)`, if given, sees
    the function after each pass.  Raises one of FAILURES when a pass
    refuses the function."""
    stats = PassStats()
    for name in passes:
        func, copies = PASSES[name](func, machine, opts)
        if copies is not None:
            stats.add(copies)
        if after is not None:
            after(name, func)
    return func, stats
