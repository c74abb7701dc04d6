"""Print one digest of the standard pipeline's outputs on a fixed corpus.

Run from the root of a checkout, with no options:

    python -B tests/parity_digest.py

It compiles generator seeds 0-399 (tiny and small alternating) and mid
seeds 2000-2299 on the FULL and PARTIAL machines, under default options,
every copy-reducing refinement off, and `phi_naive`.  One sha256 covers
every pass state (printed text plus guard set) and each compile's copy
counts or refusal message.  Two checkouts whose digests are equal produce
byte-identical outputs on the corpus, so a change meant to keep outputs
prints the same digest as its parent; copy this file into the parent's
checkout to get the parent's.  Pytest does not collect this file.

`tests/parity_digest.expected` holds the output for the current tree, and
CI fails when the printed output differs from it.  A change meant to
alter outputs updates that file with the new digest and says why.
"""

import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from psikit import interp, ir  # noqa: E402
from psikit.machine import FULL, PARTIAL  # noqa: E402
from psikit.out_of_ssa import OutOfSsaOptions  # noqa: E402
from psikit.pipeline import FAILURES, STANDARD, run  # noqa: E402

# As tests/helpers.py, kept here so that the script runs as it is in a
# checkout that predates it.
MID = interp.SizeProfile("mid", 40, 4, 3, True)
ALL_OFF = OutOfSsaOptions(reorder_disjoint=False, disjoint_interference=False,
                          left_only=False, ignore_result=False)
OPTIONS = {"default": OutOfSsaOptions(), "all_off": ALL_OFF,
           "phi_naive": OutOfSsaOptions(phi_naive=True)}


def corpus():
    for seed in range(400):
        yield seed, "tiny" if seed % 2 == 0 else "small"
    for seed in range(2000, 2300):
        yield seed, MID


def main() -> None:
    digest = hashlib.sha256()
    compiles = 0
    start = time.perf_counter()
    for seed, profile in corpus():
        program = interp.gen_random_program(seed, profile)
        for machine in (FULL, PARTIAL):
            for opts_name, opts in OPTIONS.items():
                digest.update(f"{seed} {machine.name} {opts_name}\n".encode())

                def after(name, func):
                    digest.update(f"{name}\n{ir.print_function(func)}"
                                  f"{sorted(func.guards)}\n".encode())
                try:
                    stats = run(program.clone(), STANDARD, machine, opts,
                                after)
                    digest.update(f"{stats}\n".encode())
                except FAILURES as exc:
                    digest.update(f"{type(exc).__name__}: {exc}\n".encode())
                compiles += 1
    print(f"compiles: {compiles}")
    print(f"sha256: {digest.hexdigest()}")
    print(f"seconds: {time.perf_counter() - start:.1f}", file=sys.stderr)


if __name__ == "__main__":
    main()
