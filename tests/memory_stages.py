"""Staged memory of the criterion-8 pipeline, as one command.

For each seed, builds the worst-slot criterion-8 pipeline (the two-object
``random_block_category`` with ``max_mult=2``, ``mat_equivalence``, the
conjugate, the witness maps phi = conj(E) ⊗ E -> Yoneda and
psi = E ⊗ conj(E) -> Yoneda, and each map's ``verify_natural`` and
``unitary_report``) under ``tracemalloc``, and prints after each stage the
memory still held and the peak reached during that stage, in MiB.  The
last line per seed is the peak of the whole pass, the figure the memory
guard in ``tests/test_morita.py`` bounds.

    PYTHONPATH=src python3 tests/memory_stages.py --seeds 4,7

Pin BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) when comparing commits.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIB = 2.0 ** 20


def stages(seed: int):
    """(name, thunk) of each stage of one pass; a thunk reads what the
    earlier ones left in ``state``."""
    from cstarcat.generators import random_block_category
    from cstarcat.morita import (conjugate_bimodule, mat_equivalence, morita_source_map,
                                 morita_target_map)

    state = {}

    def keep(key, fn):
        return lambda: state.__setitem__(key, fn())

    def check(key, method):
        def run():
            if not getattr(state[key], method)().passed:
                raise SystemExit(f"seed {seed}: {key}.{method} failed")
        return run

    return [
        ("category", keep("cat", lambda: random_block_category(seed, n_objects=2,
                                                               max_mult=2)[0])),
        ("mat_equivalence", keep("data", lambda: mat_equivalence(state["cat"])[1])),
        ("conjugate", keep("conj", lambda: conjugate_bimodule(state["data"]))),
        ("phi", keep("phi", lambda: morita_target_map(state["data"], state["conj"]))),
        ("psi", keep("psi", lambda: morita_source_map(state["data"], state["conj"]))),
        ("phi.verify_natural", check("phi", "verify_natural")),
        ("phi.unitary_report", check("phi", "unitary_report")),
        ("psi.verify_natural", check("psi", "verify_natural")),
        ("psi.unitary_report", check("psi", "unitary_report")),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="4,7")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    for seed in (int(s) for s in args.seeds.split(",")):
        overall, steps = 0, stages(seed)  # imports happen outside the trace
        tracemalloc.start()
        try:
            for name, run in steps:
                run()
                current, peak = tracemalloc.get_traced_memory()
                overall = max(overall, peak)
                tracemalloc.reset_peak()
                print(f"seed={seed} {name:<20} current={current / MIB:7.1f} "
                      f"stage_peak={peak / MIB:7.1f}")
        finally:
            tracemalloc.stop()
        print(f"seed={seed} {'pass':<20} peak={overall / MIB:7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
