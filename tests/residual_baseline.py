"""Residual baselines of a benchmark workload, as one command.

For each workload seed, runs every instance of the workload once (as
``perfbench/workloads.py`` defines it) and prints the SHA-256 of the
sequence of ``(check.name, repr(check.residual))`` over all of its checks,
with ``margin_digits``: the smallest ``log10(threshold / residual)`` of the
pass.  The hash also covers two reports a workload drops, each check named
after its report's context: for ``morita`` the ``check_imprimitivity``
report of each instance's matrix-algebra bimodule, for ``reconstruction``
the full ``eilenberg_watts_map`` report (the spectrum agreement and the
comparison's unitarity checks among them).  ``margin_digits`` reads the
workload's own checks only, as the benchmark does.  ``--save`` writes the
per-check residuals to a JSON file; ``--diff`` prints, per seed, every check
whose residual differs from such a file (saved from another commit, say).
It reads no git state.

    PYTHONPATH=src python3 tests/residual_baseline.py --workload morita \
        --seeds 3,7,11,1101 [--save F] [--diff F]

``--workload`` is ``morita``, ``reconstruction`` or ``structure``; the
``reconstruction`` workload is not part of the benchmark's configuration,
but it runs the criterion-9 path (tensor products and their cross-check).

Pin BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) on both sides of a
comparison: the thread count changes the order of floating-point sums.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MARGIN_CAP = 16.0  # as in perfbench/run.py: a zero residual counts as 16 digits


def dropped_report(name: str, outputs):
    """The report of one instance that the workload's checks leave out, or None."""
    from cstarcat import morita

    if name == "morita":
        _, data = morita.mat_equivalence(outputs[0])
        return morita.check_imprimitivity(data.bimodule)[1]
    if name == "reconstruction":
        _, M, E, _ = outputs
        return morita.eilenberg_watts_map(M, E)[1]
    return None


def seed_checks(workloads, name: str, seed: int):
    """(instance label, check name, residual, threshold) of every check of
    one pass, in order: the workload's own checks, then the dropped ones."""
    workload = workloads.WORKLOADS[name]()
    with tempfile.TemporaryDirectory() as workdir:
        instances = workload.generate(workload.choose(seed), Path(workdir))
        own, dropped = [], []
        for inst in instances:
            report, outputs = workload.run(inst)
            own += [(inst.label, c.name, c.residual, c.threshold) for c in report.checks]
            extra = dropped_report(name, outputs)
            dropped += [(inst.label, f"{extra.context}:{c.name}", c.residual, c.threshold)
                        for c in (extra.checks if extra else ())]
    return own, dropped


def margin_digits(checks) -> float:
    digits = [MARGIN_CAP if r <= 0.0 else min(MARGIN_CAP, math.log10(t / r))
              for _, _, r, t in checks]
    return min(digits, default=MARGIN_CAP)


def residual_hash(checks) -> str:
    pairs = [(name, repr(r)) for _, name, r, _ in checks]
    return hashlib.sha256(repr(pairs).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("morita", "reconstruction", "structure"))
    parser.add_argument("--seeds", default="3,7,11,1101")
    parser.add_argument("--save", default=None, help="write the residuals to this JSON file")
    parser.add_argument("--diff", default=None, help="compare with a JSON file from --save")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    saved = json.loads(Path(args.diff).read_text()) if args.diff else {}
    result = {}
    for seed in (int(s) for s in args.seeds.split(",")):
        own, dropped = seed_checks(workloads, args.workload, seed)
        checks = own + dropped
        result[str(seed)] = [[f"{label}: {name}", r] for label, name, r, _ in checks]
        print(f"{args.workload} seed={seed} checks={len(checks)} "
              f"sha256={residual_hash(checks)} margin_digits={margin_digits(own):.4f}")
        if str(seed) in saved:
            old = saved[str(seed)]
            if [n for n, _ in old] != [n for n, _ in result[str(seed)]]:
                print("  the check lists differ")
            for (name, before), (_, _, after, threshold) in zip(old, checks):
                if repr(before) != repr(after):
                    print(f"  {name}: {before!r} -> {after!r} (threshold {threshold:.3e})")
    if args.save:
        Path(args.save).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
