"""Outside-in benchmark of the cstarcat engine.

    python3 perfbench/run.py --workload {morita,reconstruction,structure}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the engine is imported from ``src/`` there.
One process, one closed-loop client: run one instance, check it, start the
next.  One round runs every instance; further rounds re-run the light ones
(see ``measure``) while another round fits in ``--seconds``.  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of
``tracer.PER_LAYER``.
See README.md in this directory.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

TAIL_BEYOND = 10
LIGHT_S = 2.0
MARGIN_CAP = 16.0

# times the imports of ``import_engine`` in a fresh interpreter
IMPORT_PROBE = """\
import sys, time
began = time.perf_counter()
sys.path[:0] = sys.argv[1:]
import numpy, cstarcat, tracer, workloads
print(time.perf_counter() - began)
"""

# (name, unit, better) of the end-to-end metrics, in report order
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("sweep_s", "s", "lower"),
    ("instance_s.p50", "s", "lower"),
    ("instance_s.tail", "s", "lower"),
    ("margin_digits", "digits", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)


def fail(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_engine():
    """Import numpy and the engine from this checkout's ``src/`` only."""
    if not (SRC / "cstarcat" / "__init__.py").is_file():
        fail(f"no engine sources at {SRC / 'cstarcat'}; run from a full checkout", 2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import cstarcat

    if Path(cstarcat.__file__).resolve().parent != (SRC / "cstarcat").resolve():
        fail(f"imported cstarcat from {cstarcat.__file__}, not from {SRC}", 2)
    import tracer
    import workloads

    return tracer, workloads


def probe_import() -> float:
    """Engine import time in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(HERE), str(SRC)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


class Setup:
    """Samples of set-up: an engine import, input generation and a warm-up.

    The first sample is this process's own set-up; later ones import in a
    fresh interpreter.  The runner takes them between rounds, so that they
    see the machine over the whole run, as the sweep does, and not only in
    its first second.
    """

    def __init__(self, workload, chosen, workdir):
        self.workload, self.chosen, self.workdir = workload, chosen, workdir
        self.samples: list[float] = []

    def sample(self, import_s: float | None = None):
        if import_s is None:
            import_s = probe_import()
        began = time.perf_counter()
        instances = self.workload.generate(self.chosen, self.workdir)
        self.workload.run(instances[-1])  # warm-up: the smallest slot
        self.samples.append(import_s + time.perf_counter() - began)
        return instances


# -- machine record ----------------------------------------------------------------


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unreadable."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line.split()[-1]})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(np) -> dict:
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, AttributeError):
        blas = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "cstarcat").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


# -- measurement -------------------------------------------------------------------


def margin_digits(check) -> float:
    """Accuracy headroom ``log10(threshold / residual)`` of one check, capped."""
    if not math.isfinite(check.residual):
        return -MARGIN_CAP
    if check.residual <= 0.0:
        return MARGIN_CAP
    return min(MARGIN_CAP, math.log10(check.threshold / check.residual))


class Sweep:
    """Per-instance samples, checks, sizes and traced totals of one measurement."""

    def __init__(self, n_instances: int):
        self.times: list[list[float]] = [[] for _ in range(n_instances)]
        self.sizes: list[dict | None] = [None] * n_instances
        self.traced: list[dict[str, float]] = [{} for _ in range(n_instances)]
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.margin = math.inf
        self.worst: tuple[float, str] | None = None

    def record_checks(self, label: str, checks) -> bool:
        for check in checks:
            digits = margin_digits(check)
            if digits < self.margin:
                self.margin = digits
                self.worst = (digits, f"{label}: {check.name}")
        return all(check.passed for check in checks)

    def medians(self) -> list[float]:
        """Each instance's time: the median of its samples.

        The fastest sample was tried as well.  It follows the machine's rare
        fast moments, and over six seeds it spread wider from run to run than
        the median did.
        """
        return [statistics.median(t) for t in self.times]

    def sweep_s(self) -> float:
        """One pass over every instance: the sum of the per-instance times."""
        return sum(self.medians())

    def per_pass(self) -> dict[str, float]:
        """Traced totals of one pass: per-instance means over samples, summed."""
        total: dict[str, float] = {}
        for sums, samples in zip(self.traced, self.times):
            for key, value in sums.items():
                total[key] = total.get(key, 0.0) + value / len(samples)
        return total


def run_round(workload, instances, chosen, sweep: Sweep, trace=None, want_sizes=False) -> None:
    """Run each chosen instance once, closed loop, and record it."""
    for i in chosen:
        inst = instances[i]
        before = trace.snapshot() if trace is not None else None
        start = time.perf_counter()
        try:
            report, outputs = workload.run(inst)
            checks, error = report.checks, None
        except Exception:  # an instance that raises is a failed instance, never skipped
            checks, outputs, error = [], None, traceback.format_exc(limit=3)
        spent = time.perf_counter() - start
        sweep.times[i].append(spent)
        sweep.attempted += 1
        ok = sweep.record_checks(inst.label, checks) and error is None
        if error is not None:
            if sweep.margin > -MARGIN_CAP:
                sweep.margin = -MARGIN_CAP
                sweep.worst = (-MARGIN_CAP, f"{inst.label}: raised")
            print(f"instance {i} ({inst.label}) raised:\n{error}", file=sys.stderr)
        elif not ok:
            bad = [c for c in checks if not c.passed]
            print(f"instance {i} ({inst.label}) failed: "
                  + ", ".join(f"{c.name}={c.residual:.3e}>{c.threshold:.1e}" for c in bad),
                  file=sys.stderr)
        if not ok:
            sweep.failed += 1
        if want_sizes and outputs is not None and sweep.sizes[i] is None:
            sweep.sizes[i] = workload.sizes(inst, outputs)
        if trace is not None:
            sums = sweep.traced[i]
            for key, value in trace.snapshot().items():
                sums[key] = sums.get(key, 0.0) + value - before.get(key, 0.0)
            sums["wall_s"] = sums.get("wall_s", 0.0) + spent
    sweep.rounds += 1


def measure(workload, instances, seconds: float, sweep: Sweep, trace=None,
            want_sizes=True, between=None) -> None:
    """One round over every instance, then rounds over the light ones.

    An instance is light when its first run took at most LIGHT_S.  A light
    round starts only when it is expected, from the light instances' last
    samples, to end within ``seconds`` of the start; the first round always
    runs whole, so a run lasts at least one round.  Heavy instances run
    once: a second sample of them made the sweep no steadier and raised the
    peak memory.  ``between``, if given, is called before each light round.
    """
    began = time.perf_counter()
    # smallest slots first, so light samples open and close the run
    run_round(workload, instances, reversed(range(len(instances))), sweep, trace, want_sizes)
    light = [i for i, t in enumerate(sweep.times) if t[0] <= LIGHT_S]
    while light:
        expected = sum(sweep.times[i][-1] for i in light)
        if time.perf_counter() - began + expected > seconds:
            return
        if between is not None:
            between()
        run_round(workload, instances, light, sweep, trace)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND instances above it."""
    return math.floor(100 * (n - TAIL_BEYOND) / n)


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of ``values``.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics, so two
    instances of nearly equal time that swap ranks do not make the estimate
    jump from one to the other, as the plain order statistic would.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    per = 400  # integration steps per order statistic
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        mass = 0.0
        for j in range(per):
            t = (i * per + j + 0.5) / (n * per)
            mass += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        weights.append(mass / (n * per))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def format_result(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    })


def print_instances(instances, sweep: Sweep) -> None:
    medians = sweep.medians()
    total = sum(medians)
    by_class: dict[str, float] = {}
    for inst, t in zip(instances, medians):
        by_class[inst.label] = by_class.get(inst.label, 0.0) + t
    for i, (inst, t) in enumerate(zip(instances, medians)):
        line = f"instance {i:2d} {inst.label:<36} {t:9.4f} s x{len(sweep.times[i])}"
        if sweep.sizes[i] is not None:
            line += " sizes=" + json.dumps(sweep.sizes[i], separators=(",", ":"))
        spans = {k: v for k, v in sweep.traced[i].items() if k.endswith(".self_s")}
        if spans:
            top = sorted(spans.items(), key=lambda kv: -kv[1])[:4]
            line += " top_self=" + ",".join(
                f"{k[:-len('.self_s')]}:{v / len(sweep.times[i]):.3f}" for k, v in top)
        print(line)
    heavy = max(by_class, key=by_class.get)
    print(f"largest class share of a pass: {heavy} {by_class[heavy] / total:.3f} "
          f"({by_class[heavy]:.3f} of {total:.3f} s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("morita", "reconstruction", "structure"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    began = time.perf_counter()
    tracer_mod, workloads = import_engine()
    import numpy as np

    imported_s = time.perf_counter() - began
    machine = machine_record(np)
    print("machine: " + json.dumps(machine, sort_keys=True))
    if machine["blas_threads"] is not None and machine["blas_threads"] != 1:
        fail(f"BLAS runs {machine['blas_threads']} threads, expected 1", 1)

    workload = workloads.WORKLOADS[args.workload]()
    workdir = ROOT / ".bench_work" / str(os.getpid())
    try:
        # the benchmark's own seed search: not timed
        setup = Setup(workload, workload.choose(args.seed), workdir)
        instances = setup.sample(imported_s)
        n = len(instances)
        print(f"workload: {args.workload} seed={args.seed} instances={n} trace={args.trace}")

        if args.trace == 0:
            sweep = Sweep(n)
            measure(workload, instances, args.seconds, sweep, between=setup.sample)
            setup.sample()
            setup_s = statistics.median(setup.samples)
            print_instances(instances, sweep)
            print(f"setup samples: {[round(t, 4) for t in setup.samples]} s")
            medians = sweep.medians()
            q = tail_percentile(n)
            metrics = {
                "setup_s": setup_s,
                "sweep_s": sweep.sweep_s(),
                "instance_s.p50": harrell_davis(medians, 0.5),
                "instance_s.tail": harrell_davis(medians, q / 100),
                "margin_digits": sweep.margin,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {name: unit for name, unit, _ in END_TO_END}
            print(f"rounds: {sweep.rounds} (one full, then instances under {LIGHT_S} s)")
            print(f"instance_s.tail is p{q} over {n} instances (Harrell-Davis estimates "
                  f"over the instances' median times)")
            print(f"failed_frac: {sweep.failed}/{sweep.attempted} = "
                  f"{sweep.failed / sweep.attempted:.4f}")
            if sweep.worst is not None:
                print(f"tightest check: {sweep.worst[1]} ({sweep.worst[0]:.3f} digits)")
            for name, unit, _ in END_TO_END:
                print(f"{name} = {metrics[name]:.6g} {unit}")
            attempted, failed = sweep.attempted, sweep.failed
        else:
            plain = Sweep(n)
            measure(workload, instances, args.seconds / 2, plain)
            tracer = tracer_mod.Tracer()
            tracer.install()
            traced = Sweep(n)
            measure(workload, instances, args.seconds / 2, traced, trace=tracer,
                    want_sizes=False)
            tracer.uninstall()
            traced.sizes = plain.sizes
            print_instances(instances, traced)
            untraced_s, traced_s = plain.sweep_s(), traced.sweep_s()
            metrics = tracer.metrics(traced.per_pass(), traced_s / untraced_s - 1.0)
            units = {name: unit for name, unit, _ in tracer_mod.PER_LAYER
                     if args.workload == "reconstruction"
                     or name not in tracer_mod.RECONSTRUCTION_ONLY}
            print(f"sweep: untraced {untraced_s:.4f} s ({plain.rounds} rounds), "
                  f"traced {traced_s:.4f} s ({traced.rounds} rounds)")
            for name, unit, _ in tracer_mod.PER_LAYER:
                print(f"{name} = {metrics[name]:.6g} {unit}")
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(format_result(failed == 0, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
