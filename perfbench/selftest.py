"""Self-test of the benchmark at a tiny size (a few seconds).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics the runner prints, that
every wrapper the metrics rely on fires on the workload that should call it
(and the layers a workload must not touch stay silent), that the numpy
re-entrancy guard counts a nested kernel once, and that ``uninstall`` puts
every original back.  Exits non-zero on the first failed assertion.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (pins the BLAS threads before numpy is imported)

tracer_mod, workloads = run.import_engine()
import numpy as np  # noqa: E402

import cstarcat.bimodules  # noqa: E402
import cstarcat.modules  # noqa: E402
import cstarcat.morita  # noqa: E402

# workload -> (groups that must fire, groups that must stay silent)
EXPECTED = {
    "morita": (
        {"linalg.svd", "linalg.eig", "linalg.lstsq", "linalg.contract", "linalg.helpers",
         "category.hom_coords", "category.CStarCategory", "category.hull",
         "modules.HilbertModule", "modules.eval_basis", "modules.unitary_report",
         "bimodules.mor", "bimodules.hull_extend", "bimodules.tensor_module",
         "bimodules.bimodule_tensor", "bimodules.simple", "bimodules.verify",
         "morita.check_imprimitivity", "morita.left_product", "morita.conjugate",
         "morita.target_map", "morita.source_map"},
        {"multipliers.multiplier_space", "bimodules.quotient_oracle",
         "morita.eilenberg_watts", "io.parse", "io.realize", "io.serialize"},
    ),
    "reconstruction": (
        {"linalg.svd", "linalg.eig", "linalg.contract", "category.hom_coords",
         "category.CStarCategory", "modules.HilbertModule", "modules.eval_basis",
         "modules.unitary_report", "bimodules.mor", "bimodules.hull_extend",
         "bimodules.tensor_module", "bimodules.quotient_oracle", "bimodules.simple",
         "bimodules.cross_check", "bimodules.verify", "morita.eilenberg_watts"},
        {"morita.source_map", "morita.target_map", "morita.left_product",
         "morita.conjugate", "multipliers.multiplier_space", "io.parse"},
    ),
    "structure": (
        {"linalg.svd", "linalg.eig", "linalg.contract", "category.CStarCategory",
         "category.verify_category", "category.factorize", "category.hull",
         "multipliers.multiplier_space", "multipliers.verify",
         "io.parse", "io.realize", "io.serialize"},
        {"bimodules.mor", "bimodules.tensor_module", "bimodules.quotient_oracle",
         "morita.source_map", "morita.eilenberg_watts"},
    ),
}

# wrappers named in the benchmark's documentation, by workload
NAMED = {
    "morita": {"bimodules.Bimodule.mor", "bimodules.TensorModule.__init__",
               "morita.BiHilbertData.left_product", "morita.morita_source_map",
               "morita.ConjugateBimodule.__init__", "numpy.lstsq", "numpy.einsum"},
    "reconstruction": {"bimodules.QuotientTensor.__init__", "bimodules.tensor_cross_check",
                       "morita.eilenberg_watts_map", "numpy.eigvalsh", "numpy.matrix_rank"},
    "structure": {"multipliers.multiplier_space", "multipliers.MultiplierCategory.verify",
                  "io.load_specfile", "io.realize", "io.dumps_canonical",
                  "category.AdditiveHull.__init__", "category.MatrixAlgebra.__init__",
                  "numpy.svd", "numpy.tensordot"},
}

TINY = {
    "morita": lambda: workloads.MoritaWorkload(workloads.MORITA_SLOTS[-3:]),
    "reconstruction": lambda: workloads.ReconstructionWorkload(
        [workloads.RECONSTRUCTION_SLOTS[i] for i in (21, 22, 27, 28)]),
    "structure": lambda: workloads.StructureWorkload(
        [workloads.STRUCTURE_BLOCK_SLOTS[i] for i in (2, 10)],
        [("codiscrete", 2), ("cyclic", 3)]),
}


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END), "end_to_end of BENCHMARK.json differs from run.END_TO_END"
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [m for m in tracer_mod.PER_LAYER if m[0] not in tracer_mod.RECONSTRUCTION_ONLY], \
        "per_layer of BENCHMARK.json differs from PER_LAYER without RECONSTRUCTION_ONLY"
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def check_guard() -> None:
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        outer = tracer._wrap(lambda a: np.linalg.svd(a), "linalg.svd", "numpy.outer",
                             kernel="svd")
        outer(np.eye(3))
        assert tracer.calls["linalg.svd"] == 1, "nested kernel counted twice"
        np.linalg.pinv(np.eye(3))
        np.linalg.matrix_rank(np.eye(3))
        assert tracer.calls["linalg.svd"] == 3, "pinv/matrix_rank not counted once each"
        assert cstarcat.bimodules.unitary_operator_report \
            is cstarcat.modules.unitary_operator_report, "function not wrapped in importers"
        assert hasattr(cstarcat.morita.tensor_cross_check, "__wrapped_by_perfbench__")
    finally:
        tracer.uninstall()
    assert not hasattr(np.linalg.svd, "__wrapped_by_perfbench__"), "svd not restored"
    assert not hasattr(cstarcat.bimodules.Bimodule.mor, "__wrapped_by_perfbench__")
    assert not hasattr(cstarcat.morita.tensor_cross_check, "__wrapped_by_perfbench__")


def check_workload(name: str, workdir: Path) -> None:
    workload = TINY[name]()
    instances = workload.generate(workload.choose(0), workdir)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for inst in instances:
            report, _ = workload.run(inst)
            assert report.passed, f"{name} {inst.label}: a check failed\n{report}"
    finally:
        tracer.uninstall()
    must, never = EXPECTED[name]
    silent = sorted(g for g in must if tracer.calls[g] == 0)
    assert not silent, f"{name}: wrappers never fired for {silent}"
    loud = sorted(g for g in never if tracer.calls[g] > 0)
    assert not loud, f"{name}: layers that must stay silent fired: {loud}"
    missing = sorted(NAMED[name] - tracer.fired)
    assert not missing, f"{name}: named wrappers never fired: {missing}"
    values = tracer.metrics(tracer.snapshot(), 0.0)
    assert set(values) == {m for m, _, _ in tracer_mod.PER_LAYER}
    print(f"selftest {name}: ok ({len(tracer.fired)} wrappers fired, "
          f"{sum(tracer.calls.values())} calls)")


def main() -> int:
    check_benchmark_json()
    check_guard()
    workdir = run.ROOT / ".bench_work" / "selftest"
    try:
        for name in EXPECTED:
            check_workload(name, workdir)
    finally:
        for path in sorted(workdir.glob("*")):
            path.unlink()
        if workdir.exists():
            workdir.rmdir()
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
