"""Outside-in tracer: spans around the engine's public callables and numpy kernels.

``Tracer.install()`` replaces, in place, every public function and every public
method of the public classes of the traced ``cstarcat`` modules, and the numpy
entry points that ``cstarcat.linalg`` funnels into, with timing wrappers.
Nothing under ``src/`` is edited; ``uninstall()`` restores the originals.

Accounting rules:

* A span's ``self_s`` is its duration minus the durations of the wrapped
  calls made inside it.  Spans are grouped into the metric names of
  ``PER_LAYER``; a group's ``calls`` counts calls at the wrapped boundary.
* A module-level function is replaced in every ``cstarcat`` module that
  imported it by name, so calls through those names are seen too.  Methods
  are replaced on their classes, so subclasses that inherit them are seen.
* numpy kernels carry a re-entrancy guard: a kernel that calls another
  wrapped kernel (``matrix_rank`` or ``pinv`` reaching ``svd``) counts once,
  at the outermost call.
* ``@`` (``ndarray.__matmul__``) is a C slot and cannot be wrapped.  Its time
  lands in ``self_s`` of the enclosing span, or in ``unattributed_s`` when
  the benchmark's own code runs it outside any span.
* Constant-time accessors (``ACCESSORS``) are left unwrapped.
* Size hooks and the flop count run inside the span they describe, so the
  self times and ``unattributed_s`` still add up to the traced wall time.
* ``linalg.flops`` and ``linalg.bytes`` are computed from operand shapes with
  the formulas in ``_kernel_cost``; they are estimates, not counter readings.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from collections import defaultdict

LAYERS = ("linalg", "category", "multipliers", "modules", "bimodules", "morita", "io")

# numpy entry point -> metric group
KERNELS = {
    ("numpy.linalg", "svd"): "linalg.svd",
    ("numpy.linalg", "matrix_rank"): "linalg.svd",
    ("numpy.linalg", "pinv"): "linalg.svd",
    ("numpy.linalg", "eigh"): "linalg.eig",
    ("numpy.linalg", "eigvalsh"): "linalg.eig",
    ("numpy.linalg", "lstsq"): "linalg.lstsq",
    ("numpy", "tensordot"): "linalg.contract",
    ("numpy", "einsum"): "linalg.contract",
}

# engine callable -> metric group.  Keys are "<layer>.<function>",
# "<layer>.<Class>.<method>" or "<layer>.<Class>.*".  Every other wrapped
# callable lands in "<layer>.other" ("linalg.helpers" for cstarcat.linalg).
GROUPS = {
    "category.CStarCategory.hom_coords": "category.hom_coords",
    "category.CStarCategory.__init__": "category.CStarCategory",
    "category.verify_category": "category.verify_category",
    "category.factorize": "category.factorize",
    "category.cofactorize": "category.factorize",
    "category.polar_unitary": "category.factorize",
    "category.column_sup_norm": "category.factorize",
    "category.AdditiveHull.*": "category.hull",
    "category.MatrixAlgebra.*": "category.hull",
    "multipliers.multiplier_space": "multipliers.multiplier_space",
    "multipliers.MultiplierCategory.verify": "multipliers.verify",
    "modules.HilbertModule.__init__": "modules.HilbertModule",
    "modules.HilbertModule.eval_basis": "modules.eval_basis",
    "modules.unitary_operator_report": "modules.unitary_report",
    "bimodules.Bimodule.mor": "bimodules.mor",
    "bimodules.Bimodule.hull_extend": "bimodules.hull_extend",
    "bimodules.TensorModule.__init__": "bimodules.tensor_module",
    "bimodules.TensorModule.simple": "bimodules.simple",
    "bimodules.BimoduleTensor.__init__": "bimodules.bimodule_tensor",
    "bimodules.QuotientTensor.__init__": "bimodules.quotient_oracle",
    "bimodules.tensor_cross_check": "bimodules.cross_check",
    "bimodules.BimoduleMap.verify_natural": "bimodules.verify",
    "bimodules.BimoduleMap.unitary_report": "bimodules.verify",
    "bimodules.check_nondegenerate": "bimodules.verify",
    "bimodules.verify_bimodule": "bimodules.verify",
    "morita.check_imprimitivity": "morita.check_imprimitivity",
    "morita.check_full": "morita.check_imprimitivity",
    "morita.BiHilbertData.left_product": "morita.left_product",
    "morita.ConjugateBimodule.*": "morita.conjugate",
    "morita.morita_target_map": "morita.target_map",
    "morita.morita_source_map": "morita.source_map",
    "morita.eilenberg_watts_map": "morita.eilenberg_watts",
    "io.load_specfile": "io.parse",
    "io.realize": "io.realize",
    "io.category_from_payload": "io.realize",
    "io.module_from_payload": "io.realize",
    "io.bimodule_from_payload": "io.realize",
    "io.groupoid_from_payload": "io.realize",
    "io.decode_matrix": "io.realize",
    "io.specfile_for": "io.serialize",
    "io.category_payload": "io.serialize",
    "io.module_payload": "io.serialize",
    "io.bimodule_payload": "io.serialize",
    "io.groupoid_payload": "io.serialize",
    "io.encode_matrix": "io.serialize",
    "io.dumps_canonical": "io.serialize",
    "io.save_specfile": "io.serialize",
    "io.SpecFile.to_obj": "io.serialize",
}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"linalg.{k}.{m}", u, "lower")
     for k in ("svd", "eig", "lstsq", "contract", "helpers")
     for m, u in (("calls", "count"), ("self_s", "s"))]
    + [
        ("linalg.flops", "flop", "lower"),
        ("linalg.bytes", "B", "lower"),
        ("category.hom_coords.calls", "count", "lower"),
        ("category.hom_coords.self_s", "s", "lower"),
        ("category.CStarCategory.calls", "count", "lower"),
        ("category.CStarCategory.self_s", "s", "lower"),
        ("category.verify_category.self_s", "s", "lower"),
        ("category.factorize.self_s", "s", "lower"),
        ("category.hull.self_s", "s", "lower"),
        ("category.other.self_s", "s", "lower"),
        ("multipliers.multiplier_space.calls", "count", "lower"),
        ("multipliers.multiplier_space.self_s", "s", "lower"),
        ("multipliers.verify.self_s", "s", "lower"),
        ("multipliers.system_rows.sum", "rows", "lower"),
        ("multipliers.other.self_s", "s", "lower"),
        ("modules.HilbertModule.calls", "count", "lower"),
        ("modules.HilbertModule.self_s", "s", "lower"),
        ("modules.eval_basis.calls", "count", "lower"),
        ("modules.eval_basis.self_s", "s", "lower"),
        ("modules.eval_basis.hit_ratio", "ratio", "higher"),
        ("modules.unitary_report.self_s", "s", "lower"),
        ("modules.other.self_s", "s", "lower"),
        ("bimodules.mor.calls", "count", "lower"),
        ("bimodules.mor.self_s", "s", "lower"),
        ("bimodules.hull_extend.calls", "count", "lower"),
        ("bimodules.hull_extend.self_s", "s", "lower"),
        ("bimodules.tensor_module.calls", "count", "lower"),
        ("bimodules.tensor_module.self_s", "s", "lower"),
        ("bimodules.tensor_module.dim_max", "dim", "lower"),
        ("bimodules.bimodule_tensor.self_s", "s", "lower"),
        ("bimodules.bimodule_tensor.dim_max", "dim", "lower"),
        ("bimodules.quotient_oracle.self_s", "s", "lower"),
        ("bimodules.quotient_oracle.gram_dim_max", "dim", "lower"),
        ("bimodules.simple.calls", "count", "lower"),
        ("bimodules.simple.self_s", "s", "lower"),
        ("bimodules.cross_check.self_s", "s", "lower"),
        ("bimodules.verify.self_s", "s", "lower"),
        ("bimodules.other.self_s", "s", "lower"),
        ("morita.check_imprimitivity.self_s", "s", "lower"),
        ("morita.left_product.calls", "count", "lower"),
        ("morita.left_product.self_s", "s", "lower"),
        ("morita.conjugate.self_s", "s", "lower"),
        ("morita.target_map.self_s", "s", "lower"),
        ("morita.source_map.self_s", "s", "lower"),
        ("morita.source_map.dom_dim_max", "dim", "lower"),
        ("morita.eilenberg_watts.self_s", "s", "lower"),
        ("morita.other.self_s", "s", "lower"),
        ("io.parse.self_s", "s", "lower"),
        ("io.realize.self_s", "s", "lower"),
        ("io.serialize.self_s", "s", "lower"),
        ("io.other.self_s", "s", "lower"),
        ("io.bytes", "B", "lower"),
        ("unattributed_s", "s", "lower"),
        ("trace_overhead_frac", "ratio", "lower"),
    ]
)

# metrics that only eilenberg_watts_map moves: the result carries them on
# ``reconstruction`` alone, and BENCHMARK.json, which does not run that
# workload, leaves them out
RECONSTRUCTION_ONLY = ("bimodules.quotient_oracle.self_s", "bimodules.quotient_oracle.gram_dim_max",
                       "bimodules.cross_check.self_s", "morita.eilenberg_watts.self_s")

# metrics that are maxima over the run rather than totals per pass
_MAXIMA = ("bimodules.tensor_module.dim_max", "bimodules.bimodule_tensor.dim_max",
           "bimodules.quotient_oracle.gram_dim_max", "morita.source_map.dom_dim_max")


def _kernel_cost(counters, kernel: str, args, result) -> None:
    """Add one kernel call's computed flops and bytes to ``counters``.

    SVD family (svd, matrix_rank, pinv, lstsq) on an m x n matrix, k = min(m, n):
    ``f * (2mnk + 4k^3)``; lstsq adds ``f * m n r`` for r right-hand sides.
    eigh: ``f * 4.5 n^3``; eigvalsh: ``f * (2/3) n^3``.  tensordot:
    ``f * |out| * |contracted|``.  einsum without optimisation loops over every
    index: ``f/2 * (operands) * prod(index extents)``.  ``f`` is 8 real flops per
    complex multiply-add and 2 per real one.  Bytes are operands plus result.
    """
    arrays = [a for a in args if hasattr(a, "dtype")]
    if not arrays:
        return
    f = 8 if any(a.dtype.kind == "c" for a in arrays) else 2
    moved = sum(a.nbytes for a in arrays)
    moved += sum(r.nbytes for r in result) if isinstance(result, tuple) \
        else getattr(result, "nbytes", 0)
    a = arrays[0]
    flops = 0.0
    if kernel == "tensordot" and len(arrays) == 2 and result.size:
        flops = f * result.size * (a.size * arrays[1].size / result.size) ** 0.5
    elif kernel == "einsum":
        extents: dict[str, int] = {}
        spec = args[0].replace(" ", "").split("->")[0].split(",")
        for sub, arr in zip(spec, arrays):
            extents.update(zip(sub, arr.shape))
        flops = f / 2 * len(arrays) * math.prod(extents.values())
    elif a.ndim >= 2:
        batch = math.prod(a.shape[:-2])
        m, n = a.shape[-2:]
        if kernel in ("eigh", "eigvalsh"):
            flops = f * batch * (4.5 if kernel == "eigh" else 2.0 / 3.0) * n ** 3
        else:
            k = min(m, n)
            flops = f * batch * (2 * m * n * k + 4 * k ** 3)
            if kernel == "lstsq" and len(arrays) > 1:
                rhs = arrays[1]
                flops += f * m * n * (rhs.shape[1] if rhs.ndim > 1 else 1)
    counters["linalg.flops"] += flops
    counters["linalg.bytes"] += moved


# Constant-time table lookups: wrapping them would cost more than their
# bodies, so their time stays in the caller's self time.
ACCESSORS = {
    "category.CStarCategory.check_object",
    "category.CStarCategory.dim",
    "category.CStarCategory.label",
    "category.CStarCategory.hom_basis",
    "category.CStarCategory.hom_dim",
    "bimodules.Bimodule.ob",
    "bimodules.Bimodule.mor_stack",
    "bimodules.BimoduleMap.component",
}


class Tracer:
    """Span collector for one traced run; see the module docstring."""

    def __init__(self):
        self._stats: dict[str, list] = {}
        self._hits: dict[str, list] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)
        self.eval_hits = 0
        self.covered_s = 0.0
        self._stack: list[float] = []
        self._in_kernel = False
        self._patches: list[tuple[object, str, object]] = []

    # -- accounting ----------------------------------------------------------

    def _wrap(self, fn, group: str, label: str, kernel: str | None = None):
        tracer = self
        stat = self._stats.setdefault(group, [0, 0.0])
        hits = self._hits.setdefault(label, [0])
        after = _AFTER.get(label)
        before = _BEFORE.get(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if kernel is not None:
                if tracer._in_kernel:
                    return fn(*args, **kwargs)
                tracer._in_kernel = True
            if before is not None:
                before(tracer, args, kwargs)
            stack = tracer._stack
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if kernel is not None:
                    _kernel_cost(tracer.counters, kernel, args, result)
                elif after is not None:
                    after(tracer, args, kwargs, result)
            finally:
                spent = clock() - start
                stat[1] += spent - stack.pop()
                stat[0] += 1
                hits[0] += 1
                if kernel is not None:
                    tracer._in_kernel = False
                if stack:
                    stack[-1] += spent
                else:
                    tracer.covered_s += spent
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced callable; idempotent per tracer."""
        if self._patches:
            return
        for (modname, attr), group in KERNELS.items():
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            self._patch(module, attr, self._wrap(original, group, f"numpy.{attr}", kernel=attr))
        engine = [m for name, m in sorted(sys.modules.items())
                  if name == "cstarcat" or name.startswith("cstarcat.")]
        for layer in LAYERS:
            module = importlib.import_module(f"cstarcat.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, Exception):
                        self._wrap_class(layer, obj)
                elif inspect.isfunction(obj):
                    label = f"{layer}.{name}"
                    wrapped = self._wrap(obj, _group(layer, label), label)
                    for holder in engine:
                        for ref, value in list(vars(holder).items()):
                            if value is obj:
                                self._patch(holder, ref, wrapped)

    def _wrap_class(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            label = f"{layer}.{cls.__name__}.{name}"
            if name.startswith("_") and name not in ("__init__", "__matmul__") \
                    or label in ACCESSORS:
                continue
            group = _group(layer, label, f"{layer}.{cls.__name__}.*")
            if isinstance(attr, staticmethod):
                self._patch(cls, name, staticmethod(self._wrap(attr.__func__, group, label)))
            elif isinstance(attr, classmethod):
                self._patch(cls, name, classmethod(self._wrap(attr.__func__, group, label)))
            elif inspect.isfunction(attr):
                self._patch(cls, name, self._wrap(attr, group, label))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    @property
    def calls(self) -> dict[str, int]:
        """Calls per metric group so far."""
        return defaultdict(int, {g: s[0] for g, s in self._stats.items()})

    @property
    def fired(self) -> set[str]:
        """Labels of the wrapped callables that were called at least once."""
        return {label for label, h in self._hits.items() if h[0]}

    def snapshot(self) -> dict[str, float]:
        """Every additive total so far: ``<group>.calls``, ``<group>.self_s``,
        the computed counters, ``eval_hits`` and ``covered_s`` (time inside
        top-level spans)."""
        out = {"eval_hits": float(self.eval_hits), "covered_s": self.covered_s}
        out.update(self.counters)
        for group, (calls, spent) in self._stats.items():
            out[group + ".calls"] = float(calls)
            out[group + ".self_s"] = spent
        return out

    def metrics(self, per_pass: dict[str, float], overhead_frac: float) -> dict[str, float]:
        """Every ``PER_LAYER`` value from the additive totals of one pass.

        ``per_pass`` holds ``snapshot`` differences plus ``wall_s``, the
        instances' own wall time; maxima are taken over the whole run.
        """
        out: dict[str, float] = {}
        for name, _, _ in PER_LAYER:
            if name in _MAXIMA:
                out[name] = float(self.maxima[name])
            elif name == "modules.eval_basis.hit_ratio":
                calls = per_pass.get("modules.eval_basis.calls", 0.0)
                out[name] = per_pass.get("eval_hits", 0.0) / calls if calls else 0.0
            elif name == "unattributed_s":
                out[name] = per_pass.get("wall_s", 0.0) - per_pass.get("covered_s", 0.0)
            elif name == "trace_overhead_frac":
                out[name] = overhead_frac
            else:
                out[name] = per_pass.get(name, 0.0)
        return out


def _group(layer: str, label: str, wildcard: str = "") -> str:
    return GROUPS.get(label) or GROUPS.get(wildcard) \
        or ("linalg.helpers" if layer == "linalg" else f"{layer}.other")


# -- size hooks: exact counts read from arguments and results -----------------


def _eval_basis_before(tracer: Tracer, args, kwargs) -> None:
    module, at = args[0], (args[1] if len(args) > 1 else kwargs["at"])
    if at in getattr(module, "_eval_cache", {}):
        tracer.eval_hits += 1


def _raise_max(tracer: Tracer, name: str, value: int) -> None:
    tracer.maxima[name] = max(tracer.maxima[name], int(value))


def _multiplier_rows(tracer: Tracer, args, kwargs, result) -> None:
    cat, x, y = args[0], args[1], args[2]
    dxx, dyy, dxy = cat.hom_dim(x, x), cat.hom_dim(y, y), cat.hom_dim(x, y)
    if dxy:
        tracer.counters["multipliers.system_rows.sum"] += \
            dxy * (dxx * dxx + dyy * dyy + (dxx * dyy if dxx and dyy else 0))


def _load_bytes(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["io.bytes"] += os.path.getsize(args[0])


def _dump_bytes(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["io.bytes"] += len(result.encode())


_BEFORE = {"modules.HilbertModule.eval_basis": _eval_basis_before}

_AFTER = {
    "bimodules.TensorModule.__init__": lambda t, a, k, r: _raise_max(
        t, "bimodules.tensor_module.dim_max", a[0].module.total_dim),
    "bimodules.BimoduleTensor.__init__": lambda t, a, k, r: _raise_max(
        t, "bimodules.bimodule_tensor.dim_max", max(m.total_dim for m in a[0].ob_map)),
    "bimodules.QuotientTensor.__init__": lambda t, a, k, r: _raise_max(
        t, "bimodules.quotient_oracle.gram_dim_max",
        max((g.shape[0] for g in a[0].gram.values()), default=0)),
    "morita.morita_source_map": lambda t, a, k, r: _raise_max(
        t, "morita.source_map.dom_dim_max", max(m.total_dim for m in r.dom.ob_map)),
    "multipliers.multiplier_space": _multiplier_rows,
    "io.load_specfile": _load_bytes,
    "io.dumps_canonical": _dump_bytes,
}
