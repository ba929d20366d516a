"""Bimodules: functors from a category into the Hilbert modules of another.

A bimodule stores one f.g.p. module per source object and, for every source
hom-basis element, an operator block between the corresponding modules; the
action extends complex-linearly.  Tensor products are computed by the
projection method: extend the right factor over block matrices, apply it to
the presentation projection of the left factor, and take the image.  The
quotient construction (span of simple tensors modulo the null space of the
semi-inner product) is kept alongside as an independent oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput
from .linalg import Tolerance, as_cmatrix, op_norm, op_norms, resolve_tol, span_eval
from .category import (
    CStarCategory,
    Morphism,
    _action_residuals,
    _block_diagonal,
    _block_view,
    _check_pair_keys,
    _object_rows,
    _set_blocks,
    block_residual,
    list_dim,
)
from .modules import (
    HilbertModule,
    ModuleElement,
    ModuleOperator,
    gram_matrix,
    representable,
    unitary_operator_report,
)
from .report import Report

__all__ = [
    "Bimodule",
    "BimoduleMap",
    "verify_bimodule",
    "yoneda_bimodule",
    "check_nondegenerate",
    "TensorModule",
    "tensor_module_bimodule",
    "QuotientTensor",
    "tensor_quotient_oracle",
    "tensor_cross_check",
    "tensor_bimodule_bimodule",
    "tensor_map_right",
    "tensor_map_left",
    "associator",
    "left_unitor",
    "right_unitor",
]


class Bimodule:
    """C*-functor from ``source`` into the Hilbert modules over ``target``.

    Parameters
    ----------
    ob_map : list of HilbertModule over ``target``, one per source object
    mor_blocks : mapping (x, y) -> stack of operator blocks
        Block k is the image of the k-th basis element of hom(x, y), as a
        matrix from ob_map[x]'s ambient space to ob_map[y]'s.
    """

    def __init__(self, source: CStarCategory, target: CStarCategory,
                 ob_map, mor_blocks, tol: Tolerance | None = None,
                 validate: bool = True):
        self.source = source
        self.target = target
        self.tol = resolve_tol(tol)
        self.ob_map: list[HilbertModule] = list(ob_map)
        if len(self.ob_map) != source.n_objects:
            raise InvalidInput("need one module per source object")
        for module in self.ob_map:
            if module.cat is not target:
                raise InvalidInput("object images must be modules over the target")
        _check_pair_keys(mor_blocks, source.n_objects, "action")
        self._blocks: dict[tuple[int, int], np.ndarray] = {}
        for x in range(source.n_objects):
            for y in range(source.n_objects):
                k = source.hom_dim(x, y)
                dx = self.ob_map[x].total_dim
                dy = self.ob_map[y].total_dim
                stack = mor_blocks.get((x, y)) if mor_blocks is not None else None
                if stack is None:
                    if k != 0:
                        raise InvalidInput(f"missing action blocks for hom({x},{y})")
                    stack = np.zeros((0, dy, dx), dtype=np.complex128)
                stack = np.asarray(stack, dtype=np.complex128)
                if stack.shape != (k, dy, dx):
                    raise InvalidInput(
                        f"action blocks for hom({x},{y}) have shape {stack.shape}, "
                        f"expected {(k, dy, dx)}"
                    )
                self._blocks[(x, y)] = stack
        if validate:
            res = 0.0
            for (x, y), stack in self._blocks.items():  # one stacked projection per pair
                res = max(res, float(np.max(block_residual(
                    target, self.ob_map[x].base, self.ob_map[y].base, stack), initial=0.0)))
            if res > self.tol.bound(1.0) * 10:
                raise InvalidInput(f"action blocks leave their hom-spaces ({res:.3e})")

    def ob(self, x: int) -> HilbertModule:
        return self.ob_map[self.source.check_object(x)]

    def mor_stack(self, x: int, y: int) -> np.ndarray:
        return self._blocks[(x, y)]

    def mor(self, a: Morphism) -> ModuleOperator:
        """Linear extension of the basis action to an arbitrary morphism."""
        if a.cat is not self.source:
            raise InvalidInput("morphism does not live in the bimodule source")
        return ModuleOperator(self.ob_map[a.src], self.ob_map[a.dst],
                              self._act(a.src, a.dst, a.mat), validate=False)

    def _act(self, x: int, y: int, mat) -> np.ndarray:
        """The action on one matrix of hom(x, y) or a (..., dim(y), dim(x))
        stack, as (..., dy, dx) blocks: coordinates times the block stack."""
        return span_eval(self.source.hom_coords(x, y, mat), self._blocks[(x, y)])

    def hull_extend(self, src_list, dst_list, block) -> np.ndarray:
        """Apply the action blockwise to a block matrix over object lists.

        ``block`` is a hull morphism of the source from ``src_list`` to
        ``dst_list``; the result maps the direct sum of the corresponding
        image modules accordingly.
        """
        src, dst_list, src_list = self.source, tuple(dst_list), tuple(src_list)
        arr = as_cmatrix(block, list_dim(src, dst_list), list_dim(src, src_list))
        out = np.zeros((sum(self.ob_map[y].total_dim for y in dst_list),
                        sum(self.ob_map[x].total_dim for x in src_list)), dtype=np.complex128)
        self._extend_into(out, src_list, dst_list, arr)
        return out

    def _extend_into(self, out: np.ndarray, src_list: tuple, dst_list: tuple,
                     arr: np.ndarray) -> None:
        """``hull_extend`` written into ``out``, which must be zero: one
        action per pair of distinct objects on all of its blocks at once, and
        none for a pair whose blocks are all zero, since their image is zero."""
        src = self.source
        rows_out = _object_rows(src, dst_list, [self.ob_map[y].total_dim for y in dst_list])
        cols_in = _object_rows(src, src_list, [self.ob_map[x].total_dim for x in src_list])
        cols = _object_rows(src, src_list)
        for y, r in _object_rows(src, dst_list).items():
            for x, c in cols.items():
                if src.hom_dim(x, y):
                    blocks = _block_view(arr, r, c)
                    if blocks.any():
                        _set_blocks(out, rows_out[y], cols_in[x], self._act(x, y, blocks))

    def __repr__(self) -> str:
        return f"Bimodule({self.source!r} -> Hilb[{self.target!r}])"


def verify_bimodule(E: Bimodule, tol: Tolerance | None = None,
                    samples: int = 3, seed: int = 0) -> Report:
    """Functoriality, *-preservation and norm-decrease of a bimodule action."""
    tol = resolve_tol(tol if tol is not None else E.tol)
    objs = range(E.source.n_objects)
    compress_res = 0.0
    for x in objs:
        for y in objs:
            stack = E.mor_stack(x, y)
            diffs = E.ob(y).proj @ stack @ E.ob(x).proj - stack
            compress_res = max(compress_res, float(np.max(op_norms(diffs), initial=0.0)))
    mult, star, gains = _action_residuals(E.source, E._act, E.mor_stack,
                                          np.random.default_rng(seed), samples)
    report = Report(context="bimodule")
    report.add("block-compression", compress_res, tol.bound(1.0))
    report.add("functoriality", mult, tol.bound(1.0))
    report.add("star-preservation", star, tol.bound(1.0))
    report.add("norm-decrease", max([0.0, *(v for g in gains.values() for v in g)]),
               tol.bound(1.0))
    return report


def yoneda_bimodule(cat: CStarCategory, tol: Tolerance | None = None) -> Bimodule:
    """The self-bimodule sending x to its representable module.

    The action is post-composition, an isometry whose image is exactly the
    compact operators between representables; its products are full.
    """
    ob_map = [representable(cat, x) for x in range(cat.n_objects)]
    mor_blocks = {
        (x, y): cat.hom_basis(x, y).copy()
        for x in range(cat.n_objects)
        for y in range(cat.n_objects)
    }
    return Bimodule(cat, cat, ob_map, mor_blocks, tol=tol, validate=False)


def check_nondegenerate(E: Bimodule, tol: Tolerance | None = None) -> tuple[bool, Report]:
    """Unit criterion and span-rank criterion for non-degeneracy; both are
    computed and must agree (the report carries the comparison)."""
    tol = resolve_tol(tol if tol is not None else E.tol)
    src, dst = E.source, E.target
    report = Report(context="nondegenerate")
    unit_res = 0.0
    unit_ok = True
    for x in range(src.n_objects):
        module = E.ob(x)
        image = E.mor(src.unit(x))
        res = op_norm(image.block - module.proj)
        unit_res = max(unit_res, res)
        unit_ok = unit_ok and res <= tol.bound(1.0) * 10
    report.add("unit-acts-as-identity", unit_res, tol.bound(1.0) * 10)

    rank_ok = True
    deficit = 0
    for x in range(src.n_objects):
        module = E.ob(x)
        for z in range(dst.n_objects):
            target_dim = module.eval_dim(z)
            images = [
                (E.mor_stack(y, x)[:, None] @ E.ob(y).eval_stack(z)[None]).reshape(
                    -1, module.total_dim * dst.dim(z))
                for y in range(src.n_objects)
            ]
            rank = np.linalg.matrix_rank(np.concatenate(images), tol=tol.atol)
            deficit = max(deficit, target_dim - int(rank))
    rank_ok = deficit == 0
    report.add("span-rank-deficit", float(deficit), 0.5)
    report.add("criteria-agree", float(unit_ok != rank_ok), 0.5)
    return unit_ok, report


# ---------------------------------------------------------------------------
# tensor products


class TensorModule:
    """Module tensor product in projection presentation, with provenance.

    ``module`` is the image of the extended projection on the direct sum of
    the fiber modules, whose base is the fibers' bases concatenated;
    ``simple`` realizes a simple tensor m ⊗ e as a column.
    """

    def __init__(self, M: HilbertModule, E: Bimodule):
        if M.cat is not E.source:
            raise InvalidInput("module and bimodule live over different categories")
        self.M = M
        self.E = E
        base = tuple(z for x in M.base for z in E.ob(x).base)
        proj = E.hull_extend(M.base, M.base, M.proj)
        proj = 0.5 * (proj + proj.conj().T)
        self.module = HilbertModule(E.target, base, proj, tol=M.tol, validate=True)

    def simple(self, m: ModuleElement, e: ModuleElement) -> ModuleElement:
        """Presentation column of the simple tensor m ⊗ e.

        ``m`` lives in the left module at some source object x; ``e`` in the
        bimodule fiber at x, evaluated anywhere.
        """
        if not m.module.same_presentation(self.M):
            raise InvalidInput("left element does not live in the tensor's module")
        if not e.module.same_presentation(self.E.ob(m.at)):
            raise InvalidInput("right element does not live in the fiber at the left's object")
        out = self.E.hull_extend((m.at,), self.M.base, m.col) @ e.col
        return ModuleElement(self.module, e.at, self.module.proj @ out, validate=False)


def tensor_module_bimodule(M: HilbertModule, E: Bimodule) -> TensorModule:
    """Tensor a module with a bimodule by the projection method."""
    return TensorModule(M, E)


class QuotientTensor:
    """Quotient-presentation tensor product, used as an independent oracle.

    For each evaluation object it records the generating simple tensors, the
    assembled block Gram matrix of their formula-defined inner products, and
    the dimension of the quotient by the Gram radical.  It shares only the
    bimodule action with the projection construction: per pair of source
    objects (x, x') the action is applied to all <m, m'> at once, and the
    Gram block of the m ⊗ e is R_x* · E(<m, m'>) · R_x', with R_x the
    evaluation basis of E(x) side by side.
    """

    def __init__(self, M: HilbertModule, E: Bimodule, tol: Tolerance | None = None):
        if M.cat is not E.source:
            raise InvalidInput("module and bimodule live over different categories")
        self.M = M
        self.E = E
        self.tol = tol = resolve_tol(tol if tol is not None else M.tol)
        src, dst = E.source, E.target
        objs = range(src.n_objects)
        lefts = [M.eval_basis(x) for x in objs]
        cols = [_side_by_side(ms, M.total_dim) for ms in lefts]
        acted = {}
        for x in objs:
            for xp in objs:
                p, pp = len(lefts[x]), len(lefts[xp])
                inner = (cols[x].conj().T @ cols[xp]).reshape(p, src.dim(x), pp, src.dim(xp))
                acted[x, xp] = E._act(xp, x, inner.transpose(0, 2, 1, 3))
        self.generators: dict[int, list[tuple[ModuleElement, ModuleElement]]] = {}
        self.gram: dict[int, np.ndarray] = {}
        self.dims: dict[int, int] = {}
        for z in range(dst.n_objects):
            rights = [E.ob(x).eval_basis(z) for x in objs]
            wide = [_side_by_side(es, E.ob(x).total_dim) for x, es in enumerate(rights)]
            blocks = []
            for x in objs:
                blocks.append([])
                for xp in objs:
                    pair = wide[x].conj().T @ acted[x, xp] @ wide[xp]
                    p, pp, r, c = pair.shape
                    blocks[x].append(pair.transpose(0, 2, 1, 3).reshape(p * r, pp * c))
            gens = [(m, e) for ms, es in zip(lefts, rights) for m in ms for e in es]
            n, dz = len(gens), dst.dim(z)
            self.generators[z], self.gram[z] = gens, np.block(blocks)
            scalar = self.gram[z].reshape(n, dz, n, dz).trace(axis1=1, axis2=3)
            self.dims[z] = int(np.linalg.matrix_rank(scalar, tol=tol.atol, hermitian=True))


def _side_by_side(elements, rows: int) -> np.ndarray:
    """The columns of module elements side by side; ``rows`` × 0 if none."""
    cols = [e.col for e in elements]
    return np.concatenate(cols, axis=1) if cols else np.zeros((rows, 0), dtype=np.complex128)


def tensor_quotient_oracle(M: HilbertModule, E: Bimodule,
                           tol: Tolerance | None = None) -> QuotientTensor:
    """Build the quotient-presentation tensor product (oracle route)."""
    return QuotientTensor(M, E, tol=tol)


def tensor_cross_check(M: HilbertModule, E: Bimodule,
                       tol: Tolerance | None = None) -> Report:
    """Compare the projection construction against the quotient oracle.

    Checks, per evaluation object: equal dimensions, agreement of the Gram
    spectra of the generating simple tensors, and entrywise agreement of the
    oracle Gram with the inner products of the realized columns.
    """
    tol = resolve_tol(tol if tol is not None else M.tol)
    return _cross_check(tensor_module_bimodule(M, E), tol)


def _cross_check(tensor: TensorModule, tol: Tolerance) -> Report:
    """``tensor_cross_check`` on an already built projection tensor."""
    E = tensor.E
    oracle = tensor_quotient_oracle(tensor.M, E, tol)
    report = Report(context="tensor-cross-check")
    dim_gap = 0
    spec_res = 0.0
    entry_res = 0.0
    for z in range(E.target.n_objects):
        dim_gap = max(dim_gap, abs(tensor.module.eval_dim(z) - oracle.dims[z]))
        gens, gram = oracle.generators[z], oracle.gram[z]
        if not gens:
            continue
        _, gram2 = gram_matrix(tensor.simple(m, e) for (m, e) in gens)
        ev1 = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
        ev2 = np.linalg.eigvalsh(0.5 * (gram2 + gram2.conj().T))
        # the operator norm of the Hermitian oracle Gram is its largest |eigenvalue|
        scale = max(float(np.max(np.abs(ev1))), 1.0)
        diff = gram2 - gram
        diff_norm = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)))))
        entry_res = max(entry_res, diff_norm / scale)
        spec_res = max(spec_res, float(np.max(np.abs(ev1 - ev2))) / scale)
    report.add("evaluation-dimension-gap", float(dim_gap), 0.5)
    report.add("gram-entry-agreement", entry_res, tol.bound(1.0) * 10)
    report.add("gram-spectrum-agreement", spec_res, tol.bound(1.0) * 10)
    return report


class BimoduleTensor(Bimodule):
    """Composite bimodule E ⊗ F with the fiber tensors kept for reuse.

    A block b of E acts as F's extension of P_y · b · P_x, P the projections
    of E's fibers: F extends P to the tensor's projection as a *-functor, so
    this is the extended b between tensor projections, at E's smaller size.
    The compression multiplies through the fibers' range frames.
    """

    def __init__(self, E: Bimodule, F: Bimodule):
        if E.target is not F.source:
            raise InvalidInput("tensor factors do not compose")
        self.left = E
        self.right = F
        self.ob_tensors = [
            tensor_module_bimodule(E.ob(x), F) for x in range(E.source.n_objects)
        ]
        ob_map = [t.module for t in self.ob_tensors]
        mor_blocks = {}
        for x in range(E.source.n_objects):
            for y in range(E.source.n_objects):
                fx, fy = E.ob(x), E.ob(y)
                blocks = E.mor_stack(x, y)
                stack = np.zeros((blocks.shape[0], ob_map[y].total_dim, ob_map[x].total_dim),
                                 dtype=np.complex128)
                for i, c in enumerate(fy.frame.conj().T @ blocks @ fx.frame):
                    F._extend_into(stack[i], fx.base, fy.base, fy.frame @ c @ fx.frame.conj().T)
                mor_blocks[(x, y)] = stack
        super().__init__(E.source, F.target, ob_map, mor_blocks,
                         tol=E.tol, validate=False)


def tensor_bimodule_bimodule(E: Bimodule, F: Bimodule) -> BimoduleTensor:
    """Tensor product of composable bimodules (projection method throughout)."""
    return BimoduleTensor(E, F)


class BimoduleMap:
    """Natural family of module operators between two parallel bimodules."""

    def __init__(self, dom: Bimodule, cod: Bimodule, components):
        if dom.source is not cod.source or dom.target is not cod.target:
            raise InvalidInput("bimodule maps need parallel bimodules")
        self.dom = dom
        self.cod = cod
        self.components: list[ModuleOperator] = list(components)
        if len(self.components) != dom.source.n_objects:
            raise InvalidInput("need one component per source object")

    def component(self, x: int) -> ModuleOperator:
        return self.components[x]

    def verify_natural(self, tol: Tolerance | None = None) -> Report:
        tol = resolve_tol(tol if tol is not None else self.dom.tol)
        report = Report(context="bimodule-map-naturality")
        res = 0.0
        src = self.dom.source
        for x in range(src.n_objects):
            for y in range(src.n_objects):
                lhs = self.cod.mor_stack(x, y) @ self.components[x].block
                # in place: on the largest Morita inputs this stack sets the peak memory
                lhs -= self.components[y].block @ self.dom.mor_stack(x, y)
                res = max(res, np.max(op_norms(lhs), initial=0.0))
        report.add("naturality", float(res), tol.bound(1.0) * 10)
        return report

    def unitary_report(self, tol: Tolerance | None = None) -> Report:
        tol = resolve_tol(tol if tol is not None else self.dom.tol)
        report = Report(context="bimodule-map-unitarity")
        for x, comp in enumerate(self.components):
            part = unitary_operator_report(comp, tol)
            report.extend(part, prefix=f"x{x}:")
        return report

    def compose(self, other: "BimoduleMap") -> "BimoduleMap":
        if not all(
            other.cod.ob(x).same_presentation(self.dom.ob(x))
            for x in range(self.dom.source.n_objects)
        ):
            raise InvalidInput("bimodule maps do not compose")
        comps = []
        for x in range(self.dom.source.n_objects):
            a, b = self.components[x], other.components[x]
            comps.append(ModuleOperator(b.dom, a.cod, a.block @ b.block, validate=False))
        return BimoduleMap(other.dom, self.cod, comps)

    def norm_distance(self, other: "BimoduleMap") -> float:
        return max(
            op_norm(a.block - b.block)
            for a, b in zip(self.components, other.components)
        )


def _presentation_bridge(dom: Bimodule, cod: Bimodule) -> BimoduleMap:
    """The map whose component at x is the product of the projections of
    cod(x) and dom(x), fibers presented on one base list."""
    comps = []
    for d, c in zip(dom.ob_map, cod.ob_map):
        if d.base != c.base:
            raise InvalidInput("presentations do not share a base list")
        comps.append(ModuleOperator(d, c, c.proj @ d.proj, validate=False))
    return BimoduleMap(dom, cod, comps)


def tensor_map_right(tau: BimoduleMap, F: Bimodule) -> BimoduleMap:
    """Whisker a map of A-B bimodules with a B-C bimodule on the right."""
    dom = tensor_bimodule_bimodule(tau.dom, F)
    cod = tensor_bimodule_bimodule(tau.cod, F)
    comps = []
    for x in range(tau.dom.source.n_objects):
        block = F.hull_extend(tau.dom.ob(x).base, tau.cod.ob(x).base,
                              tau.components[x].block)
        block = cod.ob(x).proj @ block @ dom.ob(x).proj
        comps.append(ModuleOperator(dom.ob(x), cod.ob(x), block, validate=False))
    return BimoduleMap(dom, cod, comps)


def tensor_map_left(G: Bimodule, tau: BimoduleMap) -> BimoduleMap:
    """Whisker a map of B-C bimodules with an A-B bimodule on the left."""
    dom = tensor_bimodule_bimodule(G, tau.dom)
    cod = tensor_bimodule_bimodule(G, tau.cod)
    comps = [
        _whiskered_component(tau, G.ob(x).base, dom.ob(x), cod.ob(x))
        for x in range(G.source.n_objects)
    ]
    return BimoduleMap(dom, cod, comps)


def _whiskered_component(tau: BimoduleMap, base, dom: HilbertModule,
                         cod: HilbertModule) -> ModuleOperator:
    """The block diagonal of tau's components over ``base``, compressed
    between the tensor presentations ``dom`` and ``cod`` on that base."""
    block = _block_diagonal([tau.components[b].block for b in base])
    return ModuleOperator(dom, cod, cod.proj @ block @ dom.proj, validate=False)


def associator(E: Bimodule, F: Bimodule, G: Bimodule) -> BimoduleMap:
    """Canonical map (E⊗F)⊗G -> E⊗(F⊗G).

    Both presentations share one ambient free module; the map is the
    composition of the two projections, unitary exactly when the two
    extension routes agree.
    """
    return _presentation_bridge(tensor_bimodule_bimodule(tensor_bimodule_bimodule(E, F), G),
                                tensor_bimodule_bimodule(E, tensor_bimodule_bimodule(F, G)))


def left_unitor(E: Bimodule) -> BimoduleMap:
    """Canonical map (Yoneda ⊗ E) -> E; unitary when E is non-degenerate."""
    return _presentation_bridge(tensor_bimodule_bimodule(yoneda_bimodule(E.source), E), E)


def right_unitor(E: Bimodule) -> BimoduleMap:
    """Canonical map (E ⊗ Yoneda) -> E."""
    return _presentation_bridge(tensor_bimodule_bimodule(E, yoneda_bimodule(E.target)), E)
