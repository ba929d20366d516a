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
from .linalg import (Tolerance, as_cmatrix, hermitian_part, numerical_rank, op_norm, op_norms,
                     resolve_tol, span_eval, stack_rank)
from .category import (
    CStarCategory,
    Morphism,
    _action_residuals,
    _block_diagonal,
    _blockwise,
    _layout,
    _pair_stacks,
    block_residual,
    list_dim,
)
from .modules import (
    HilbertModule,
    ModuleElement,
    ModuleOperator,
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
        self._blocks = _pair_stacks(source, mor_blocks, [m.total_dim for m in self.ob_map],
                                    "action blocks")
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
        return self._stack(self.source.check_object(x), self.source.check_object(y))

    def _stack(self, x: int, y: int) -> np.ndarray:
        """hom(x, y)'s stack (checked indices), built by ``_build`` on first read."""
        if (x, y) not in self._blocks:
            self._blocks[x, y] = self._build(x, y)
        return self._blocks[x, y]

    def mor(self, a: Morphism) -> ModuleOperator:
        """Linear extension of the basis action to an arbitrary morphism."""
        if a.cat is not self.source:
            raise InvalidInput("morphism does not live in the bimodule source")
        return ModuleOperator(self.ob_map[a.src], self.ob_map[a.dst],
                              self._act(a.src, a.dst, a.mat), validate=False)

    def left_act(self, row, x: int, y: int) -> np.ndarray:
        """``row @ b`` for every block b of hom(x, y), as a (hom_dim, r,
        dim E(x)) stack, from an (r, dim E(y)) matrix ``row``."""
        return as_cmatrix(row, cols=self.ob(y).total_dim) @ self.mor_stack(x, y)

    def _compressed(self, x: int, y: int) -> np.ndarray:
        """V_y* · b · V_x for every block b of hom(x, y), V the fibers' range frames."""
        return self.ob(y).frame.conj().T @ self.mor_stack(x, y) @ self.ob(x).frame

    def _act(self, x: int, y: int, mat) -> np.ndarray:
        """The action on one matrix of hom(x, y) or a (..., dim(y), dim(x))
        stack, as (..., dy, dx) blocks: coordinates times the block stack."""
        return span_eval(self.source.hom_coords(x, y, mat), self._stack(x, y))

    def hull_extend(self, src_list, dst_list, block) -> np.ndarray:
        """Apply the action blockwise to a block matrix over object lists.

        ``block`` is a hull morphism of the source from ``src_list`` to
        ``dst_list``; the result maps the direct sum of the corresponding
        image modules accordingly.
        """
        src, dst_list, src_list = self.source, tuple(dst_list), tuple(src_list)
        arr = as_cmatrix(block, list_dim(src, dst_list), list_dim(src, src_list))
        fibers_in, fibers_out = self._fiber_layout(src_list), self._fiber_layout(dst_list)
        out = np.zeros((fibers_out.dim, fibers_in.dim), dtype=np.complex128)
        _blockwise(src, self._act, arr, out, _layout(src, src_list), _layout(src, dst_list),
                   fibers_in, fibers_out)
        return out

    def _fiber_layout(self, lst):
        """Layout of the direct sum of the fibers over an object list."""
        return _layout(self.source, lst, [self.ob_map[x].total_dim for x in lst])

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
    mult, star, decrease, _ = _action_residuals(E.source, E._act, E.mor_stack,
                                                np.random.default_rng(seed), samples)
    report = Report(context="bimodule")
    report.add("block-compression", compress_res, tol.bound(1.0))
    report.add("functoriality", mult, tol.bound(1.0))
    report.add("star-preservation", star, tol.bound(1.0))
    report.add("norm-decrease", decrease, tol.bound(1.0))
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
    computed and must agree (the report carries the comparison).

    The span rank at (x, z) is ``stack_rank`` of the stacked images
    E(b) e, with b an orthonormal hom basis and e an evaluation basis of unit
    Frobenius norm; the action is contractive, so each image has Frobenius
    norm at most 1 and the cut at ``atol`` is absolute on a unit scale.
    """
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
            deficit = max(deficit, target_dim - stack_rank(np.concatenate(images), tol))
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
        proj = hermitian_part(E.hull_extend(M.base, M.base, M.proj))
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

    The generating simple tensors at z are m ⊗ e, m in M's evaluation basis
    at x and e in E(x)'s at z, and their Gram is w* A w.  ``products`` = A,
    shared by every z, holds the formula products E(<m, m'>), one block per
    pair of M's basis elements, from one ``Bimodule._act`` per pair of source
    objects.  ``frames[z]`` = w is the block diagonal, one block per m, of
    the fibers' evaluation bases side by side; ``factors[z]`` = r is its QR
    factor, w* = q r with q orthonormal (one QR per fiber).  So the Gram is
    q (r A r*) q*, and ``gram[z]`` = r A r* has its norm and nonzero
    spectrum at the fibers' width.  ``dims[z]`` is the rank of the Frobenius
    Gram sum_k w_k* A w_k, w_k the k-th column of every generator.  The
    oracle shares only the bimodule action with the projection route.
    """

    def __init__(self, M: HilbertModule, E: Bimodule, tol: Tolerance | None = None):
        if M.cat is not E.source:
            raise InvalidInput("module and bimodule live over different categories")
        self.M, self.E = M, E
        self.tol = tol = resolve_tol(tol if tol is not None else M.tol)
        src, dst = E.source, E.target
        objs = range(src.n_objects)
        cols = [_side_by_side(M.eval_stack(x)) for x in objs]

        def acted(x, xp):
            p, pp = M.eval_dim(x), M.eval_dim(xp)
            inner = (cols[x].conj().T @ cols[xp]).reshape(p, src.dim(x), pp, src.dim(xp))
            out = E._act(xp, x, inner.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
            return out.reshape(p * out.shape[1], pp * out.shape[3])

        self.products = np.block([[acted(x, xp) for xp in objs] for x in objs])
        xs = [x for x in objs for _ in range(M.eval_dim(x))]
        self.generators, self.frames, self.factors, self.gram, self.dims = {}, {}, {}, {}, {}
        for z in range(dst.n_objects):
            wide = [_side_by_side(E.ob(x).eval_stack(z)) for x in objs]
            rs = [np.linalg.qr(v.conj().T, mode="r") for v in wide]
            w = self.frames[z] = _block_diagonal([wide[x] for x in xs])
            r = self.factors[z] = _block_diagonal([rs[x] for x in xs])
            self.gram[z] = r @ self.products @ r.conj().T
            self.generators[z] = [(m, e) for x in objs for m in M.eval_basis(x)
                                  for e in E.ob(x).eval_basis(z)]
            dz = dst.dim(z)
            scalar = sum(w[:, k::dz].conj().T @ self.products @ w[:, k::dz] for k in range(dz))
            self.dims[z] = numerical_rank(np.abs(np.linalg.eigvalsh(scalar)), tol)


def _side_by_side(stack: np.ndarray) -> np.ndarray:
    """A (k, rows, cols) stack as one (rows, k * cols) matrix of columns."""
    return stack.transpose(1, 0, 2).reshape(stack.shape[1], -1)


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
    """``tensor_cross_check`` on an already built projection tensor.

    The realized generators at z are the columns of Z w, w the oracle's frame
    and Z = P E(B), with B M's evaluation bases side by side (one
    ``hull_extend`` for every z) and P the tensor's projection.  With w* = q r
    both Grams are q (.) q*, of (Z r*)* (Z r*) and of r A r*.  As q has
    orthonormal columns, each check is exact at the fibers' width: the
    difference keeps its norm, and each spectrum gains only zeros.
    """
    M, E = tensor.M, tensor.E
    oracle = tensor_quotient_oracle(M, E, tol)
    objs = range(E.source.n_objects)
    xs = tuple(x for x in objs for _ in range(M.eval_dim(x)))
    basis = np.concatenate([_side_by_side(M.eval_stack(x)) for x in objs], axis=1)
    realized = tensor.module.proj @ E.hull_extend(xs, M.base, basis)
    dim_gap, spec_res, entry_res = 0, 0.0, 0.0
    for z, gram in oracle.gram.items():
        dim_gap = max(dim_gap, abs(tensor.module.eval_dim(z) - oracle.dims[z]))
        if not oracle.generators[z]:
            continue
        zr = realized @ oracle.factors[z].conj().T
        gram2 = zr.conj().T @ zr
        zeros = np.zeros(oracle.frames[z].shape[1] - len(gram))
        ev1, ev2 = (np.sort(np.concatenate([np.linalg.eigvalsh(hermitian_part(g)), zeros]))
                    for g in (gram, gram2))
        # the operator norm of the Hermitian oracle Gram is its largest |eigenvalue|
        scale = max(float(np.max(np.abs(ev1))), 1.0)
        diff_norm = float(np.max(np.abs(np.linalg.eigvalsh(hermitian_part(gram2 - gram)))))
        entry_res = max(entry_res, diff_norm / scale)
        spec_res = max(spec_res, float(np.max(np.abs(ev1 - ev2))) / scale)
    report = Report(context="tensor-cross-check")
    report.add("evaluation-dimension-gap", float(dim_gap), 0.5)
    report.add("gram-entry-agreement", entry_res, tol.bound(1.0) * 10)
    report.add("gram-spectrum-agreement", spec_res, tol.bound(1.0) * 10)
    return report


class BimoduleTensor(Bimodule):
    """Composite bimodule E ⊗ F with the fiber tensors kept for reuse.

    A block b of E acts as F's extension of P_y · b · P_x, P the projections
    of E's fibers: F extends P to the tensor's projection as a *-functor, so
    this is the extended b between tensor projections, at E's smaller size.
    The compression multiplies through the fibers' range frames.  A pair's
    action stack is built on first read, one extension per basis element;
    ``left_act`` goes through the factors and builds none.
    """

    def __init__(self, E: Bimodule, F: Bimodule):
        if E.target is not F.source:
            raise InvalidInput("tensor factors do not compose")
        self.left, self.right = E, F
        self.ob_tensors = [tensor_module_bimodule(E.ob(x), F) for x in range(E.source.n_objects)]
        self.source, self.target, self.tol = E.source, F.target, E.tol
        self.ob_map = [t.module for t in self.ob_tensors]
        self._blocks: dict = {}

    def _build(self, x: int, y: int) -> np.ndarray:
        fx, fy, compressed = self.left.ob(x), self.left.ob(y), self.left._compressed(x, y)
        stack = np.zeros((len(compressed), self.ob_map[y].total_dim, self.ob_map[x].total_dim),
                         dtype=np.complex128)
        for i, c in enumerate(compressed):
            stack[i] = self.right.hull_extend(fx.base, fy.base, fy.frame @ c @ fx.frame.conj().T)
        return stack

    def left_act(self, row, x: int, y: int) -> np.ndarray:
        """``row @ b`` through the factors.  With Z = V_y c V_x*, c = E's
        ``_compressed`` block, R · F(Z) is the sum over the block pairs (j, l)
        of Z of span_eval(hom_coords(Z_jl), R_j · F's blocks), R_j the columns
        of R at entry j of E(y)'s base.  The entries go in runs whose rows of Z
        and row blocks (height r per entry) hold at most 2**16 entries (1 MiB),
        or one entry each, so a large Z is never formed whole."""
        E, F, src = self.left, self.right, self.right.source
        row = as_cmatrix(row, cols=self.ob(y).total_dim)
        fx, fy, r, n = E.ob(x), E.ob(y), row.shape[0], len(E.ob(y).base)
        c, fibers, dx = E._compressed(x, y), F._fiber_layout(fy.base), self.ob(x).total_dim
        out = np.zeros((len(c), r, dx), dtype=np.complex128)
        step = max(1, 2**16 * n // max(1, len(c) * (fy.total_dim * fx.total_dim + n * r * dx)))

        def act(xp, yp, blocks):  # blocks: (k, n_r, n_c, dim yp, dim xp) of the run
            (k, n_r, n_c), d = blocks.shape[:3], F.ob(xp).total_dim
            rows = run_row[:, plan[yp].idx].transpose(1, 0, 2).reshape(n_r * r, -1)
            acted = F.left_act(rows, xp, yp)
            acted = acted.reshape(len(acted), n_r, r * d).transpose(1, 0, 2)
            coords = src.hom_coords(xp, yp, blocks).transpose(1, 0, 2, 3)
            prod = coords.reshape(n_r, k * n_c, -1) @ acted
            return prod.reshape(n_r, k, n_c, r, d).transpose(1, 0, 2, 3, 4)

        for lo in range(0, n, step):
            run, hi = fy.base[lo:lo + step], min(lo + step, n) - 1
            run_row = row[:, fibers.slices[lo].start:fibers.slices[hi].stop]
            plan = F._fiber_layout(run).plan
            z = fy.frame[fy.slices[lo].start:fy.slices[hi].stop] @ c @ fx.frame.conj().T
            piece = np.zeros((len(c), len(run) * r, dx), dtype=np.complex128)
            _blockwise(src, act, z, piece, _layout(src, fx.base), _layout(src, run),
                       F._fiber_layout(fx.base), _layout(src, run, [r] * len(run)))
            out += piece.reshape(len(c), len(run), r, dx).sum(axis=1)
        return out


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
        for x, comp in enumerate(self.components):
            if not (isinstance(comp, ModuleOperator) and comp.dom.same_presentation(dom.ob(x))
                    and comp.cod.same_presentation(cod.ob(x))):
                raise InvalidInput(f"component {x} does not map dom({x}) to cod({x})")

    def component(self, x: int) -> ModuleOperator:
        return self.components[self.dom.source.check_object(x)]

    def verify_natural(self, tol: Tolerance | None = None) -> Report:
        tol = resolve_tol(tol if tol is not None else self.dom.tol)
        report = Report(context="bimodule-map-naturality")
        res = 0.0
        src = self.dom.source
        for x in range(src.n_objects):
            for y in range(src.n_objects):
                # comp_y · dom(b) first, through left_act: a tensor domain builds no stack
                lhs = self.dom.left_act(self.components[y].block, x, y)
                np.subtract(self.cod.mor_stack(x, y) @ self.components[x].block, lhs, out=lhs)
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
