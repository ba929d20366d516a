"""Imprimitivity structure, conjugates, and Morita-equivalence witnesses.

A bimodule whose action is faithful and surjects onto the compact operators
between the modules in its image carries a forced left product
(the preimage of the single-rank operators); together with fullness on both
sides this is exactly the data of an imprimitivity bimodule, and tensoring
with it is invertible up to the explicit witness maps built here.  The
reconstruction map expressing any tensor functor through its restriction to
representables closes the loop.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, NotInvertible
from .linalg import (Tolerance, as_cmatrix, frac_power, hermitian_part, numerical_rank, op_norm,
                     op_norms, psd_eigh, resolve_tol, span_eval, stack_rank)
from .category import (
    CStarCategory,
    MatrixAlgebra,
    Morphism,
    _layout,
    _set_blocks,
    matrix_algebra,
    random_block,
)
from .modules import (
    HilbertModule,
    ModuleElement,
    ModuleOperator,
    _free_module,
    bounded_operator_basis,
    unitary_operator_report,
)
from .bimodules import (
    Bimodule,
    BimoduleMap,
    _cross_check,
    _side_by_side,
    _whiskered_component,
    tensor_bimodule_bimodule,
    tensor_cross_check,  # noqa: F401  (perfbench/selftest.py reads it from this module)
    tensor_module_bimodule,
    yoneda_bimodule,
)
from .report import Report

__all__ = [
    "BiHilbertData",
    "check_full",
    "check_imprimitivity",
    "ConjugateBimodule",
    "conjugate_bimodule",
    "morita_target_map",
    "morita_source_map",
    "mat_equivalence",
    "eilenberg_watts_map",
    "WhiskeredTransform",
    "whisker_transform",
]


class BiHilbertData:
    """A bimodule together with its forced left products.

    The left product of elements e, f (at one target object, over fibers
    x and x') is the unique source morphism acting as the single-rank
    operator theta^{e,f}; it exists exactly when the action is faithful and
    onto the compacts, which ``check_imprimitivity`` certifies.
    """

    def __init__(self, bimodule: Bimodule, tol: Tolerance | None = None):
        self.bimodule = bimodule
        self.tol = resolve_tol(tol if tol is not None else bimodule.tol)
        self._solvers: dict[tuple[int, int], tuple[np.ndarray, int]] = {}

    def _solver(self, src: int, dst: int) -> tuple[np.ndarray, int]:
        """Pseudo-inverse of the flattened action on hom(src, dst), and k = dim hom(src, dst).

        The columns of the flat action are the images of an orthonormal hom
        basis, each of Frobenius norm at most sqrt(d) under a contractive
        action, with d the smaller side of the image block.  One SVD of its
        conjugate decides the rank (``numerical_rank``, an absolute cut at
        ``atol``) and gives the pseudo-inverse, assembled in the order numpy's
        ``linalg.pinv`` uses, so the two agree bit for bit.
        """
        key = (src, dst)
        if key not in self._solvers:
            stack = self.bimodule.mor_stack(src, dst)
            k = stack.shape[0]
            flat = stack.reshape(k, -1).T if k else np.zeros((0, 0))
            u, s, vt = np.linalg.svd(flat.conj(), full_matrices=False)
            if numerical_rank(s, self.tol) != k:
                raise NotInvertible(
                    f"action on hom({src},{dst}) is not injective; "
                    "left products are undefined"
                )
            self._solvers[key] = (vt.T @ ((1 / s)[:, None] * u.T), k)
        return self._solvers[key]

    def left_product(self, e: ModuleElement, f: ModuleElement) -> Morphism:
        """The source morphism with action theta^{e,f}, from f's fiber to e's."""
        mat = self.left_product_block([e], [f])
        return Morphism(self.bimodule.source, _fiber_of(self.bimodule, f),
                        _fiber_of(self.bimodule, e), mat, validate=False)

    def left_product_block(self, es, fs) -> np.ndarray:
        """Every left product between two element lists, as one block matrix.

        Block (a, b) is the left product of ``es[a]`` and ``fs[b]``, from
        f_b's fiber to e_a's; the blocks follow the fibers' dimensions.  Per
        pair of fibers there is one stacked theta, one solve against the
        pseudo-inverse of the action and one stacked residual check.
        """
        E = self.bimodule
        src = E.source
        xs = [_fiber_of(E, e) for e in es]
        xps = [_fiber_of(E, f) for f in fs]
        if len({el.at for el in (*es, *fs)}) > 1:
            raise InvalidInput("left products need elements at one target object")
        rows, cols = _layout(src, xs), _layout(src, xps)
        out = np.zeros((rows.dim, cols.dim), dtype=np.complex128)
        for x, r in rows.plan.items():
            e_cols = np.stack([e.col for e, xa in zip(es, xs) if xa == x])
            for xp, c in cols.plan.items():
                f_cols = np.stack([f.col for f, xb in zip(fs, xps) if xb == xp])
                mats, _ = self._products(x, xp, e_cols[:, None], f_cols[None])
                _set_blocks(out, r, c, mats)
        return out

    def _products(self, x: int, xp: int, e_cols: np.ndarray,
                  f_cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Left products of broadcast stacks of columns of fibers x and xp at
        one target object, as (..., dim(x), dim(xp)) matrices, with the
        residuals E(mats) - theta of their action against theta = e f*.

        Raises ``NotInvertible`` where a residual exceeds
        ``tol.bound(max(||theta||, 1)) * 100``; over an empty hom-space the
        products are zero and the scale is ||e|| ||f||.
        """
        src = self.bimodule.source
        theta = e_cols @ f_cols.conj().swapaxes(-1, -2)
        pinv, k = self._solver(xp, x)
        if k == 0:
            if _single_rank_excess(theta, lambda: op_norms(e_cols) * op_norms(f_cols),
                                   self.tol) is not None:
                raise NotInvertible("nonzero single-rank operator over an empty hom-space")
            return np.zeros(theta.shape[:-2] + (src.dim(x), src.dim(xp)),
                            dtype=np.complex128), -theta
        coords = theta.reshape(theta.shape[:-2] + (-1,)) @ pinv.T
        mats = span_eval(coords, src.hom_basis(xp, x))
        residual = self.bimodule._act(xp, x, mats) - theta
        excess = _single_rank_excess(residual, lambda: op_norms(theta), self.tol)
        if excess is not None:
            raise NotInvertible(f"single-rank operator is outside the action image ({excess:.3e})")
        return mats, residual


def _single_rank_excess(residual: np.ndarray, scale, tol: Tolerance) -> float | None:
    """The first op norm of a residual stack above ``tol.bound(max(s, 1)) *
    100``, with ``scale()`` the stack's scales s, or ``None``.

    Op norms are taken only when the Frobenius norm of the whole stack
    exceeds ``tol.bound(1.0) * 100``: below it no residual's op norm can,
    since ||d|| <= ||d||_F, and the bound only grows with s.
    """
    if np.linalg.norm(residual) <= tol.bound(1.0) * 100:
        return None
    norms = op_norms(residual)
    over = norms > tol.bound(np.maximum(scale(), 1.0)) * 100
    return float(norms[over][0]) if over.any() else None


def _fiber_of(E: Bimodule, e: ModuleElement) -> int:
    """The source object whose fiber of ``E`` holds the element ``e``: the
    fiber that is its module, else the first with the same presentation
    (equal fibers are told apart only by identity)."""
    for match in (lambda fiber: fiber is e.module, e.module.same_presentation):
        for x in range(E.source.n_objects):
            if match(E.ob(x)):
                return x
    raise InvalidInput("element does not live in a fiber of the bimodule")


def check_full(E: Bimodule, tol: Tolerance | None = None) -> tuple[bool, Report]:
    """Do the target-valued products span every hom-space of the target?

    The rank at (y, y') is ``stack_rank`` of the stacked hom coordinates
    of the products <e, f> = e* f of evaluation basis elements.  Those have
    unit Frobenius norm, so each row has norm at most 1 and the cut at
    ``atol`` is absolute on a unit scale.
    """
    tol = resolve_tol(tol if tol is not None else E.tol)
    dst = E.target
    report = Report(context="fullness")
    wide = [[_side_by_side(E.ob(x).eval_stack(y)) for y in range(dst.n_objects)]
            for x in range(E.source.n_objects)]
    deficit = 0
    for y in range(dst.n_objects):
        for yp in range(dst.n_objects):
            target_dim = dst.hom_dim(y, yp)
            if target_dim == 0:
                continue
            coords = []
            a, b = dst.dim(yp), dst.dim(y)
            for cols in wide:
                # <e, f> for every pair of basis elements, as blocks of one product
                prods = (cols[yp].conj().T @ cols[y]).reshape(
                    cols[yp].shape[1] // a, a, cols[y].shape[1] // b, b).swapaxes(1, 2)
                coords.append(dst.hom_coords(y, yp, prods).reshape(-1, target_dim))
            deficit = max(deficit, target_dim - stack_rank(np.concatenate(coords), tol))
    report.add("product-span-deficit", float(deficit), 0.5)
    return deficit == 0, report


def check_imprimitivity(E: Bimodule, tol: Tolerance | None = None,
                        samples: int = 4, seed: int = 0) -> tuple[BiHilbertData | None, Report]:
    """Certify imprimitivity: faithful, onto compacts, full; then build the
    forced left product and verify its identity and the norm equality.

    Returns the bi-Hilbert data when the action is faithful and onto the
    compact operators (left products are then defined), else ``None``.

    Both deficits read ``stack_rank`` of the action images of an
    orthonormal basis of hom(x, x').  The action is contractive, so each
    image has Frobenius norm at most sqrt(d), with d the smaller side of the
    image block; the cut at ``atol`` is absolute, not relative to that scale.
    """
    tol = resolve_tol(tol if tol is not None else E.tol)
    rng = np.random.default_rng(seed)
    src = E.source
    report = Report(context="imprimitivity")

    faithful_deficit = 0
    onto_deficit = 0
    for x in range(src.n_objects):
        for xp in range(src.n_objects):
            stack = E.mor_stack(x, xp)
            rank = stack_rank(stack, tol)
            faithful_deficit = max(faithful_deficit, stack.shape[0] - rank)
            compacts = bounded_operator_basis(E.ob(x), E.ob(xp), tol)
            onto_deficit = max(onto_deficit, compacts.shape[0] - rank)
    report.add("faithful-deficit", float(faithful_deficit), 0.5)
    report.add("onto-compacts-deficit", float(onto_deficit), 0.5)

    full_ok, full_report = check_full(E, tol)
    report.extend(full_report)

    if faithful_deficit > 0 or onto_deficit > 0:
        return None, report

    data = BiHilbertData(E, tol)
    # the samples in the order drawn, then one stacked evaluation per (x, x', y)
    # of the pairs (e, f) of the identity check followed by the pairs (e, e)
    # of the norm equality, which belong to (x, x, y)
    groups: dict[tuple[int, int, int], tuple[list, list]] = {}
    for _ in range(samples):
        x = int(rng.integers(0, src.n_objects))
        xp = int(rng.integers(0, src.n_objects))
        y = int(rng.integers(0, E.target.n_objects))
        e = E.ob(x).random_element(rng, y)
        f = E.ob(xp).random_element(rng, y)
        groups.setdefault((x, xp, y), ([], []))[0].append((e.col, f.col))
        groups.setdefault((x, x, y), ([], []))[1].append((e.col, e.col))
    ident_res = 0.0
    norm_res = 0.0
    for (x, xp, _), (ident, own) in groups.items():
        n = len(ident)
        es, fs = (np.array(cols) for cols in zip(*ident, *own))
        mats, residual = data._products(x, xp, es, fs)
        scale = np.maximum(op_norms(es) * op_norms(fs), 1.0)
        ident_res = max(ident_res, float(np.max(op_norms(residual[:n]) / scale[:n], initial=0.0)))
        inner = es[n:].conj().swapaxes(-1, -2) @ es[n:]
        norm_res = max(norm_res, float(np.max(
            np.abs(op_norms(mats[n:]) - op_norms(inner)) / scale[n:], initial=0.0)))
    report.add("left-product-identity", ident_res, tol.bound(1.0) * 100)
    report.add("norm-equality", norm_res, tol.bound(1.0) * 100)
    return data, report


# ---------------------------------------------------------------------------
# the conjugate bimodule


class ConjugateBimodule(Bimodule):
    """Conjugate of an imprimitivity bimodule, with element translations.

    Fiber y is presented on the list of fiber objects carrying an evaluation
    basis at y, with projection S S*, S the frame of the support of the
    left-product Gram and ``roots[y]`` the roots of its nonzero eigenvalues;
    generator α is the conjugate of the α-th basis element.  A target
    morphism b acts as sqrt · Λ_b · isqrt, Λ_b its conjugated coefficient
    pattern (S S* fixes both roots, so no compression), kept factored as
    left_y' · core · right_y, left = S·root, right = (S/root)*, with the small
    ``cores`` S'* Λ_b S: a pair's stack is built on first read, ``left_act``
    builds none, and ``sqrt(y)`` and ``isqrt(y)`` are formed on demand.
    ``element_of`` and ``element_to`` translate between presentation columns
    and the original elements, through the frames as well.
    """

    def __init__(self, data: BiHilbertData, tol: Tolerance | None = None):
        E = data.bimodule
        self.original = data
        self.tol = resolve_tol(tol if tol is not None else data.tol)
        src, dst = E.source, E.target
        self.source, self.target = dst, src

        self.gens: dict[int, list[ModuleElement]] = {}
        self.gen_objects: dict[int, tuple[int, ...]] = {}
        self.roots: dict[int, np.ndarray] = {}
        self.ob_map: list[HilbertModule] = []
        for y in range(dst.n_objects):
            self.gens[y] = gens = [e for x in range(src.n_objects) for e in E.ob(x).eval_basis(y)]
            objects = [x for x in range(src.n_objects) for _ in range(E.ob(x).eval_dim(y))] or [0]
            self.gen_objects[y] = tuple(objects)
            if not gens:  # the zero fiber, presented on a singleton base with an empty frame
                support, root = np.zeros((src.dim(0), 0), dtype=np.complex128), np.zeros(0)
            else:
                ev, vecs = psd_eigh(hermitian_part(data.left_product_block(gens, gens)), self.tol)
                support, root = vecs[:, ev > 0.0], np.sqrt(ev[ev > 0.0])
            self.ob_map.append(HilbertModule(src, objects, support @ support.conj().T,
                                             tol=self.tol))
            self.ob_map[-1].frame, self.roots[y] = support, root

        # the action of b is sqrt · Λ_b · isqrt, where column block α of Λ_b
        # holds the conjugated coefficients of e_α · b* over the y' generators;
        # through the frames S (sqrt = S·root·S*), (S'·root') · (S'* Λ_b S) · (S/root)*
        fibers = [self._fibers(y) for y in range(dst.n_objects)]
        self.cores: dict[tuple[int, int], np.ndarray] = {}
        for y in range(dst.n_objects):
            for yp in range(dst.n_objects):
                basis = dst.hom_basis(y, yp)
                lams = []  # per fiber: rows, columns, identity, coefficients per basis element
                for x, (r, gens) in fibers[y].items():
                    if len(basis) and x in fibers[yp]:
                        r_p, gens_p = fibers[yp][x]
                        moved = gens[None] @ basis.conj().swapaxes(-1, -2)[:, None]  # e · b*
                        coeffs = _conjugated_coefficients(gens_p, moved.reshape(
                            (-1,) + gens_p.shape[1:]))
                        lams.append((r_p, r, np.eye(src.dim(x)),
                                     coeffs.reshape(len(gens_p), len(basis), len(gens))))
                s_p, s = self.ob_map[yp].frame, self.ob_map[y].frame
                core = self.cores[y, yp] = np.empty((len(basis), s_p.shape[1], s.shape[1]),
                                                    dtype=np.complex128)
                for i in range(len(basis)):
                    lam = np.zeros((len(s_p), len(s)), dtype=np.complex128)
                    for r_p, r, eye, coeffs in lams:
                        _set_blocks(lam, r_p, r, coeffs[:, i, :, None, None] * eye)
                    core[i] = s_p.conj().T @ lam @ s
        self._blocks: dict = {}
        self.left = [m.frame * self.roots[y] for y, m in enumerate(self.ob_map)]
        self.right = [(m.frame / self.roots[y]).conj().T for y, m in enumerate(self.ob_map)]

    def sqrt(self, y: int) -> np.ndarray:
        """(S·root)·S*, the square root of fiber y's generator Gram."""
        return self.left[self.source.check_object(y)] @ self.ob_map[y].frame.conj().T

    def isqrt(self, y: int) -> np.ndarray:
        """(S/root)·S*, the inverse square root of that Gram on its support."""
        S = self.ob(y).frame
        return (S / self.roots[y]) @ S.conj().T

    def _build(self, y: int, yp: int) -> np.ndarray:
        return (self.left[yp] @ self.cores[y, yp]) @ self.right[y]

    def left_act(self, row, x: int, y: int) -> np.ndarray:
        row = as_cmatrix(row, cols=self.ob(y).total_dim)
        x = self.source.check_object(x)
        return ((row @ self.left[y]) @ self.cores[x, y]) @ self.right[x]

    def _compressed(self, x: int, y: int) -> np.ndarray:
        return self.roots[y][:, None] * self.cores[x, y] / self.roots[x]

    def _fibers(self, y: int) -> dict[int, tuple]:
        """Per fiber x holding generators at y: the presentation rows of
        their blocks and their columns, the fiber's ``eval_stack(y)``."""
        if not self.gens[y]:
            return {}
        E = self.original.bimodule
        rows = _layout(E.source, self.gen_objects[y]).plan
        return {x: (r, E.ob(x).eval_stack(y)) for x, r in rows.items()}

    def _columns(self, y: int) -> np.ndarray:
        """The columns of the generators at y, one above the other."""
        return np.concatenate([g.reshape(-1, g.shape[-1]) for _, g in self._fibers(y).values()])

    def element_of(self, f: ModuleElement) -> ModuleElement:
        """Presentation column of the conjugate of an original element."""
        src, x, y = self.original.bimodule.source, _fiber_of(self.original.bimodule, f), f.at
        d = src.dim(x)
        pattern = np.zeros((self.ob(y).total_dim, d), dtype=np.complex128)
        fibers = self._fibers(y)
        if x in fibers:
            rows, gens = fibers[x]
            coeffs = _conjugated_coefficients(gens, f.col[None])[:, :, None, None]
            _set_blocks(pattern, rows, _layout(src, (x,)).plan[x], coeffs * np.eye(d))
        S = self.ob(y).frame  # sqrt(y) @ pattern as (S·root) · (S* · pattern)
        return ModuleElement(self.ob(y), x, self.left[y] @ (S.conj().T @ pattern), validate=False)

    def element_to(self, c: ModuleElement) -> ModuleElement:
        """Original element conjugated by a presentation column."""
        E = self.original.bimodule
        y = _fiber_of(self, c)
        x = c.at
        gens = self.gens[y]
        if not gens:
            return E.ob(x).zero_element(y)
        # the coefficient blocks are morphisms x -> x_a; their adjoints act on e_a
        S = self.ob(y).frame  # isqrt(y) @ col as (S/root) · (S* · col)
        coeffs = (S / self.roots[y]) @ (S.conj().T @ c.col)
        lifted = E.hull_extend(self.gen_objects[y], (x,), coeffs.conj().T)
        return ModuleElement(E.ob(x), y, lifted @ self._columns(y), validate=False)


def _conjugated_coefficients(gens: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Conjugated coefficients of a stack of elements over a stack of
    generators in one fiber: entry (c, j) is conj ⟨e_c, cols[j]⟩ (Frobenius),
    and an entry below 1e-16 in modulus is zero."""
    coeffs = gens.reshape(len(gens), -1) @ cols.reshape(len(cols), -1).conj().T
    coeffs[np.abs(coeffs) < 1e-16] = 0.0
    return coeffs


def conjugate_bimodule(data: BiHilbertData, tol: Tolerance | None = None) -> ConjugateBimodule:
    """Build the conjugate of an imprimitivity bimodule."""
    return ConjugateBimodule(data, tol=tol)


# ---------------------------------------------------------------------------
# Morita witness maps


def morita_target_map(data: BiHilbertData,
                      conj: ConjugateBimodule | None = None) -> BimoduleMap:
    """The map conj(E) ⊗ E -> Yoneda(target) sending ẽ ⊗ f to ⟨e, f⟩.

    In the presentation the component at y is the row of adjoint evaluation
    operators of the conjugate generators, corrected by the extended
    inverse-root of the generator Gram.  It needs no compression: the
    tensor's projection is the extended support, and isqrt · supp = isqrt
    with the extension multiplicative.  Unitary exactly when the bimodule
    is full on the target side.
    """
    E = data.bimodule
    conj = conj if conj is not None else conjugate_bimodule(data)
    dom = tensor_bimodule_bimodule(conj, E)
    cod = yoneda_bimodule(E.target)
    comps = []
    for y in range(E.target.n_objects):
        gens = conj.gens[y]
        objs = conj.gen_objects[y]
        if not gens:
            block = np.zeros((E.target.dim(y), dom.ob(y).total_dim), dtype=np.complex128)
        else:
            block = conj._columns(y).conj().T @ E.hull_extend(objs, objs, conj.isqrt(y))
        comps.append(ModuleOperator(dom.ob(y), cod.ob(y), block, validate=False))
    return BimoduleMap(dom, cod, comps)


def morita_source_map(data: BiHilbertData,
                      conj: ConjugateBimodule | None = None) -> BimoduleMap:
    """The map E ⊗ conj(E) -> Yoneda(source) sending e ⊗ f̃ to the left product.

    The tensor at x is presented on the conjugate fibers over the base
    (z_1, ..., z_n) of E(x), and the i-th block column of E(x)'s projection
    P is a unit u_i at z_i with m = Σ u_i · m_i for every m.  So the
    component at x is the row of left products of each u_i with the
    conjugate generators at z_i, corrected by their inverse root.  It needs
    no compression: Σ_i u_i · P_ij = u_j, so the row is unchanged by the
    tensor's projection.  Unitary exactly when the bimodule is full on the
    source side.
    """
    E = data.bimodule
    src = E.source
    conj = conj if conj is not None else conjugate_bimodule(data)
    dom = tensor_bimodule_bimodule(E, conj)
    cod = yoneda_bimodule(src)
    comps = []
    for x in range(src.n_objects):
        fiber, module = E.ob(x), dom.ob(x)
        row = []
        for z, sl in zip(fiber.base, fiber.slices):
            if conj.gens[z]:
                unit = ModuleElement(fiber, z, fiber.proj[:, sl], validate=False)
                row.append(data.left_product_block([unit], conj.gens[z]) @ conj.isqrt(z))
            else:
                row.append(np.zeros((src.dim(x), conj.ob(z).total_dim), dtype=np.complex128))
        block = np.concatenate(row, axis=1)
        comps.append(ModuleOperator(module, cod.ob(x), block, validate=False))
    return BimoduleMap(dom, cod, comps)


def mat_equivalence(cat: CStarCategory,
                    tol: Tolerance | None = None) -> tuple[MatrixAlgebra, BiHilbertData]:
    """The equivalence bimodule between the matrix algebra and its category.

    The one-object algebra acts on the free module over the full object
    list; the resulting bimodule is faithful, onto compacts and full on both
    sides, so both witness maps are unitary.
    """
    tol = resolve_tol(tol if tol is not None else cat.tol)
    alg = matrix_algebra(cat, tol)
    mor_blocks = {(0, 0): alg.cat.hom_basis(0, 0).copy()}
    E = Bimodule(alg.cat, cat, [_free_module(cat, alg.full_list, tol)], mor_blocks, tol=tol,
                 validate=False)
    data, report = check_imprimitivity(E, tol)
    if data is None or not report.passed:
        raise InvalidInput(f"matrix algebra bimodule failed its own certificate:\n{report}")
    return alg, data


# ---------------------------------------------------------------------------
# the reconstruction map


def eilenberg_watts_map(M: HilbertModule, E: Bimodule,
                        tol: Tolerance | None = None) -> tuple[ModuleOperator, Report]:
    """Comparison map from the tensor product onto the functor value.

    With functors represented as tensoring against a bimodule, the functor
    value on M *is* the projection-presentation tensor product, and the
    comparison map materializes as its identity operator.  The content is in
    the verification: images of simple tensors (built through the action,
    i.e. through the evaluation operators of elements of M) must preserve
    the formula-defined inner products and exhaust every evaluation space.
    """
    tol = resolve_tol(tol if tol is not None else M.tol)
    report = Report(context="eilenberg-watts")
    tensor = tensor_module_bimodule(M, E)
    report.extend(_cross_check(tensor, tol), prefix="reconstruction:")
    op = tensor.module.identity()
    report.extend(unitary_operator_report(op, tol), prefix="comparison:")
    return op, report


class WhiskeredTransform:
    """Extension of a transformation between tensor functors from
    representables to every f.g.p. module."""

    def __init__(self, tau: BimoduleMap, tol: Tolerance | None = None):
        self.tau = tau
        self.tol = resolve_tol(tol if tol is not None else tau.dom.tol)
        natural = tau.verify_natural(self.tol)
        if not natural.passed:
            raise InvalidInput(f"transformation is not natural on representables:\n{natural}")

    def component(self, M: HilbertModule) -> ModuleOperator:
        """Direct extension: block diagonal of components, compressed."""
        dom_t = tensor_module_bimodule(M, self.tau.dom)
        cod_t = tensor_module_bimodule(M, self.tau.cod)
        return _whiskered_component(self.tau, M.base, dom_t.module, cod_t.module)

    def component_via_cover(self, M: HilbertModule, seed: int = 0) -> ModuleOperator:
        """Second route: pull the free-module extension through a random
        co-isometric cover of M; must agree with the direct route."""
        rng = np.random.default_rng(seed)
        base2 = M.base + M.base
        free2 = _free_module(M.cat, base2, M.tol)
        raw = M.proj @ random_block(rng, M.cat, base2, M.base)
        gram = raw @ raw.conj().T
        phi = frac_power(gram, -0.5, M.tol) @ raw
        if op_norm(phi @ phi.conj().T - M.proj) > M.tol.bound(1.0):
            raise NotInvertible("random cover is not co-isometric; retry with another seed")
        cover = ModuleOperator(free2, M, phi, validate=False)

        tau_free = self.component(free2)
        dom_t = tensor_module_bimodule(M, self.tau.dom)
        cod_t = tensor_module_bimodule(M, self.tau.cod)
        lift_dom = self.tau.dom.hull_extend(base2, M.base, cover.block)
        lift_cod = self.tau.cod.hull_extend(base2, M.base, cover.block)
        block = cod_t.module.proj @ lift_cod @ tau_free.block @ lift_dom.conj().T @ dom_t.module.proj
        return ModuleOperator(dom_t.module, cod_t.module, block, validate=False)


def whisker_transform(tau: BimoduleMap, tol: Tolerance | None = None) -> WhiskeredTransform:
    """Extend a natural transformation given on representables to all modules."""
    return WhiskeredTransform(tau, tol=tol)
