"""Multiplier morphisms of a concrete C*-category.

A multiplier from x to y is a pair (L, R) of linear maps
L: hom(x,x) -> hom(x,y) and R: hom(y,y) -> hom(x,y) such that L is a right
module map, R is a left module map, and R(g)∘f = g∘L(f).  The defining
conditions are linear, so each multiplier space is computed exactly as the
null space of a constraint matrix over hom-space coordinates.  In the
unital (finite-dimensional) case the canonical map κ sending a morphism to
(post-, pre-)composition is a bijection onto the multiplier space; the
construction verifies this and the category structure transported through κ.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import InvalidInput
from .linalg import Tolerance, null_space, op_norms, resolve_tol, span_eval, stack_rank
from .category import CStarCategory, Morphism
from .report import Report

__all__ = [
    "MultiplierMorphism",
    "MultiplierArrays",
    "kappa",
    "multiplier_space",
    "MultiplierCategory",
    "multiplier_category",
    "involute_multiplier",
    "compose_multipliers",
    "multiplier_to_arrays",
    "multiplier_from_arrays",
    "multiplier_norm",
    "post_compose_matrix",
    "pre_compose_matrix",
    "star_matrix",
]


def _coordinate_map(basis_in: np.ndarray, basis_out: np.ndarray, image) -> np.ndarray:
    """Coordinates over ``basis_out`` of ``image(basis_in)``, one column per
    element of ``basis_in``: the matrix of a map between hom-spaces."""
    if basis_in.shape[0] == 0 or basis_out.shape[0] == 0:
        return np.zeros((basis_out.shape[0], basis_in.shape[0]), dtype=np.complex128)
    return np.tensordot(basis_out.conj(), image(basis_in), axes=([1, 2], [1, 2]))


def post_compose_matrix(cat: CStarCategory, a: Morphism, w: int) -> np.ndarray:
    """Coordinate matrix of f ↦ a∘f from hom(w, a.src) to hom(w, a.dst)."""
    return _coordinate_map(cat.hom_basis(w, a.src), cat.hom_basis(w, a.dst),
                           lambda basis: np.einsum("ij,kjl->kil", a.mat, basis))


def pre_compose_matrix(cat: CStarCategory, a: Morphism, z: int) -> np.ndarray:
    """Coordinate matrix of g ↦ g∘a from hom(a.dst, z) to hom(a.src, z)."""
    return _coordinate_map(cat.hom_basis(a.dst, z), cat.hom_basis(a.src, z),
                           lambda basis: np.einsum("kij,jl->kil", basis, a.mat))


def star_matrix(cat: CStarCategory, x: int, y: int) -> np.ndarray:
    """Matrix sending hom(x,y) coordinates to hom(y,x) coordinates of adjoints.

    The involution is conjugate linear: coords(m*) = star @ conj(coords(m)).
    """
    return _coordinate_map(cat.hom_basis(x, y), cat.hom_basis(y, x),
                           lambda basis: np.conj(np.transpose(basis, (0, 2, 1))))


def _coordinate_matrix(data, shape: tuple[int, int], what: str) -> np.ndarray:
    """``data`` as a matrix of exactly ``shape``, or from a flat vector of its size."""
    mat = np.asarray(data, dtype=np.complex128)
    if mat.shape not in (shape, (shape[0] * shape[1],)):
        raise InvalidInput(f"{what} has shape {mat.shape}, expected {shape} or a flat vector")
    return mat.reshape(shape)


class MultiplierMorphism:
    """A compatible (L, R) pair stored as coordinate matrices."""

    __slots__ = ("cat", "src", "dst", "L", "R")

    def __init__(self, cat: CStarCategory, src: int, dst: int, L, R):
        self.cat = cat
        self.src = cat.check_object(src)
        self.dst = cat.check_object(dst)
        dxx, dyy, dxy = cat.hom_dim(src, src), cat.hom_dim(dst, dst), cat.hom_dim(src, dst)
        self.L = _coordinate_matrix(L, (dxy, dxx), "L")
        self.R = _coordinate_matrix(R, (dxy, dyy), "R")

    def apply_L(self, f: Morphism) -> Morphism:
        if (f.src, f.dst) != (self.src, self.src):
            raise InvalidInput("L acts on endomorphisms of the source")
        return self.cat.hom_element(self.src, self.dst,
                                    self.L @ self.cat.hom_coords(self.src, self.src, f.mat))

    def apply_R(self, g: Morphism) -> Morphism:
        if (g.src, g.dst) != (self.dst, self.dst):
            raise InvalidInput("R acts on endomorphisms of the target")
        return self.cat.hom_element(self.src, self.dst,
                                    self.R @ self.cat.hom_coords(self.dst, self.dst, g.mat))

    def vec(self) -> np.ndarray:
        return np.concatenate([self.L.ravel(), self.R.ravel()])

    def __repr__(self) -> str:
        return f"MultiplierMorphism({self.src} -> {self.dst})"


def kappa(cat: CStarCategory, a: Morphism) -> MultiplierMorphism:
    """The canonical multiplier (post-composition, pre-composition) of ``a``."""
    L = post_compose_matrix(cat, a, a.src)
    R = pre_compose_matrix(cat, a, a.dst)
    return MultiplierMorphism(cat, a.src, a.dst, L, R)


def _composition_coords(cat: CStarCategory, x: int) -> np.ndarray:
    """coords(f_i ∘ f_j) for the basis of hom(x,x); shape (k, k, k)."""
    basis = cat.hom_basis(x, x)
    k = basis.shape[0]
    if k == 0:
        return np.zeros((0, 0, 0), dtype=np.complex128)
    prods = np.einsum("iab,jbc->ijac", basis, basis)
    return np.tensordot(prods, basis.conj(), axes=([2, 3], [1, 2]))


def multiplier_space(cat: CStarCategory, x: int, y: int,
                     tol: Tolerance | None = None) -> list[MultiplierMorphism]:
    """Orthonormal basis of the space of multipliers from x to y.

    Solved exactly as the null space (``linalg.null_space``, rank by
    ``numerical_rank``) of the linear system expressing the two module-map laws and
    the compatibility law on hom-space basis elements.
    """
    tol = resolve_tol(tol if tol is not None else cat.tol)
    dxx, dyy, dxy = cat.hom_dim(x, x), cat.hom_dim(y, y), cat.hom_dim(x, y)
    if dxy == 0:
        return []
    pre_f = np.stack([
        pre_compose_matrix(cat, cat.morphism(x, x, f, validate=False), y)
        for f in cat.hom_basis(x, x)
    ]) if dxx else np.zeros((0, dxy, dxy))
    post_g = np.stack([
        post_compose_matrix(cat, cat.morphism(y, y, g, validate=False), x)
        for g in cat.hom_basis(y, y)
    ]) if dyy else np.zeros((0, dxy, dxy))
    comp_xx = _composition_coords(cat, x)
    comp_yy = _composition_coords(cat, y)

    eye_xy = np.eye(dxy)
    # L(f_i ∘ f_j) = L(f_i) ∘ f_j
    m1 = np.einsum("ac,ijb->ijacb", eye_xy, comp_xx) \
        - np.einsum("jac,ib->ijacb", pre_f, np.eye(dxx))
    # R(g_i ∘ g_j) = g_i ∘ R(g_j)
    m2 = np.einsum("ac,ijb->ijacb", eye_xy, comp_yy) \
        - np.einsum("iac,jb->ijacb", post_g, np.eye(dyy))
    # R(g_i) ∘ f_j = g_i ∘ L(f_j)
    m3_l = -np.einsum("iac,jb->ijacb", post_g, np.eye(dxx))
    m3_r = np.einsum("jac,ib->ijacb", pre_f, np.eye(dyy))

    n_l, n_r = dxy * dxx, dxy * dyy
    rows_1, rows_2, rows_3 = dxx * dxx * dxy, dyy * dyy * dxy, dyy * dxx * dxy
    system = np.block([
        [m1.reshape(rows_1, n_l), np.zeros((rows_1, n_r))],
        [np.zeros((rows_2, n_l)), m2.reshape(rows_2, n_r)],
        [m3_l.reshape(rows_3, n_l), m3_r.reshape(rows_3, n_r)],
    ])
    null, _ = null_space(system, tol)
    return [MultiplierMorphism(cat, x, y, vec[:n_l], vec[n_l:]) for vec in null]


class MultiplierCategory:
    """Multiplier spaces of every hom-pair plus the canonical embedding κ."""

    def __init__(self, cat: CStarCategory, tol: Tolerance | None = None):
        self.cat = cat
        self.tol = resolve_tol(tol if tol is not None else cat.tol)
        self.spaces: dict[tuple[int, int], list[MultiplierMorphism]] = {}
        for x in range(cat.n_objects):
            for y in range(cat.n_objects):
                self.spaces[(x, y)] = multiplier_space(cat, x, y, self.tol)

    def dim(self, x: int, y: int) -> int:
        return len(self.spaces[self.cat.check_object(x), self.cat.check_object(y)])

    def kappa(self, a: Morphism) -> MultiplierMorphism:
        return kappa(self.cat, a)

    def kappa_inverse(self, m: MultiplierMorphism) -> Morphism:
        """Recover the morphism a with m = κ(a); unital case: a = L(id)."""
        return m.apply_L(self.cat.unit(m.src))

    def verify(self) -> Report:
        """Unital collapse: κ is a linear bijection onto each multiplier space.

        Injectivity is ``stack_rank`` of the stacked vectors (L, R) of κ
        on an orthonormal hom basis.  L and R are coordinate matrices of
        composition with a morphism of norm at most 1, so each vector has
        norm at most sqrt(dim hom(x, x) + dim hom(y, y)); the cut at ``atol``
        is absolute, not relative to that scale.
        """
        report = Report(context="multiplier-category")
        dim_gap = 0
        inject_gap = 0
        range_res = 0.0
        for x in range(self.cat.n_objects):
            for y in range(self.cat.n_objects):
                dxy = self.cat.hom_dim(x, y)
                space = self.spaces[(x, y)]
                dim_gap = max(dim_gap, abs(len(space) - dxy))
                if dxy == 0:
                    continue
                kappa_vecs = np.stack([
                    self.kappa(self.cat.morphism(x, y, b, validate=False)).vec()
                    for b in self.cat.hom_basis(x, y)
                ])
                inject_gap = max(inject_gap, dxy - stack_rank(kappa_vecs, self.tol))
                if space:
                    null_mat = np.stack([m.vec() for m in space])
                    q, _ = np.linalg.qr(null_mat.T)
                    proj = q @ q.conj().T
                    for vec in kappa_vecs:
                        res = np.linalg.norm(vec - proj @ vec) / max(np.linalg.norm(vec), 1.0)
                        range_res = max(range_res, float(res))
        report.add("dimension-match", float(dim_gap), 0.5)
        report.add("kappa-injective", float(inject_gap), 0.5)
        report.add("kappa-onto", range_res, self.tol.bound(1.0))
        return report


def multiplier_category(cat: CStarCategory, tol: Tolerance | None = None) -> MultiplierCategory:
    """Compute every multiplier space of ``cat`` together with κ."""
    return MultiplierCategory(cat, tol=tol)


def involute_multiplier(m: MultiplierMorphism) -> MultiplierMorphism:
    """The adjoint multiplier: L*(g) = R(g*)*, R*(f) = L(f*)*."""
    cat = m.cat
    star_out = star_matrix(cat, m.src, m.dst)
    star_yy = star_matrix(cat, m.dst, m.dst)
    star_xx = star_matrix(cat, m.src, m.src)
    L_star = star_out @ np.conj(m.R) @ np.conj(star_yy)
    R_star = star_out @ np.conj(m.L) @ np.conj(star_xx)
    return MultiplierMorphism(cat, m.dst, m.src, L_star, R_star)


class MultiplierArrays:
    """The array form: per-object maps L_w: hom(w,x)->hom(w,y) and
    R_z: hom(y,z)->hom(x,z), stored as coordinate matrices."""

    def __init__(self, cat: CStarCategory, src: int, dst: int, L_maps, R_maps):
        self.cat = cat
        self.src = x = cat.check_object(src)
        self.dst = y = cat.check_object(dst)
        objs = range(cat.n_objects)
        self.L_maps = _per_object(L_maps, "L", {
            w: (cat.hom_dim(w, y), cat.hom_dim(w, x)) for w in objs})
        self.R_maps = _per_object(R_maps, "R", {
            z: (cat.hom_dim(x, z), cat.hom_dim(y, z)) for z in objs})


def _per_object(maps, side: str, shapes: dict) -> dict:
    """One coordinate matrix for every object, of the shape ``shapes`` gives it."""
    if set(maps) != set(shapes):
        raise InvalidInput(f"{side} maps are given for {list(maps)}, not for each object once")
    return {obj: _coordinate_matrix(maps[obj], shape, f"{side} map at object {obj}")
            for obj, shape in shapes.items()}


def multiplier_to_arrays(m: MultiplierMorphism) -> MultiplierArrays:
    """The per-object arrays of a single-variable multiplier.

    Every f ∈ hom(w,x) is e_x∘f with e_x the unit of hom(x,x), and L is a
    right module map, so L_w(f) = L(e_x)∘f; mirrored, R_z(g) = g∘R(e_y).
    """
    cat, x, y = m.cat, m.src, m.dst
    left = m.apply_L(cat.unit(x))
    right = m.apply_R(cat.unit(y))
    L_maps = {w: post_compose_matrix(cat, left, w) for w in range(cat.n_objects)}
    R_maps = {z: pre_compose_matrix(cat, right, z) for z in range(cat.n_objects)}
    return MultiplierArrays(cat, x, y, L_maps, R_maps)


def _map_stack(cat: CStarCategory, M: np.ndarray, dom: tuple[int, int],
               cod: tuple[int, int], mats: np.ndarray) -> np.ndarray:
    """Images of a (..., r, c) stack in hom(*dom) under the coordinate matrix
    M: hom(*dom) -> hom(*cod)."""
    return span_eval(cat.hom_coords(*dom, mats) @ M.T, cat.hom_basis(*cod))


def _law_residual(arrays: MultiplierArrays) -> tuple[float, float]:
    """Worst residual of the array laws on pairs of hom-basis elements, and
    the largest norm of either side.  Per object pair (a, b), one stack each:
    L_a(f)∘h = L_b(f∘h), h∘R_a(g) = R_b(h∘g) and R_b(g)∘f = g∘L_a(f)."""
    cat, x, y = arrays.cat, arrays.src, arrays.dst
    L, R = arrays.L_maps, arrays.R_maps
    objs = range(cat.n_objects)
    Lf = {w: _map_stack(cat, L[w], (w, x), (w, y), cat.hom_basis(w, x)) for w in objs}
    Rg = {z: _map_stack(cat, R[z], (y, z), (x, z), cat.hom_basis(y, z)) for z in objs}
    worst = scale = 0.0
    for a, b in product(objs, repeat=2):
        f, h = cat.hom_basis(a, x)[:, None], cat.hom_basis(b, a)[None]
        law_l = (Lf[a][:, None] @ h, _map_stack(cat, L[b], (b, x), (b, y), f @ h))
        g, h = cat.hom_basis(y, a)[:, None], cat.hom_basis(a, b)[None]
        law_r = (h @ Rg[a][:, None], _map_stack(cat, R[b], (y, b), (x, b), h @ g))
        f, g = cat.hom_basis(a, x)[None], cat.hom_basis(y, b)[:, None]
        law_lr = (Rg[b][:, None] @ f, g @ Lf[a][None])
        for lhs, rhs in (law_l, law_r, law_lr):
            norms = op_norms(np.stack([lhs - rhs, lhs, rhs]))
            worst = max(worst, norms[0].max(initial=0.0))
            scale = max(scale, norms[1:].max(initial=0.0))
    return float(worst), float(scale)


def multiplier_from_arrays(cat: CStarCategory, src: int, dst: int, L_maps, R_maps,
                           tol: Tolerance | None = None) -> MultiplierMorphism:
    """Validate an array family (its laws within ``tol``, ``_law_residual``)
    and restrict it to a single-variable multiplier."""
    tol = resolve_tol(tol if tol is not None else cat.tol)
    arrays = MultiplierArrays(cat, src, dst, L_maps, R_maps)
    worst, scale = _law_residual(arrays)
    if worst > tol.bound(scale):
        raise InvalidInput(f"arrays violate the multiplier laws (residual {worst:.3e})")
    x, y = arrays.src, arrays.dst
    return MultiplierMorphism(cat, x, y, arrays.L_maps[x], arrays.R_maps[y])


def compose_multipliers(outer: MultiplierMorphism,
                        inner: MultiplierMorphism) -> MultiplierMorphism:
    """Composite multiplier via the array form: (L∘L', R'∘R) componentwise."""
    if outer.cat is not inner.cat or inner.dst != outer.src:
        raise InvalidInput("multipliers do not compose")
    w, y = inner.src, outer.dst
    L = multiplier_to_arrays(outer).L_maps[w] @ inner.L
    R = multiplier_to_arrays(inner).R_maps[y] @ outer.R
    return MultiplierMorphism(outer.cat, w, y, L, R)


def multiplier_norm(m: MultiplierMorphism) -> float:
    """Norm of a multiplier via its action, ``sup ||L(f)|| / ||f||``.

    In the unital case the supremum is attained at the unit: L(f) = L(e)∘f
    gives ||L(f)|| <= ||L(e)|| ||f||, and ||e|| = 1.
    """
    return m.apply_L(m.cat.unit(m.src)).norm()
