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

import numpy as np

from .errors import InvalidInput
from .linalg import Tolerance, null_space, op_norm, resolve_tol
from .category import CStarCategory, Morphism, cofactorize, compose, factorize
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


def post_compose_matrix(cat: CStarCategory, a: Morphism, w: int) -> np.ndarray:
    """Coordinate matrix of f ↦ a∘f from hom(w, a.src) to hom(w, a.dst)."""
    basis_in = cat.hom_basis(w, a.src)
    basis_out = cat.hom_basis(w, a.dst)
    if basis_in.shape[0] == 0 or basis_out.shape[0] == 0:
        return np.zeros((basis_out.shape[0], basis_in.shape[0]), dtype=np.complex128)
    prods = np.einsum("ij,kjl->kil", a.mat, basis_in)
    return np.tensordot(basis_out.conj(), prods, axes=([1, 2], [1, 2]))


def pre_compose_matrix(cat: CStarCategory, a: Morphism, z: int) -> np.ndarray:
    """Coordinate matrix of g ↦ g∘a from hom(a.dst, z) to hom(a.src, z)."""
    basis_in = cat.hom_basis(a.dst, z)
    basis_out = cat.hom_basis(a.src, z)
    if basis_in.shape[0] == 0 or basis_out.shape[0] == 0:
        return np.zeros((basis_out.shape[0], basis_in.shape[0]), dtype=np.complex128)
    prods = np.einsum("kij,jl->kil", basis_in, a.mat)
    return np.tensordot(basis_out.conj(), prods, axes=([1, 2], [1, 2]))


def star_matrix(cat: CStarCategory, x: int, y: int) -> np.ndarray:
    """Matrix sending hom(x,y) coordinates to hom(y,x) coordinates of adjoints.

    The involution is conjugate linear: coords(m*) = star @ conj(coords(m)).
    """
    basis_in = cat.hom_basis(x, y)
    basis_out = cat.hom_basis(y, x)
    if basis_in.shape[0] == 0 or basis_out.shape[0] == 0:
        return np.zeros((basis_out.shape[0], basis_in.shape[0]), dtype=np.complex128)
    adjs = np.conj(np.transpose(basis_in, (0, 2, 1)))
    return np.tensordot(basis_out.conj(), adjs, axes=([1, 2], [1, 2]))


class MultiplierMorphism:
    """A compatible (L, R) pair stored as coordinate matrices."""

    __slots__ = ("cat", "src", "dst", "L", "R")

    def __init__(self, cat: CStarCategory, src: int, dst: int, L, R):
        self.cat = cat
        self.src = cat.check_object(src)
        self.dst = cat.check_object(dst)
        dxx, dyy, dxy = cat.hom_dim(src, src), cat.hom_dim(dst, dst), cat.hom_dim(src, dst)
        self.L = np.asarray(L, dtype=np.complex128).reshape(dxy, dxx)
        self.R = np.asarray(R, dtype=np.complex128).reshape(dxy, dyy)

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

    Solved exactly as the null space (``linalg.null_space``, cutoff
    ``tol.atol``) of the linear system expressing the two module-map laws and
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
        return len(self.spaces[(x, y)])

    def kappa(self, a: Morphism) -> MultiplierMorphism:
        return kappa(self.cat, a)

    def kappa_inverse(self, m: MultiplierMorphism) -> Morphism:
        """Recover the morphism a with m = κ(a); unital case: a = L(id)."""
        return m.apply_L(self.cat.unit(m.src))

    def verify(self) -> Report:
        """Unital collapse: κ is a linear bijection onto each multiplier space."""
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
                rank = np.linalg.matrix_rank(kappa_vecs, tol=self.tol.atol)
                inject_gap = max(inject_gap, dxy - int(rank))
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
        self.src = src
        self.dst = dst
        self.L_maps = {int(w): np.asarray(mat, dtype=np.complex128) for w, mat in L_maps.items()}
        self.R_maps = {int(z): np.asarray(mat, dtype=np.complex128) for z, mat in R_maps.items()}


def multiplier_to_arrays(m: MultiplierMorphism, tol: Tolerance | None = None) -> MultiplierArrays:
    """Reconstruct the per-object arrays from a single-variable multiplier.

    Uses the factorization trick: f ∈ hom(w,x) splits as f = s∘t with s an
    endomorphism of x, and L_w(f) := L(s)∘t (likewise for R with the
    mirrored factorization).
    """
    cat = m.cat
    tol = resolve_tol(tol if tol is not None else cat.tol)
    x, y = m.src, m.dst
    L_maps = {}
    R_maps = {}
    for w in range(cat.n_objects):
        k_in = cat.hom_dim(w, x)
        k_out = cat.hom_dim(w, y)
        cols = np.zeros((k_out, k_in), dtype=np.complex128)
        for i, f in enumerate(cat.hom_basis(w, x)):
            s, t = cofactorize(cat.morphism(w, x, f, validate=False), tol)
            img = compose(m.apply_L(s), t, validate=False)
            cols[:, i] = cat.hom_coords(w, y, img.mat)
        L_maps[w] = cols
    for z in range(cat.n_objects):
        k_in = cat.hom_dim(y, z)
        k_out = cat.hom_dim(x, z)
        cols = np.zeros((k_out, k_in), dtype=np.complex128)
        for i, g in enumerate(cat.hom_basis(y, z)):
            v, w_end = factorize(cat.morphism(y, z, g, validate=False), tol)
            img = compose(v, m.apply_R(w_end), validate=False)
            cols[:, i] = cat.hom_coords(x, z, img.mat)
        R_maps[z] = cols
    return MultiplierArrays(cat, x, y, L_maps, R_maps)


def multiplier_from_arrays(cat: CStarCategory, src: int, dst: int, L_maps, R_maps,
                           tol: Tolerance | None = None) -> MultiplierMorphism:
    """Validate an array family and restrict it to a single-variable multiplier.

    The three compatibility laws are checked on hom-basis samples:
    L_w(f)∘h = L_w'(f∘h), h∘R_z(f) = R_z'(h∘f), and R_z(g)∘f = g∘L_w(f).
    """
    tol = resolve_tol(tol if tol is not None else cat.tol)
    arrays = MultiplierArrays(cat, src, dst, L_maps, R_maps)
    x, y = arrays.src, arrays.dst

    def l_apply(w, f_mat):
        return cat.hom_element(w, y, arrays.L_maps[w] @ cat.hom_coords(w, x, f_mat))

    def r_apply(z, g_mat):
        return cat.hom_element(x, z, arrays.R_maps[z] @ cat.hom_coords(y, z, g_mat))

    samples = []  # (lhs, rhs) of each law on each pair of basis elements
    for w in range(cat.n_objects):
        for wp in range(cat.n_objects):
            for f in cat.hom_basis(w, x):
                lf = l_apply(w, f).mat
                for h in cat.hom_basis(wp, w):
                    samples.append((lf @ h, l_apply(wp, f @ h).mat))
    for z in range(cat.n_objects):
        for zp in range(cat.n_objects):
            for f in cat.hom_basis(y, z):
                rf = r_apply(z, f).mat
                for h in cat.hom_basis(z, zp):
                    samples.append((h @ rf, r_apply(zp, h @ f).mat))
    for w in range(cat.n_objects):
        for z in range(cat.n_objects):
            for f in cat.hom_basis(w, x):
                for g in cat.hom_basis(y, z):
                    samples.append((r_apply(z, g).mat @ f, g @ l_apply(w, f).mat))
    worst = max((op_norm(lhs - rhs) for lhs, rhs in samples), default=0.0)
    scale = max((max(op_norm(lhs), op_norm(rhs)) for lhs, rhs in samples), default=0.0)
    if worst > tol.bound(scale):
        raise InvalidInput(f"arrays violate the multiplier laws (residual {worst:.3e})")
    return MultiplierMorphism(cat, x, y, arrays.L_maps[x], arrays.R_maps[y])


def compose_multipliers(outer: MultiplierMorphism, inner: MultiplierMorphism,
                        tol: Tolerance | None = None) -> MultiplierMorphism:
    """Composite multiplier via the array form: (L∘L', R'∘R) componentwise."""
    if outer.cat is not inner.cat or inner.dst != outer.src:
        raise InvalidInput("multipliers do not compose")
    cat = outer.cat
    outer_arrays = multiplier_to_arrays(outer, tol)
    inner_arrays = multiplier_to_arrays(inner, tol)
    w, y = inner.src, outer.dst
    L = outer_arrays.L_maps[w] @ inner.L
    R = inner_arrays.R_maps[y] @ outer.R
    return MultiplierMorphism(cat, w, y, L, R)


def multiplier_norm(m: MultiplierMorphism, probes: int = 16, seed: int = 0) -> float:
    """Norm of a multiplier via its action, ``sup ||L(f)|| / ||f||``.

    In the unital case the supremum is attained at the unit, which is always
    included among the probes.
    """
    cat = m.cat
    rng = np.random.default_rng(seed)
    best = 0.0
    candidates = [cat.unit(m.src)]
    for _ in range(probes):
        candidates.append(cat.random_morphism(rng, m.src, m.src))
    for f in candidates:
        nf = f.norm()
        if nf <= cat.tol.atol:
            continue
        best = max(best, m.apply_L(f).norm() / nf)
    return best
