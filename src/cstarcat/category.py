"""Concrete C*-categories of complex matrices and their basic constructions.

A category here is a finite object list with per-object dimensions plus, for
every ordered pair of objects, a Frobenius-orthonormal basis of a matrix
subspace.  Closure under composition and involution, presence of units, the
C*-identity and the positivity of spectra are *verified properties* of the
data, not type guarantees: ``verify_category`` completes the contract for
user-supplied generators.

Also in this module: factorization and polar decomposition of morphisms, the
additive hull (finite object lists with block matrices and the column-sup
norm), the one-object matrix algebra, the idempotent completion, and
C*-functors with their verification.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ClosureViolation, CompositionMismatch, InvalidInput, NotInvertible
from .linalg import (
    Tolerance,
    as_cmatrix,
    block_eigvalsh,
    frac_power,
    frobenius_norm,
    min_herm_eig,
    op_norm,
    op_norms,
    orthonormal_span,
    psd_eigh,
    resolve_tol,
    span_coords,
    span_eval,
    spectral_power,
)
from .report import Report

__all__ = [
    "CStarCategory",
    "Morphism",
    "CStarFunctor",
    "compose",
    "involute",
    "verify_category",
    "verify_functor",
    "identity_functor",
    "factorize",
    "cofactorize",
    "polar_unitary",
    "AdditiveHull",
    "additive_hull",
    "column_sup_norm",
    "MatrixAlgebra",
    "matrix_algebra",
    "IdempotentCompletion",
    "idempotent_completion",
    "list_dim",
    "block_slices",
    "block_project",
    "block_residual",
    "block_basis_stack",
    "random_block",
]


def _check_pair_keys(mapping, n: int, what: str) -> None:
    """Reject keys of a (src, dst)-indexed mapping that name no object pair."""
    for key in mapping if mapping is not None else ():
        pair = key if isinstance(key, tuple) and len(key) == 2 else ()
        if not pair or not all(isinstance(v, (int, np.integer)) and 0 <= v < n for v in pair):
            raise InvalidInput(f"{what} key {key!r} is not a pair of object indices below {n}")


class CStarCategory:
    """Finite object set with *-closed matrix hom-spaces.

    Parameters
    ----------
    objects : sequence of (label, dim)
        Object table; every dimension must be a positive integer.
    homs : mapping (src, dst) -> sequence of matrices
        Generators of each hom-space, each of shape (dim(dst), dim(src)).
        Missing pairs default to the zero space; a key that is not a pair
        of object indices raises ``InvalidInput``.  Generators are
        orthonormalized (Frobenius) at ingestion unless
        ``assume_orthonormal`` is set.
    tol : Tolerance, optional
        Default tolerance for all membership and verification decisions.
    """

    def __init__(self, objects, homs, tol=None, assume_orthonormal=False):
        tol = resolve_tol(tol)
        self.tol = tol
        self._row_plans: dict[tuple, dict[int, _Rows]] = {}  # see _object_rows
        self._labels: list[str] = []
        self._dims: list[int] = []
        for label, dim in objects:
            dim = int(dim)
            if dim <= 0:
                raise InvalidInput(f"object {label!r} has non-positive dimension {dim}")
            self._labels.append(str(label))
            self._dims.append(dim)
        if not self._dims:
            raise InvalidInput("a category needs at least one object")
        n = len(self._dims)
        _check_pair_keys(homs, n, "hom")
        self._basis: dict[tuple[int, int], np.ndarray] = {}
        for x in range(n):
            for y in range(n):
                dy, dx = self._dims[y], self._dims[x]
                gens = homs.get((x, y)) if homs is not None else None
                if gens is None or len(gens) == 0:
                    self._basis[(x, y)] = np.zeros((0, dy, dx), dtype=np.complex128)
                    continue
                stack = np.stack([as_cmatrix(g, dy, dx) for g in gens])
                if assume_orthonormal:
                    # trusted verbatim; verify_category reports the residual
                    self._basis[(x, y)] = stack
                else:
                    basis = orthonormal_span(stack, tol)
                    if basis.shape[0] == 0:
                        basis = np.zeros((0, dy, dx), dtype=np.complex128)
                    self._basis[(x, y)] = basis

    # -- object table ------------------------------------------------------

    @property
    def n_objects(self) -> int:
        return len(self._dims)

    @property
    def objects(self) -> list[tuple[str, int]]:
        return list(zip(self._labels, self._dims))

    def dim(self, x: int) -> int:
        return self._dims[x]

    def label(self, x: int) -> str:
        return self._labels[x]

    def check_object(self, x: int) -> int:
        if not 0 <= x < self.n_objects:
            raise InvalidInput(f"object index {x} out of range")
        return x

    # -- hom-spaces --------------------------------------------------------

    def hom_basis(self, x: int, y: int) -> np.ndarray:
        """Orthonormal basis stack of hom(x, y), shape (k, dim(y), dim(x))."""
        return self._basis[(self.check_object(x), self.check_object(y))]

    def hom_dim(self, x: int, y: int) -> int:
        return self.hom_basis(x, y).shape[0]

    def hom_project(self, x: int, y: int, mat) -> np.ndarray:
        """Orthogonal projection onto hom(x, y) of one matrix or a stack."""
        return span_eval(self.hom_coords(x, y, mat), self.hom_basis(x, y))

    def hom_residual(self, x: int, y: int, mat) -> float | np.ndarray:
        """Frobenius distance from hom(x, y): a float for one matrix, an
        array over the leading axes for a stack."""
        arr = np.asarray(mat, dtype=np.complex128)
        return np.linalg.norm(arr - self.hom_project(x, y, arr), axis=(-2, -1))

    def hom_coords(self, x: int, y: int, mat) -> np.ndarray:
        """Coordinates against the basis of hom(x, y).

        ``mat`` is one matrix of shape (dim(y), dim(x)) or a stack
        (..., dim(y), dim(x)); the result has shape (..., hom_dim(x, y)).
        """
        basis = self.hom_basis(x, y)
        arr = np.asarray(mat, dtype=np.complex128)
        if arr.shape[-2:] != basis.shape[1:]:
            raise InvalidInput(f"expected a stack of {basis.shape[1:]} matrices, "
                               f"got shape {arr.shape}")
        return span_coords(arr, basis)

    def hom_element(self, x: int, y: int, coords) -> "Morphism":
        return Morphism(self, x, y, span_eval(coords, self.hom_basis(x, y)), validate=False)

    # -- morphisms ---------------------------------------------------------

    def morphism(self, src: int, dst: int, mat, validate: bool = True) -> "Morphism":
        return Morphism(self, src, dst, mat, validate=validate)

    def unit(self, x: int) -> "Morphism":
        d = self.dim(self.check_object(x))
        return Morphism(self, x, x, np.eye(d, dtype=np.complex128), validate=False)

    def zero(self, x: int, y: int) -> "Morphism":
        return Morphism(
            self, x, y, np.zeros((self.dim(y), self.dim(x)), dtype=np.complex128), validate=False
        )

    def random_morphism(self, rng: np.random.Generator, x: int, y: int) -> "Morphism":
        basis = self.hom_basis(x, y)
        k = basis.shape[0]
        if k == 0:
            return self.zero(x, y)
        coords = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2 * k)
        return self.hom_element(x, y, coords)

    def __repr__(self) -> str:
        objs = ", ".join(f"{l}:{d}" for l, d in zip(self._labels, self._dims))
        return f"CStarCategory({objs})"


class Morphism:
    """A (source, target, matrix) triple constrained to lie in a hom-space."""

    __slots__ = ("cat", "src", "dst", "mat")

    def __init__(self, cat: CStarCategory, src: int, dst: int, mat, validate: bool = True):
        self.cat = cat
        self.src = cat.check_object(src)
        self.dst = cat.check_object(dst)
        self.mat = as_cmatrix(mat, cat.dim(dst), cat.dim(src))
        if validate:
            res = cat.hom_residual(src, dst, self.mat)
            if res > cat.tol.bound(frobenius_norm(self.mat)):
                raise ClosureViolation(
                    f"matrix is not in the span of hom({src},{dst}); residual {res:.3e}"
                )

    def adjoint(self) -> "Morphism":
        return Morphism(self.cat, self.dst, self.src, self.mat.conj().T, validate=False)

    def norm(self) -> float:
        return op_norm(self.mat)

    def __matmul__(self, other: "Morphism") -> "Morphism":
        return compose(self, other)

    def __add__(self, other: "Morphism") -> "Morphism":
        if (other.src, other.dst) != (self.src, self.dst):
            raise CompositionMismatch("can only add parallel morphisms")
        return Morphism(self.cat, self.src, self.dst, self.mat + other.mat, validate=False)

    def __sub__(self, other: "Morphism") -> "Morphism":
        if (other.src, other.dst) != (self.src, self.dst):
            raise CompositionMismatch("can only subtract parallel morphisms")
        return Morphism(self.cat, self.src, self.dst, self.mat - other.mat, validate=False)

    def __mul__(self, scalar) -> "Morphism":
        return Morphism(self.cat, self.src, self.dst, self.mat * complex(scalar), validate=False)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return (
            f"Morphism({self.cat.label(self.src)} -> {self.cat.label(self.dst)}, "
            f"norm={self.norm():.4g})"
        )


def compose(f: Morphism, g: Morphism, validate: bool = True) -> Morphism:
    """The composite ``f after g``; requires ``g.dst == f.src``."""
    if f.cat is not g.cat:
        raise CompositionMismatch("morphisms live in different categories")
    if g.dst != f.src:
        raise CompositionMismatch(
            f"cannot compose: inner objects differ ({g.dst} vs {f.src})"
        )
    return Morphism(f.cat, g.src, f.dst, f.mat @ g.mat, validate=validate)


def involute(f: Morphism) -> Morphism:
    """Conjugate-transpose with source and target swapped."""
    return f.adjoint()


# ---------------------------------------------------------------------------
# verification


def verify_category(cat: CStarCategory, tol: Tolerance | None = None,
                    samples: int = 2, seed: int = 0) -> Report:
    """Check the axioms of a concrete C*-category on the stored data.

    Residuals reported: hom-basis orthonormality, unit membership,
    involution closure, composition closure, the C*-identity and spectrum
    positivity on sampled elements.
    """
    tol = resolve_tol(tol if tol is not None else cat.tol)
    rng = np.random.default_rng(seed)
    report = Report(context="category")
    n = cat.n_objects

    ortho = 0.0
    for x in range(n):
        for y in range(n):
            basis = cat.hom_basis(x, y)
            k = basis.shape[0]
            if k == 0:
                continue
            gram = np.tensordot(basis.conj(), basis, axes=([1, 2], [1, 2]))
            ortho = max(ortho, op_norm(gram - np.eye(k)))
    report.add("hom-orthonormality", ortho, tol.bound(1.0))

    # closure residuals: the largest Frobenius distance of any element of
    # a stack (units, adjoints of a basis, products of two bases)
    unit_res = max(float(cat.hom_residual(x, x, np.eye(cat.dim(x)))) for x in range(n))
    report.add("unit-membership", unit_res, tol.bound(np.sqrt(max(cat.dim(x) for x in range(n)))))

    inv_res = 0.0
    for x in range(n):
        for y in range(n):
            adjoints = cat.hom_basis(x, y).conj().swapaxes(-1, -2)
            inv_res = max(inv_res, np.max(cat.hom_residual(y, x, adjoints), initial=0.0))
    report.add("involution-closure", float(inv_res), tol.bound(1.0))

    comp_res = 0.0
    for x in range(n):
        for y in range(n):
            for z in range(n):
                prods = cat.hom_basis(y, z)[:, None] @ cat.hom_basis(x, y)[None]
                comp_res = max(comp_res, np.max(cat.hom_residual(x, z, prods), initial=0.0))
    report.add("composition-closure", float(comp_res), tol.bound(1.0))

    cstar_res = 0.0
    spec_res = 0.0
    for x in range(n):
        for y in range(n):
            if cat.hom_dim(x, y) == 0:
                continue
            for _ in range(samples):
                a = cat.random_morphism(rng, x, y)
                gram = a.mat.conj().T @ a.mat
                na = op_norm(a.mat)
                cstar_res = max(cstar_res, abs(op_norm(gram) - na**2) / max(na**2, 1.0))
                spec_res = max(spec_res, max(-min_herm_eig(gram), 0.0) / max(na**2, 1.0))
    report.add("cstar-identity", cstar_res, tol.bound(1.0))
    report.add("spectrum-positivity", spec_res, tol.bound(1.0))
    return report


# ---------------------------------------------------------------------------
# factorization and polar decomposition


def factorize(u: Morphism, tol: Tolerance | None = None) -> tuple[Morphism, Morphism]:
    """Split ``u = v  w`` with ``w = (u*u)^(1/4)`` an endomorphism of the source.

    ``v`` is ``u`` times the Moore-Penrose quarter-inverse of ``u*u``; both
    factors are validated against their hom-spans.
    """
    tol = resolve_tol(tol if tol is not None else u.cat.tol)
    spectrum = psd_eigh(u.mat.conj().T @ u.mat, tol)
    w_mat = spectral_power(*spectrum, 0.25)
    v_mat = u.mat @ spectral_power(*spectrum, -0.25)
    v = Morphism(u.cat, u.src, u.dst, v_mat)
    w = Morphism(u.cat, u.src, u.src, w_mat)
    return v, w


def cofactorize(u: Morphism, tol: Tolerance | None = None) -> tuple[Morphism, Morphism]:
    """Mirrored split ``u = s  t`` with ``s`` an endomorphism of the target."""
    v, w = factorize(involute(u), tol)
    return involute(w), involute(v)


def polar_unitary(a: Morphism, tol: Tolerance | None = None) -> Morphism:
    """Unitary part ``a (a*a)^(-1/2)`` of an invertible morphism."""
    tol = resolve_tol(tol if tol is not None else a.cat.tol)
    if a.mat.shape[0] != a.mat.shape[1]:
        raise NotInvertible("polar unitary needs equal source and target dimensions")
    svals = np.linalg.svd(a.mat, compute_uv=False)
    if svals.size == 0 or svals[-1] <= tol.atol:
        raise NotInvertible("morphism is not invertible at the configured cutoff")
    u_mat = a.mat @ frac_power(a.mat.conj().T @ a.mat, -0.5, tol)
    return Morphism(a.cat, a.src, a.dst, u_mat)


# ---------------------------------------------------------------------------
# C*-functors


class CStarFunctor:
    """Linear *-preserving functor between concrete C*-categories.

    ``action[(x, y)]`` holds the images of the source basis of hom(x, y) as a
    stack of matrices over the target; the functor extends complex-linearly.
    """

    def __init__(self, source: CStarCategory, target: CStarCategory,
                 object_map, action):
        self.source = source
        self.target = target
        self.object_map = tuple(target.check_object(int(v)) for v in object_map)
        if len(self.object_map) != source.n_objects:
            raise InvalidInput("object map must cover every source object")
        _check_pair_keys(action, source.n_objects, "action")
        self._action: dict[tuple[int, int], np.ndarray] = {}
        for x in range(source.n_objects):
            for y in range(source.n_objects):
                k = source.hom_dim(x, y)
                fx, fy = self.object_map[x], self.object_map[y]
                dy, dx = target.dim(fy), target.dim(fx)
                imgs = action.get((x, y)) if action is not None else None
                if imgs is None:
                    if k != 0:
                        raise InvalidInput(f"missing action on hom({x},{y})")
                    self._action[(x, y)] = np.zeros((0, dy, dx), dtype=np.complex128)
                    continue
                stack = np.stack([as_cmatrix(im, dy, dx) for im in imgs]) if len(imgs) else \
                    np.zeros((0, dy, dx), dtype=np.complex128)
                if stack.shape[0] != k:
                    raise InvalidInput(
                        f"action on hom({x},{y}) has {stack.shape[0]} images, expected {k}"
                    )
                self._action[(x, y)] = stack

    def image_stack(self, x: int, y: int) -> np.ndarray:
        return self._action[(x, y)]

    def apply(self, m: Morphism, validate: bool = False) -> Morphism:
        if m.cat is not self.source:
            raise InvalidInput("morphism does not live in the functor source")
        mat = self._act(m.src, m.dst, m.mat)
        return Morphism(self.target, self.object_map[m.src], self.object_map[m.dst], mat,
                        validate=validate)

    def _act(self, x: int, y: int, mats) -> np.ndarray:
        """The functor on one matrix of hom(x, y) or a stack of them: their
        coordinates times the image stack.  Raises ``ClosureViolation`` if
        a matrix lies outside the hom-span."""
        mats, src = np.asarray(mats, dtype=np.complex128), self.source
        sizes = np.linalg.norm(mats, axis=(-2, -1))
        if np.any(src.hom_residual(x, y, mats) > src.tol.bound(sizes)):
            raise ClosureViolation("morphism is outside its hom-span; cannot apply functor")
        return span_eval(src.hom_coords(x, y, mats), self._action[(x, y)])

    def __repr__(self) -> str:
        return f"CStarFunctor({self.source!r} -> {self.target!r})"


def _basis_inclusion(base: CStarCategory, target: CStarCategory, object_map) -> CStarFunctor:
    """The functor sending every hom-basis element of ``base`` to itself."""
    n = base.n_objects
    action = {(x, y): base.hom_basis(x, y) for x in range(n) for y in range(n)}
    return CStarFunctor(base, target, object_map, action)


def identity_functor(cat: CStarCategory) -> CStarFunctor:
    return _basis_inclusion(cat, cat, range(cat.n_objects))


def _action_residuals(src: CStarCategory, act, images, rng: np.random.Generator, samples: int):
    """Residuals of the linear action ``act(x, y, mats)`` with basis images
    ``images(x, y)``: the worst multiplicativity and *-preservation residuals,
    one stacked norm per hom pair, and per nonempty hom-space the relative
    norm gains (||act(a)|| - ||a||) / max(||a||, 1) of ``samples`` random
    morphisms a drawn from ``rng``."""
    n = src.n_objects
    mult = star = 0.0
    for x in range(n):
        for y in range(n):
            img = images(x, y)
            adjoints = src.hom_basis(x, y).conj().swapaxes(-1, -2)
            diffs = act(y, x, adjoints) - img.conj().swapaxes(-1, -2)
            star = max(star, np.max(op_norms(diffs), initial=0.0))
            for z in range(n):
                prods = src.hom_basis(y, z)[:, None] @ src.hom_basis(x, y)[None]
                diffs = act(x, z, prods) - images(y, z)[:, None] @ img[None]
                mult = max(mult, np.max(op_norms(diffs), initial=0.0))

    def gain(a: Morphism) -> float:
        na = a.norm()
        return (op_norm(act(a.src, a.dst, a.mat)) - na) / max(na, 1.0)

    gains = {
        (x, y): [gain(src.random_morphism(rng, x, y)) for _ in range(samples)]
        for x in range(n) for y in range(n) if src.hom_dim(x, y)
    }
    return float(mult), float(star), gains


def verify_functor(F: CStarFunctor, tol: Tolerance | None = None,
                   samples: int = 3, seed: int = 0) -> Report:
    """Check multiplicativity, *-preservation, norm-decrease and the
    isometry property on hom-spaces where the action is injective."""
    tol = resolve_tol(tol)
    src = F.source
    mult, star, gains = _action_residuals(src, F._act, F.image_stack,
                                          np.random.default_rng(seed), samples)
    isometry = 0.0
    for (x, y), g in gains.items():
        k = src.hom_dim(x, y)
        if np.linalg.matrix_rank(F.image_stack(x, y).reshape(k, -1), tol=tol.atol) == k:
            isometry = max([isometry, *map(abs, g)])
    report = Report(context="functor")
    report.add("multiplicativity", mult, tol.bound(1.0))
    report.add("star-preservation", star, tol.bound(1.0))
    report.add("norm-decrease", max([0.0, *(v for g in gains.values() for v in g)]),
               tol.bound(1.0))
    report.add("isometry-on-injective", isometry, tol.bound(1.0))
    return report


# ---------------------------------------------------------------------------
# block machinery for finite object lists


def list_dim(cat: CStarCategory, lst) -> int:
    return int(sum(cat.dim(x) for x in lst))


def _size_slices(sizes) -> list[slice]:
    """Consecutive slices of the given sizes, starting at 0."""
    offs = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    return [slice(int(offs[i]), int(offs[i + 1])) for i in range(len(offs) - 1)]


def _block_diagonal(blocks) -> np.ndarray:
    """Block-diagonal matrix of (possibly rectangular) blocks."""
    blocks = list(blocks)
    rows = _size_slices([b.shape[0] for b in blocks])
    cols = _size_slices([b.shape[1] for b in blocks])
    out = np.zeros((rows[-1].stop, cols[-1].stop), dtype=np.complex128)
    for r, c, b in zip(rows, cols, blocks):
        out[r, c] = b
    return out


def block_slices(cat: CStarCategory, lst) -> list[slice]:
    return _size_slices([cat.dim(x) for x in lst])


class _Rows(NamedTuple):
    """Rows of the n blocks of one object in a list: an (n, size) index
    array and, when the blocks follow each other, the same rows as one slice."""

    idx: np.ndarray
    run: slice | None


def _object_rows(cat: CStarCategory, lst, sizes=None) -> dict[int, _Rows]:
    """Row plan of the blocks of each object of a list.

    Object x maps to the rows of its n occurrences in ``lst``, in order;
    blocks have size ``cat.dim(x)``, or ``sizes[i]`` for the i-th entry when
    given (the size must depend only on the object).  ``_block_view`` and
    ``_set_blocks`` read and write the (n_r, n_c, size_r, size_c) stack of
    blocks at two such plans.  The plan is built once per (list, sizes) and
    kept on the category, so its arrays are shared and read-only.
    """
    key = (tuple(lst), None if sizes is None else tuple(sizes))
    if key not in cat._row_plans:
        runs: dict[int, list[slice]] = {}
        for x, sl in zip(lst, _size_slices([cat.dim(x) for x in lst] if sizes is None else sizes)):
            runs.setdefault(x, []).append(sl)
        plan = {}
        for x, sls in runs.items():
            idx = np.array([range(sl.start, sl.stop) for sl in sls], dtype=np.intp)
            idx.flags.writeable = False
            follow = all(a.stop == b.start for a, b in zip(sls, sls[1:]))
            plan[x] = _Rows(idx, slice(sls[0].start, sls[-1].stop) if follow else None)
        cat._row_plans[key] = plan
    return cat._row_plans[key]


def _block_view(arr: np.ndarray, r: _Rows, c: _Rows) -> np.ndarray:
    """The (..., n_r, n_c, size_r, size_c) blocks of ``arr`` at rows ``r``
    and columns ``c``: a reshaped slice view when both are runs, else a
    fancy-indexed copy (an object interleaved with others, as in (0, 1, 0))."""
    if r.run is None or c.run is None:
        return arr[..., r.idx[:, None, :, None], c.idx[None, :, None, :]]
    sub = arr[..., r.run, c.run]
    return sub.reshape(sub.shape[:-2] + r.idx.shape + c.idx.shape, copy=False).swapaxes(-3, -2)


def _set_blocks(out: np.ndarray, r: _Rows, c: _Rows, values) -> None:
    """Write the (..., n_r, n_c, size_r, size_c) blocks of ``out`` at rows
    ``r`` and columns ``c``."""
    if r.run is None or c.run is None:
        out[..., r.idx[:, None, :, None], c.idx[None, :, None, :]] = values
    else:
        _block_view(out, r, c)[...] = values


def block_project(cat: CStarCategory, src_lst, dst_lst, mat) -> np.ndarray:
    """Blockwise orthogonal projection onto the hull hom-space of one block
    matrix or a (..., rows, cols) stack, one ``hom_project`` per pair of
    distinct objects; a pair whose blocks are all zero is left at zero."""
    arr = np.asarray(mat, dtype=np.complex128)
    shape = (list_dim(cat, dst_lst), list_dim(cat, src_lst))
    if arr.ndim == 2:
        arr = as_cmatrix(arr, *shape)
    elif arr.shape[-2:] != shape or not np.all(np.isfinite(arr)):
        raise InvalidInput(f"expected a finite stack of {shape} block matrices, "
                           f"got shape {arr.shape}")
    out = np.zeros_like(arr)
    cols = _object_rows(cat, src_lst)
    for y, r in _object_rows(cat, dst_lst).items():
        for x, c in cols.items():
            if cat.hom_dim(x, y):
                blocks = _block_view(arr, r, c)
                if blocks.any():
                    _set_blocks(out, r, c, cat.hom_project(x, y, blocks))
    return out


def block_residual(cat: CStarCategory, src_lst, dst_lst, mat) -> float | np.ndarray:
    """Frobenius distance from the block hom-space: a float for one matrix,
    an array over the leading axes for a stack."""
    arr = np.asarray(mat, dtype=np.complex128)
    diff = arr - block_project(cat, src_lst, dst_lst, arr)
    return frobenius_norm(diff) if diff.ndim == 2 else np.linalg.norm(diff, axis=(-2, -1))


def _projection_report(cat: CStarCategory, base, proj: np.ndarray, tol: Tolerance) -> Report:
    """Residuals of a presentation matrix P over ``base``: Hermitian,
    idempotent, and in the block hom-space, each against
    ``tol.bound(max(||H||, 1))``.  One spectrum λ of H = (P + P*)/2 gives
    ||H|| = max|λ| <= ||P|| and, with k = ||P - P*||/2, the bound
    ||P² - P|| <= max|λ² - λ| + k(2||H|| + k + 1), equal when P is Hermitian.
    """
    report = Report(context="module")
    skew = proj - proj.conj().T
    # a symmetrized projection has an exactly zero skew part: no eigensolve for it
    herm = op_norm(skew) if skew.any() else 0.0
    del skew  # freed before the Hermitian part is formed
    herm_part = 0.5 * (proj + proj.conj().T) if herm else proj
    spectrum = block_eigvalsh(herm_part, [cat.dim(x) for x in base])
    norm, k = float(np.max(np.abs(spectrum))), 0.5 * herm
    idem = float(np.max(np.abs(spectrum * spectrum - spectrum))) + k * (2.0 * norm + k + 1.0)
    bound = tol.bound(max(norm, 1.0))
    report.add("proj-hermitian", herm, bound)
    report.add("proj-idempotent", idem, bound)
    report.add("proj-in-hom-span", block_residual(cat, base, base, proj), bound)
    return report


def block_basis_stack(cat: CStarCategory, src_lst, dst_lst) -> np.ndarray:
    """Orthonormal basis of the block hom-space as embedded full matrices."""
    D_dst, D_src = list_dim(cat, dst_lst), list_dim(cat, src_lst)
    rows = block_slices(cat, dst_lst)
    cols = block_slices(cat, src_lst)
    mats = []
    for j, y in enumerate(dst_lst):
        for i, x in enumerate(src_lst):
            for b in cat.hom_basis(x, y):
                mat = np.zeros((D_dst, D_src), dtype=np.complex128)
                mat[rows[j], cols[i]] = b
                mats.append(mat)
    if not mats:
        return np.zeros((0, D_dst, D_src), dtype=np.complex128)
    return np.stack(mats)


def random_block(rng: np.random.Generator, cat: CStarCategory, src_lst, dst_lst) -> np.ndarray:
    """Random element of the block hom-space (blockwise basis combinations)."""
    arr = np.zeros((list_dim(cat, dst_lst), list_dim(cat, src_lst)), dtype=np.complex128)
    rows = block_slices(cat, dst_lst)
    cols = block_slices(cat, src_lst)
    for j, y in enumerate(dst_lst):
        for i, x in enumerate(src_lst):
            arr[rows[j], cols[i]] = cat.random_morphism(rng, x, y).mat
    return arr


class AdditiveHull:
    """Additive hull over a chosen finite family of object lists.

    Objects of the hull category are finite lists of base objects; morphisms
    are block matrices whose (j, i) block lies in hom(x_i, y_j).  At minimum
    the singleton lists and the full object list are materialized; all other
    lists are equivalent to sublists of these.
    """

    def __init__(self, base: CStarCategory, lists=None, tol: Tolerance | None = None):
        tol = resolve_tol(tol if tol is not None else base.tol)
        self.base = base
        if lists is None:
            lists = [(x,) for x in range(base.n_objects)]
            if base.n_objects > 1:
                lists.append(tuple(range(base.n_objects)))
        self.lists: tuple[tuple[int, ...], ...] = tuple(
            tuple(base.check_object(x) for x in lst) for lst in lists
        )
        if any(len(lst) == 0 for lst in self.lists):
            raise InvalidInput("hull object lists must be non-empty")
        self._index = {lst: i for i, lst in enumerate(self.lists)}

        objects = []
        for lst in self.lists:
            label = "(" + "+".join(base.label(x) for x in lst) + ")"
            objects.append((label, list_dim(base, lst)))
        homs = {}
        for i, src in enumerate(self.lists):
            for j, dst in enumerate(self.lists):
                homs[(i, j)] = block_basis_stack(base, src, dst)
        self.cat = CStarCategory(objects, homs, tol=tol, assume_orthonormal=True)

        if all((x,) in self._index for x in range(base.n_objects)):
            object_map = [self._index[(x,)] for x in range(base.n_objects)]
            self.embedding = _basis_inclusion(base, self.cat, object_map)
        else:
            self.embedding = None

    def list_index(self, lst) -> int:
        key = tuple(lst)
        if key not in self._index:
            raise InvalidInput(f"object list {key} was not materialized in this hull")
        return self._index[key]

    def morphism(self, src_lst, dst_lst, mat, validate: bool = True) -> Morphism:
        return self.cat.morphism(self.list_index(src_lst), self.list_index(dst_lst),
                                 mat, validate=validate)

    def __repr__(self) -> str:
        return f"AdditiveHull({self.base!r}, lists={self.lists})"


def additive_hull(cat: CStarCategory, lists=None, tol: Tolerance | None = None) -> AdditiveHull:
    """Materialize the additive hull of ``cat`` over the given object lists."""
    return AdditiveHull(cat, lists=lists, tol=tol)


def column_sup_norm(cat: CStarCategory, src_lst, block, probes: int = 48,
                    seed: int = 0, tol: Tolerance | None = None) -> float:
    """Norm of a block morphism as a supremum over admissible columns.

    Evaluates ``sup ||f b|| / ||b||`` where ``b`` runs over block columns
    with i-th entry in hom(w, x_i), for every base object ``w``; column norms
    are the Hermitian ones, i.e. operator norms of the stacked matrices.
    Random probes sample the supremum directly; the final ascent step solves
    the projected quadratic relaxation exactly per probe object (an
    eigenproblem, which is where projected-gradient ascent on the Rayleigh
    quotient converges).  The best value found is returned.  It never exceeds
    the operator norm of the assembled block matrix, and agrees with it at
    convergence.
    """
    tol = resolve_tol(tol if tol is not None else cat.tol)
    rng = np.random.default_rng(seed)
    src_lst = tuple(src_lst)
    arr = as_cmatrix(block, None, list_dim(cat, src_lst))
    if frobenius_norm(arr) == 0.0:
        return 0.0
    gram = arr.conj().T @ arr

    best = 0.0
    per_object = max(1, probes // cat.n_objects)
    for w in range(cat.n_objects):
        stack = block_basis_stack(cat, (w,), src_lst)
        if stack.shape[0] == 0:
            continue

        for _ in range(per_object):
            k = stack.shape[0]
            coords = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            b_col = span_eval(coords, stack)
            nb = op_norm(b_col)
            if nb <= tol.atol:
                continue
            best = max(best, op_norm(arr @ b_col) / nb)

        projected = np.einsum("ij,kjl->kil", gram, stack)
        form = np.tensordot(stack.conj(), projected, axes=([1, 2], [1, 2]))
        form = 0.5 * (form + form.conj().T)
        evals, evecs = np.linalg.eigh(form)
        b_col = span_eval(evecs[:, -1], stack)
        nb = op_norm(b_col)
        if nb > tol.atol:
            best = max(best, op_norm(arr @ b_col) / nb)
    return best


class MatrixAlgebra:
    """The endomorphism algebra of the full non-repeating object list.

    Attributes
    ----------
    cat : CStarCategory
        One-object category whose single hom-space is the block algebra.
    full_list : tuple of int
        The non-repeating list of all base objects, in order.
    """

    def __init__(self, base: CStarCategory, tol: Tolerance | None = None):
        tol = resolve_tol(tol if tol is not None else base.tol)
        self.base = base
        self.full_list = tuple(range(base.n_objects))
        stack = block_basis_stack(base, self.full_list, self.full_list)
        label = "Mat(" + "+".join(base.label(x) for x in self.full_list) + ")"
        self.cat = CStarCategory(
            [(label, list_dim(base, self.full_list))],
            {(0, 0): stack},
            tol=tol,
            assume_orthonormal=True,
        )
        self._slices = block_slices(base, self.full_list)

    def position(self, x: int, y: int) -> tuple[slice, slice]:
        """(row, column) block of hom(x, y) inside the algebra."""
        return self._slices[y], self._slices[x]

    def embed(self, m: Morphism) -> Morphism:
        if m.cat is not self.base:
            raise InvalidInput("morphism does not live in the base category")
        D = self.cat.dim(0)
        mat = np.zeros((D, D), dtype=np.complex128)
        rows, cols = self.position(m.src, m.dst)
        mat[rows, cols] = m.mat
        return self.cat.morphism(0, 0, mat, validate=False)

    @property
    def dimension(self) -> int:
        return self.cat.hom_dim(0, 0)


def matrix_algebra(cat: CStarCategory, tol: Tolerance | None = None) -> MatrixAlgebra:
    """The one-object matrix algebra of a category with finitely many objects."""
    return MatrixAlgebra(cat, tol=tol)


class IdempotentCompletion:
    """Category of pairs (object, projection) with compressed hom-spaces.

    Each pair is realized concretely on the range of its projection through
    an isometry ``u`` with ``u u* = p``; hom((x,p),(y,q)) is the compression
    ``u_q* hom(x,y) u_p``.  The pair (x, id) is always present, and the
    embedding x -> (x, id) is isometric and full.
    """

    def __init__(self, base: CStarCategory, projections=None, tol: Tolerance | None = None):
        tol = resolve_tol(tol if tol is not None else base.tol)
        self.base = base
        for x in projections or ():
            base.check_object(x)
        self.pairs: list[tuple[int, np.ndarray, np.ndarray]] = []
        for x in range(base.n_objects):
            d = base.dim(x)
            eye = np.eye(d, dtype=np.complex128)
            self.pairs.append((x, eye, eye))
            supplied = projections.get(x, []) if projections else []
            for p in supplied:
                mat = p.mat if isinstance(p, Morphism) else as_cmatrix(p, d, d)
                herm, idem, span = _projection_report(base, (x,), mat, tol).checks
                if not span.passed:
                    raise InvalidInput("supplied projection is not in hom(x,x)")
                if not (herm.passed and idem.passed):
                    raise InvalidInput("supplied morphism is not a projection")
                if op_norm(mat - eye) <= tol.bound(1.0):
                    continue
                evals, evecs = np.linalg.eigh(0.5 * (mat + mat.conj().T))
                isometry = evecs[:, evals > 0.5]
                self.pairs.append((x, mat, isometry))

        objects = []
        counters: dict[int, int] = {}
        for x, p, u in self.pairs:
            rank = u.shape[1]
            if p.shape[0] == rank and op_norm(p - np.eye(p.shape[0])) <= tol.bound(1.0):
                tag = "id"
            else:
                counters[x] = counters.get(x, 0) + 1
                tag = f"p{counters[x]}(rk{rank})"
            objects.append((f"({base.label(x)}|{tag})", rank))
        homs = {}
        for a, (x, p, u) in enumerate(self.pairs):
            for b, (y, q, v) in enumerate(self.pairs):
                compressed = [v.conj().T @ m @ u for m in base.hom_basis(x, y)]
                homs[(a, b)] = orthonormal_span(compressed, tol) if compressed else None
        self.cat = CStarCategory(objects, homs, tol=tol)

        object_map = [self.pair_index(x, np.eye(base.dim(x))) for x in range(base.n_objects)]
        self.embedding = _basis_inclusion(base, self.cat, object_map)

    def pair_index(self, x: int, p_mat) -> int:
        for idx, (obj, p, _) in enumerate(self.pairs):
            if obj == x and op_norm(p - p_mat) <= self.base.tol.bound(1.0):
                return idx
        raise InvalidInput("no pair matches the given projection")


def idempotent_completion(cat: CStarCategory, projections=None,
                          tol: Tolerance | None = None) -> IdempotentCompletion:
    """Complete ``cat`` at a supplied finite set of projections."""
    return IdempotentCompletion(cat, projections=projections, tol=tol)
