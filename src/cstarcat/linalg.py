"""Dense complex linear algebra kernel.

Operator norms, Hermitian functional calculus, positivity tests and
Frobenius-span arithmetic.  Every other module funnels its numerics through
these routines so rank cutoffs and tolerance conventions stay consistent:
ranks are decided by a single singular-value threshold (``Tolerance.atol``),
and Hermitian eigenvalues inside ``[-atol, atol]`` are clamped to zero before
fractional powers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

__all__ = [
    "Tolerance",
    "default_tolerance",
    "resolve_tol",
    "as_cmatrix",
    "op_norm",
    "op_norms",
    "block_eigvalsh",
    "frobenius_norm",
    "herm_eigh",
    "psd_eigh",
    "frac_power",
    "spectral_power",
    "null_space",
    "min_herm_eig",
    "psd_check",
    "orthonormal_span",
    "span_coords",
    "span_eval",
    "span_project",
    "span_residual",
    "in_span",
    "range_projection",
    "random_complex",
]


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair, in operator-norm units.

    A residual ``r`` measured against operands of magnitude ``scale`` passes
    when ``r <= atol + rtol * scale``.
    """

    atol: float = 1e-9
    rtol: float = 1e-8

    def bound(self, scale: float = 1.0) -> float:
        return self.atol + self.rtol * abs(scale)

    def ok(self, residual: float, scale: float = 1.0) -> bool:
        return bool(residual <= self.bound(scale))


_default_tol = Tolerance()


def default_tolerance() -> Tolerance:
    return _default_tol


def resolve_tol(tol: Tolerance | None) -> Tolerance:
    return _default_tol if tol is None else tol


def as_cmatrix(m, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce to a finite 2-d complex array, validating shape if given."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise InvalidInput(f"expected a matrix, got array of ndim {arr.ndim}")
    if rows is not None and arr.shape[0] != rows:
        raise InvalidInput(f"expected {rows} rows, got {arr.shape[0]}")
    if cols is not None and arr.shape[1] != cols:
        raise InvalidInput(f"expected {cols} columns, got {arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("matrix has non-finite entries")
    return arr


def op_norms(stack) -> np.ndarray:
    """Largest singular value of every matrix of a (..., r, c) stack.

    One stacked ``eigvalsh`` of the Gram on the smaller side: ``m m*`` when
    r < c, else ``m* m``; both have the squared singular values on top.
    """
    arr = np.asarray(stack, dtype=np.complex128)
    if arr.size == 0:
        return np.zeros(arr.shape[:-2])
    adj = arr.conj().swapaxes(-1, -2)
    gram = arr @ adj if arr.shape[-2] < arr.shape[-1] else adj @ arr
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))


def op_norm(m) -> float:
    """Largest singular value of one matrix (``op_norms`` with no stack axes)."""
    return float(op_norms(as_cmatrix(m)))


def block_eigvalsh(h, sizes) -> np.ndarray:
    """Ascending spectrum of a Hermitian matrix with diagonal blocks of ``sizes``.

    Blocks that nonzero off-diagonal blocks connect form a group, and each
    group takes one ``eigvalsh``: a symmetric permutation to block-diagonal
    form keeps the spectrum, so this is exact.
    """
    arr = np.asarray(h)
    offs = np.cumsum([0, *sizes])
    starts = offs[:-1][np.diff(offs) > 0]  # empty blocks own no rows
    if len(starts) > 1:
        reach = np.logical_or.reduceat(np.logical_or.reduceat(arr != 0, starts, 0), starts, 1)
        reach |= reach.T | np.eye(len(starts), dtype=bool)
        while not np.array_equal(reach, wider := reach @ reach):
            reach = wider
        first = reach.argmax(axis=1)  # the first block of each block's group
        if first.any():
            group = np.repeat(first, np.diff(np.append(starts, offs[-1])))  # per row
            return np.sort(np.concatenate([np.linalg.eigvalsh(arr[np.ix_(group == g, group == g)])
                                           for g in set(first.tolist())]))
    return np.linalg.eigvalsh(arr)


def frobenius_norm(m) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def herm_eigh(m, tol: Tolerance | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a matrix required to be Hermitian within tol."""
    tol = resolve_tol(tol)
    arr = as_cmatrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise InvalidInput("matrix is not square")
    evals, evecs = np.linalg.eigh(0.5 * (arr + arr.conj().T))
    # the operator norm of the Hermitian part is its largest |eigenvalue|
    scale = float(np.max(np.abs(evals))) if evals.size else 0.0
    skew = arr - arr.conj().T
    # an exactly Hermitian input has a zero skew part: no eigensolve for it
    if skew.any() and op_norm(skew) > tol.bound(scale):
        raise InvalidInput("matrix is not Hermitian within tolerance")
    return evals, evecs


def psd_eigh(m, tol: Tolerance | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian PSD matrix, spectrum clamped.

    Raises ``InvalidInput`` unless ``m`` is Hermitian and positive
    semidefinite within tol; eigenvalues in ``[-atol, atol]`` come back as
    exact zeros, so ``evals > 0`` selects the support.
    """
    tol = resolve_tol(tol)
    evals, evecs = herm_eigh(m, tol)
    scale = float(np.max(np.abs(evals))) if evals.size else 0.0
    if np.any(evals < -tol.bound(scale)):
        raise InvalidInput("matrix is not positive semidefinite within tolerance")
    return np.where(evals <= tol.atol, 0.0, evals), evecs


def frac_power(m, t: float, tol: Tolerance | None = None) -> np.ndarray:
    """Power ``m**t`` of a Hermitian PSD matrix by eigendecomposition.

    Eigenvalues in ``[-atol, atol]`` are clamped to zero before powering.
    Negative exponents follow the Moore-Penrose convention: clamped
    eigenvalues are treated as absent rather than inverted.

    Parameters
    ----------
    m : array_like
        Hermitian positive semidefinite matrix (within tolerance).
    t : float
        Exponent; nonzero real.  ``(0, 1]`` covers the fractional powers the
        factorization routines need, negative values request pseudo-inverse
        powers.

    Returns
    -------
    ndarray
        ``m**t``, Hermitian.
    """
    if t == 0:
        raise InvalidInput("exponent must be nonzero")
    return spectral_power(*psd_eigh(m, tol), t)


def spectral_power(clamped: np.ndarray, evecs: np.ndarray, t: float) -> np.ndarray:
    """``m**t`` from the clamped spectrum ``psd_eigh(m)`` returns.

    Zero eigenvalues stay zero for every ``t``, so several powers of one
    matrix (as in ``frac_power``) cost one eigendecomposition.
    """
    powered = np.zeros_like(clamped)
    nz = clamped > 0.0
    powered[nz] = clamped[nz] ** t
    return (evecs * powered) @ evecs.conj().T


def null_space(system, tol: Tolerance | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal rows spanning the null space of ``system``, and its singular values.

    Only the right singular vectors are needed, so the SVD is taken of the
    triangular factor R of ``system = QR`` (Chan's R-SVD): R has
    ``min(rows, cols)`` rows and the same singular values and right factor,
    so no rows×rows matrix is formed.  The rank is the number of singular
    values above ``tol.atol``; a system with no rows has the whole space as
    its null space.
    """
    tol = resolve_tol(tol)
    r = np.linalg.qr(np.asarray(system, dtype=np.complex128), mode="r")
    _, svals, vh = np.linalg.svd(r)
    rank = int(np.sum(svals > tol.atol))
    return vh[rank:].conj(), svals


def min_herm_eig(m) -> float:
    evals = np.linalg.eigvalsh(0.5 * (np.asarray(m) + np.asarray(m).conj().T))
    return float(evals[0]) if evals.size else 0.0


def psd_check(m, tol: Tolerance | None = None) -> bool:
    """True iff ``m`` is Hermitian within tol with min eigenvalue >= -bound."""
    tol = resolve_tol(tol)
    arr = as_cmatrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise InvalidInput("matrix is not square")
    scale = op_norm(arr)
    if op_norm(arr - arr.conj().T) > tol.bound(scale):
        return False
    return min_herm_eig(arr) >= -tol.bound(scale)


def _stack(mats: list[np.ndarray] | np.ndarray) -> np.ndarray:
    if isinstance(mats, np.ndarray) and mats.ndim == 3:
        return mats.astype(np.complex128)
    if len(mats) == 0:
        raise InvalidInput("cannot stack an empty list without a shape")
    shape = np.asarray(mats[0]).shape
    for m in mats:
        if np.asarray(m).shape != shape:
            raise InvalidInput("matrices in a span must share one shape")
    return np.stack([as_cmatrix(m) for m in mats])


def orthonormal_span(mats, tol: Tolerance | None = None) -> np.ndarray:
    """Frobenius-orthonormal basis of the complex span of ``mats``.

    Parameters
    ----------
    mats : sequence of equally-shaped matrices, or a (k, r, c) array
    tol : Tolerance, optional
        Rank is decided by the singular-value cutoff ``tol.atol``.

    Returns
    -------
    ndarray of shape (rank, r, c)
    """
    tol = resolve_tol(tol)
    if isinstance(mats, np.ndarray) and mats.ndim == 3 and mats.shape[0] == 0:
        return mats.astype(np.complex128)
    if not isinstance(mats, np.ndarray) and len(mats) == 0:
        return np.zeros((0, 0, 0), dtype=np.complex128)
    stack = _stack(mats)
    k, r, c = stack.shape
    flat = stack.reshape(k, r * c)
    u, s, vh = np.linalg.svd(flat, full_matrices=False)
    rank = int(np.sum(s > tol.atol))
    return vh[:rank].reshape(rank, r, c)


def span_coords(m, basis: np.ndarray) -> np.ndarray:
    """Frobenius coordinates (..., k) of one (r, c) matrix or a (..., r, c)
    stack against an orthonormal (k, r, c) basis stack, taken as
    <b, m> = conj(b · conj(m)) so that the basis is never conjugated."""
    arr = np.asarray(m, dtype=np.complex128)
    n = arr.shape[-2] * arr.shape[-1]
    flat = arr.reshape(arr.shape[:-2] + (n,))
    return np.conj(flat.conj() @ basis.reshape(basis.shape[0], n).T)


def span_eval(coords, basis: np.ndarray, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Matrices (..., r, c) from (..., k) coordinates against a (k, r, c)
    basis stack; ``shape`` gives (r, c) for a basis of shape (0, 0, 0)."""
    k = basis.shape[0]
    r, c = basis.shape[1:] if shape is None else shape
    flat = np.asarray(coords, dtype=np.complex128) @ basis.reshape(k, r * c)
    return flat.reshape(flat.shape[:-1] + (r, c))


def span_project(m, basis: np.ndarray) -> np.ndarray:
    arr = np.asarray(m, dtype=np.complex128)
    return span_eval(span_coords(arr, basis), basis, arr.shape[-2:])


def span_residual(m, basis: np.ndarray) -> float:
    return frobenius_norm(np.asarray(m, dtype=np.complex128) - span_project(m, basis))


def in_span(m, basis: np.ndarray, tol: Tolerance | None = None) -> np.ndarray | None:
    """Coordinates of ``m`` in the span, or ``None`` if it lies outside.

    The residual is measured in Frobenius norm against
    ``atol + rtol * ||m||_F``.
    """
    tol = resolve_tol(tol)
    arr = as_cmatrix(m)
    coords = span_coords(arr, basis)
    recon = span_eval(coords, basis, shape=arr.shape)
    if frobenius_norm(arr - recon) > tol.bound(frobenius_norm(arr)):
        return None
    return coords


def range_projection(m, tol: Tolerance | None = None) -> np.ndarray:
    """Hermitian projection onto the column space of ``m``.

    Columns are kept for singular values above ``tol.atol``.
    """
    tol = resolve_tol(tol)
    arr = as_cmatrix(m)
    u, s, _ = np.linalg.svd(arr, full_matrices=False)
    keep = u[:, s > tol.atol]
    return keep @ keep.conj().T


def random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Standard complex Gaussian matrix, deterministic per generator state."""
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
