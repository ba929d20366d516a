"""Kernel tests: norms, functional calculus, positivity, span arithmetic."""

import numpy as np
import pytest

from cstarcat.errors import InvalidInput
from cstarcat.linalg import (
    Tolerance,
    block_eigvalsh,
    frac_power,
    herm_eigh,
    in_span,
    null_space,
    op_norm,
    op_norms,
    orthonormal_span,
    psd_check,
    random_complex,
    range_projection,
    span_coords,
    span_eval,
    span_residual,
)

TOL = Tolerance()


def test_op_norm_identity():
    assert op_norm(np.eye(2)) == pytest.approx(1.0)


def test_op_norm_nilpotent_shift():
    assert op_norm(np.array([[0, 1], [0, 0]])) == pytest.approx(1.0)


def test_op_norm_diagonal():
    assert op_norm(np.diag([3.0, 4.0j])) == pytest.approx(4.0)


def test_op_norm_rejects_nan():
    with pytest.raises(InvalidInput):
        op_norm(np.array([[np.nan, 0], [0, 0]]))


def test_op_norm_cstar_identity_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = random_complex(rng, 4, 3)
        assert op_norm(a.conj().T @ a) == pytest.approx(op_norm(a) ** 2, rel=1e-10)


def test_op_norm_submultiplicative():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = random_complex(rng, 3, 4)
        b = random_complex(rng, 4, 5)
        assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-9


def test_frac_power_identity():
    assert np.allclose(frac_power(np.eye(3), 0.25), np.eye(3))


def test_frac_power_diag_quarter():
    out = frac_power(np.diag([16.0, 0.0]), 0.25)
    assert np.allclose(out, np.diag([2.0, 0.0]))


def test_frac_power_square_back():
    # oracle: squaring the half power must reproduce the input
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = random_complex(rng, 4, 4)
        p = a @ a.conj().T
        q = frac_power(p, 0.5)
        assert op_norm(q @ q - p) <= 1e-9 * max(op_norm(p), 1.0)


def test_frac_power_moore_penrose_inverse():
    p = np.diag([4.0, 0.0, 9.0])
    out = frac_power(p, -0.5)
    assert np.allclose(out, np.diag([0.5, 0.0, 1.0 / 3.0]))


def test_frac_power_rejects_non_psd():
    with pytest.raises(InvalidInput):
        frac_power(np.diag([1.0, -1.0]), 0.5)


def test_frac_power_rejects_non_hermitian():
    with pytest.raises(InvalidInput):
        frac_power(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5)


def test_frac_power_interpolation_identity():
    rng = np.random.default_rng(3)
    a = random_complex(rng, 5, 5)
    p = a @ a.conj().T
    for t in (0.25, 0.5, 0.75):
        lhs = frac_power(p, t) @ frac_power(p, 1.0 - t)
        assert op_norm(lhs - p) <= 1e-8 * op_norm(p)
        comm = frac_power(p, t) @ p - p @ frac_power(p, t)
        assert op_norm(comm) <= 1e-8 * op_norm(p) ** 2


def test_psd_check_zero():
    assert psd_check(np.zeros((3, 3)))


def test_psd_check_indefinite():
    assert not psd_check(np.diag([1.0, -1.0]))


def test_psd_check_gram_positive():
    # C*-positivity oracle: a* a is always PSD
    rng = np.random.default_rng(4)
    for _ in range(25):
        a = random_complex(rng, 3, 5)
        assert psd_check(a.conj().T @ a)


def test_orthonormal_span_dedupes_scalar_multiples():
    basis = orthonormal_span([np.eye(2), 2.0 * np.eye(2)])
    assert basis.shape[0] == 1
    assert np.allclose(np.abs(basis[0]), np.eye(2) / np.sqrt(2))


def test_orthonormal_span_empty():
    assert orthonormal_span([]).shape[0] == 0


def test_orthonormal_span_rank_oracle():
    # oracle: rank of the vectorized stack via SVD
    rng = np.random.default_rng(5)
    for k in (1, 3, 6):
        mats = [random_complex(rng, 3, 4) for _ in range(k)]
        stacked = np.stack([m.ravel() for m in mats])
        rank = np.linalg.matrix_rank(stacked, tol=1e-9)
        basis = orthonormal_span(mats)
        assert basis.shape[0] == rank == k
        gram = np.tensordot(basis.conj(), basis, axes=([1, 2], [1, 2]))
        assert np.allclose(gram, np.eye(k), atol=1e-10)
        for m in mats:
            assert span_residual(m, basis) <= 1e-9 * np.linalg.norm(m)


def test_in_span_recovers_basis_vector():
    basis = orthonormal_span([np.eye(2), np.array([[0, 1], [1, 0]])])
    coords = in_span(basis[0], basis)
    assert coords is not None
    assert np.allclose(coords, [1.0, 0.0])


def test_in_span_rejects_orthogonal():
    basis = orthonormal_span([np.eye(2)])
    off = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert in_span(off, basis) is None


def test_in_span_least_squares_oracle():
    rng = np.random.default_rng(6)
    mats = [random_complex(rng, 2, 3) for _ in range(3)]
    basis = orthonormal_span(mats)
    weights = random_complex(rng, 1, basis.shape[0])[0]
    target = np.tensordot(weights, basis, axes=(0, 0))
    coords = in_span(target, basis)
    assert coords is not None
    # oracle: numpy least squares on the vectorized system
    flat = basis.reshape(basis.shape[0], -1).T
    lstsq = np.linalg.lstsq(flat, target.ravel(), rcond=None)[0]
    assert np.allclose(coords, lstsq, atol=1e-9)


def test_range_projection_fixes_projections():
    p = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(range_projection(p), p)


def test_range_projection_zero():
    assert np.allclose(range_projection(np.zeros((3, 2))), np.zeros((3, 3)))


def test_range_projection_defining_identities():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = random_complex(rng, 4, 3)
        p = range_projection(m)
        assert op_norm(p @ m - m) <= 1e-9 * max(op_norm(m), 1.0)
        assert op_norm(p @ p - p) <= 1e-10
        assert op_norm(p - p.conj().T) <= 1e-10


def test_tolerance_bound():
    tol = Tolerance(atol=1e-6, rtol=1e-3)
    assert tol.ok(1e-7)
    assert tol.ok(5e-4, scale=1.0)
    assert not tol.ok(5e-3, scale=1.0)


def _reference_null_space(system, atol):
    """The full-SVD null space (m×m left factor and all) that null_space replaced."""
    if system.shape[0] == 0:
        return np.eye(system.shape[1], dtype=np.complex128), np.zeros(0)
    _, svals, vh = np.linalg.svd(system)
    return vh[int(np.sum(svals > atol)):].conj(), svals


@pytest.mark.parametrize("rows, cols, planted", [
    (60, 12, 4),   # tall
    (12, 12, 5),   # square
    (5, 12, 3),    # wide: the rows, not the plant, bound the rank
    (9, 12, 4),    # wide, planted null space decides
    (0, 7, 0),     # no constraints at all
])
def test_null_space_matches_full_svd(rows, cols, planted):
    rng = np.random.default_rng(rows * 100 + cols)
    plant, _ = np.linalg.qr(random_complex(rng, cols, planted))
    system = random_complex(rng, rows, cols) @ (np.eye(cols) - plant @ plant.conj().T)
    null, svals = null_space(system, TOL)
    ref, ref_svals = _reference_null_space(system, TOL.atol)
    assert null.shape == ref.shape == (cols - min(rows, cols - planted), cols)
    assert np.allclose(svals, ref_svals, rtol=0.0, atol=1e-12 * max(op_norm(system), 1.0))
    assert op_norm(system @ null.T) <= 1e-12 * max(op_norm(system), 1.0)
    assert op_norm(null.conj() @ null.T - np.eye(null.shape[0])) <= 1e-12
    # null.T has the null vectors as columns, so null.T @ null.conj() projects onto them
    assert op_norm(null.T @ null.conj() - ref.T @ ref.conj()) <= 1e-12


def _reference_op_norm(m):
    """One matrix at a time: ``eigvalsh`` of the full m* m."""
    if m.size == 0:
        return 0.0
    return float(np.sqrt(max(np.linalg.eigvalsh(m.conj().T @ m)[-1], 0.0)))


@pytest.mark.parametrize("shape", [(6, 3, 8), (6, 8, 3), (5, 7, 7), (0, 4, 5), (3, 0, 4), (1, 1, 1)])
def test_op_norms_match_the_per_matrix_loop(shape):
    rng = np.random.default_rng(sum(shape))
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if shape[0] > 1 and min(shape[1:]) > 1:
        stack[0] = np.outer(stack[0][:, 0], stack[0][0])  # rank one
    got = op_norms(stack)
    assert got.shape == shape[:1]
    for m, g in zip(stack, got):
        ref = _reference_op_norm(m)
        assert abs(g - ref) <= 1e-13 * max(ref, 1e-300)
        assert op_norm(m) == pytest.approx(g, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
@pytest.mark.parametrize("k, r, c", [(3, 2, 4), (5, 3, 3), (0, 2, 4), (0, 0, 0)])
def test_span_pair_matches_the_contraction_form(lead, k, r, c):
    # the coordinates pair on any leading axes, against tensordot over the basis
    rng = np.random.default_rng(k + r + len(lead))
    shape = (r, c) if r else (2, 4)
    basis = orthonormal_span([random_complex(rng, r, c) for _ in range(k)]) if k else \
        np.zeros((0, r, c), dtype=np.complex128)
    m = rng.standard_normal(lead + shape) + 1j * rng.standard_normal(lead + shape)
    coords = span_coords(m, basis)
    ref = np.tensordot(m, basis.conj(), axes=([-2, -1], [1, 2])) if k else np.zeros(lead + (0,))
    assert coords.shape == lead + (k,)
    scale = max(np.max(np.abs(ref), initial=0.0), 1.0)
    assert np.max(np.abs(coords - ref), initial=0.0) <= 1e-14 * scale
    weights = rng.standard_normal(lead + (k,)) + 1j * rng.standard_normal(lead + (k,))
    mats = span_eval(weights, basis, None if r else shape)
    ref = np.tensordot(weights, basis, axes=(-1, 0)) if k else np.zeros(lead + shape)
    assert mats.shape == lead + shape
    assert np.max(np.abs(mats - ref)) <= 1e-14 * max(np.max(np.abs(ref)), 1.0)


@pytest.mark.parametrize("case, groups", [("dense", 1), ("block-diagonal", 4), ("permuted", 2),
                                          ("repeated-objects", 2), ("empty-block", 2)])
def test_block_eigvalsh_matches_full_spectrum(case, groups, monkeypatch):
    # one eigvalsh per group of blocks that nonzero off-diagonal blocks link
    from cstarcat.category import CStarCategory, random_block

    rng = np.random.default_rng(len(case))
    sizes = [2, 3, 2, 4]
    h = random_complex(rng, 11, 11)
    h = h + h.conj().T
    edges = np.cumsum([0] + sizes)
    blocks = [range(edges[i], edges[i + 1]) for i in range(4)]
    linked = {"dense": None, "block-diagonal": [], "permuted": [(0, 2), (1, 3)],
              "empty-block": [(0, 1), (1, 3)]}.get(case)
    if case == "repeated-objects":
        # base (0, 1, 0) over two objects with no morphisms between them
        cat = CStarCategory([("a", 2), ("b", 3)],
                            {(0, 0): [random_complex(rng, 2, 2) for _ in range(4)],
                             (1, 1): [random_complex(rng, 3, 3) for _ in range(9)]})
        sizes = [2, 3, 2]
        h = random_block(rng, cat, (0, 1, 0), (0, 1, 0))
        h = h + h.conj().T
    elif linked is not None:
        for i in range(4):
            for j in range(4):
                if i != j and (min(i, j), max(i, j)) not in linked:
                    h[np.ix_(blocks[i], blocks[j])] = 0.0
    if case == "empty-block":
        sizes = [2, 0, 3, 2, 4]
    calls, eigvalsh = [], np.linalg.eigvalsh

    def counting_eigvalsh(m, *args, **kwargs):
        calls.append(m.shape[0])
        return eigvalsh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    got = block_eigvalsh(h, sizes)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    ref = np.linalg.eigvalsh(h)
    assert len(calls) == groups and sum(calls) == h.shape[0]
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("case, solves", [("hermitian", 1), ("near-hermitian", 2)])
def test_herm_eigh_skips_the_skew_solve_on_hermitian_input(case, solves, monkeypatch):
    # the skew part's norm takes an eigensolve only when that part is nonzero
    rng = np.random.default_rng(7)
    h = random_complex(rng, 5, 5)
    h = h + h.conj().T
    if case == "near-hermitian":
        h[0, 1] += 1e-12
    calls, eigh, eigvalsh = [], np.linalg.eigh, np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigh", lambda m, *a, **k: calls.append("eigh") or eigh(m, *a, **k))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m, *a, **k: calls.append("eigvalsh") or eigvalsh(m, *a, **k))
    evals, evecs = herm_eigh(h, TOL)
    assert len(calls) == solves
    monkeypatch.undo()
    assert np.max(np.abs(evecs @ np.diag(evals) @ evecs.conj().T - 0.5 * (h + h.conj().T))) <= 1e-12
    skewed = h.copy()
    skewed[0, 1] += 1e-3
    with pytest.raises(InvalidInput, match="not Hermitian"):
        herm_eigh(skewed, TOL)
