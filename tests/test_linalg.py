"""Kernel tests: norms, functional calculus, positivity, span arithmetic."""

import ast
import pathlib

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
    numerical_rank,
    op_norm,
    op_norms,
    orthonormal_span,
    psd_check,
    random_complex,
    span_coords,
    span_eval,
    span_residual,
    stack_rank,
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


@pytest.mark.parametrize("field, value", [
    ("atol", float("nan")), ("atol", float("inf")), ("atol", -1.0),
    ("rtol", float("nan")), ("rtol", -1e-8),
])
def test_tolerance_rejects_non_finite_or_negative(field, value):
    with pytest.raises(InvalidInput, match=field):
        Tolerance(**{field: value})


def test_tolerance_accepts_a_zero_cut():
    assert Tolerance(atol=0.0).atol == 0.0


def test_numerical_rank_of_nothing_is_zero():
    assert numerical_rank([]) == 0
    assert numerical_rank(np.zeros(0), Tolerance(atol=0.0)) == 0


def test_numerical_rank_drops_a_value_at_the_cut():
    tol = Tolerance(atol=1e-9)
    assert numerical_rank([1.0, 1e-9], tol) == 1
    assert numerical_rank([1.0, np.nextafter(1e-9, 1.0)], tol) == 2


def test_numerical_rank_drops_a_negative_eigenvalue():
    evals = np.array([-2e-9, 0.5, 1.0])
    assert numerical_rank(evals, TOL) == 2
    assert numerical_rank(np.abs(evals), TOL) == 3


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (1, 1), (4, 4), (2, 5), (5, 2)])
def test_numerical_rank_matches_matrix_rank(rows, cols):
    rng = np.random.default_rng(10 * rows + cols)
    for rank in range(min(rows, cols) + 1):
        m = random_complex(rng, rows, rank) @ random_complex(rng, rank, cols)
        ref = np.linalg.matrix_rank(m, tol=TOL.atol)
        assert numerical_rank(np.linalg.svd(m, compute_uv=False), TOL) == ref == rank
        assert stack_rank(m, TOL) == ref  # a stack of rows
        # hermitian=True ranks |eigvalsh|; on a PSD operand the signed spectrum agrees
        psd = m @ m.conj().T
        ref = np.linalg.matrix_rank(psd, tol=TOL.atol, hermitian=True)
        assert numerical_rank(np.abs(np.linalg.eigvalsh(psd)), TOL) == ref == rank
        assert numerical_rank(np.linalg.eigvalsh(psd), TOL) == rank


@pytest.mark.parametrize("k, rows, cols, rank", [
    (0, 3, 4, 0),   # no rows: reshape(0, -1) cannot infer the row length
    (1, 3, 4, 1),
    (6, 3, 4, 2),
    (12, 2, 3, 8),  # the row length, not the plant, bounds the rank
    (5, 4, 4, 5),
])
def test_stack_rank_matches_matrix_rank_of_the_flattened_stack(k, rows, cols, rank):
    rng = np.random.default_rng(100 * k + 10 * rows + cols)
    flat = random_complex(rng, k, rank) @ random_complex(rng, rank, rows * cols)
    stack = flat.reshape(k, rows, cols)
    ref = np.linalg.matrix_rank(flat, tol=TOL.atol)
    assert stack_rank(stack, TOL) == ref == min(k, rank, rows * cols)


SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cstarcat"


def _rank_cuts(source: str, primitive: str | None = None) -> list[tuple[int, str]]:
    """(line, what) of every ``matrix_rank``/``pinv`` call and every ordering
    comparison with an ``.atol`` attribute outside the function ``primitive``,
    and of every singular-values-only ``svd(..., compute_uv=False)`` call
    outside ``stack_rank``, the one rank of a stack."""
    tree = ast.parse(source)

    def inside(name):
        return {id(node) for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and fn.name == name for node in ast.walk(fn)}

    cut, stacked = inside(primitive), inside("stack_rank")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("matrix_rank", "pinv") and id(node) not in cut:
                found.append((node.lineno, f"{name}("))
            elif name == "svd" and id(node) not in stacked and any(
                    kw.arg == "compute_uv" and getattr(kw.value, "value", True) is False
                    for kw in node.keywords):
                found.append((node.lineno, "svd(compute_uv=False)"))
        elif (isinstance(node, ast.Compare) and id(node) not in cut
              and any(isinstance(op, (ast.Lt, ast.Gt, ast.LtE, ast.GtE)) for op in node.ops)
              and any(isinstance(side, ast.Attribute) and side.attr == "atol"
                      for side in (node.left, *node.comparators))):
            found.append((node.lineno, "comparison with .atol"))
    return sorted(found)


def test_rank_cut_scanner_finds_each_form():
    sample = ("import numpy as np\n"
              "r = np.linalg.matrix_rank(a, tol=tol.atol)\n"
              "p = np.linalg.pinv(a)\n"
              "k = int(np.sum(s > tol.atol))\n"
              "z = np.where(evals <= self.tol.atol, 0.0, evals)\n"
              "s = np.linalg.svd(stack.reshape(k, -1), compute_uv=False)\n")
    assert [line for line, _ in _rank_cuts(sample)] == [2, 3, 4, 5, 6]


def test_every_rank_cut_goes_through_numerical_rank():
    found = {path.name: cuts for path in sorted(SRC.glob("*.py"))
             if (cuts := _rank_cuts(path.read_text(),
                                    "numerical_rank" if path.name == "linalg.py" else None))}
    assert found == {}


def _offset_sites(source: str, primitive: str | None = None) -> list[tuple[int, str]]:
    """(line, what) of every ``cumsum`` or ``kron`` call outside the function
    ``primitive``, and of every use of the retired row-plan names."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == primitive
              for node in ast.walk(fn)}
    retired = ("_object_rows", "_row_plans")
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        name = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
        if isinstance(node, ast.Call):
            called = getattr(node.func, "attr", getattr(node.func, "id", None))
            if called in ("cumsum", "kron"):
                found.append((node.lineno, f"{called}("))
        elif isinstance(node, (ast.Name, ast.Attribute, ast.FunctionDef, ast.alias)) \
                and name in retired:
            found.append((getattr(node, "lineno", 0), name))
    return sorted(found)


def _block_readers(source: str) -> set[str]:
    """Names of the functions that call ``_block_view``."""
    return {fn.name for fn in ast.walk(ast.parse(source)) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_block_view"}


def test_offset_scanner_finds_each_form():
    sample = ("import numpy as np\n"
              "from numpy import cumsum\n"
              "offs = np.cumsum(sizes)\n"
              "offs = sizes.cumsum()\n"
              "offs = cumsum(sizes)\n"
              "from .category import _object_rows\n"
              "def _object_rows(cat, lst):\n"
              "    return cat._row_plans[lst]\n"
              "pattern = np.kron(coeffs, eye)\n"
              "def _size_slices(sizes):\n"
              "    return np.cumsum(sizes)\n")
    assert [line for line, _ in _offset_sites(sample, "_size_slices")] == [3, 4, 5, 6, 7, 8, 9]
    assert [line for line, _ in _offset_sites(sample)][-1] == 11
    loops = ("def block_project(cat, arr):\n"
             "    return _block_view(arr, r, c)\n"
             "class Bimodule:\n"
             "    def hull_extend(self, arr):\n"
             "        blocks = _block_view(arr, r, c)\n")
    assert _block_readers(loops) == {"block_project", "hull_extend"}


def test_block_offsets_come_from_one_function():
    """Block offsets are computed by ``linalg._size_slices`` alone; object
    lists read theirs from the category's cached layout."""
    found = {path.name: sites for path in sorted(SRC.glob("*.py"))
             if (sites := _offset_sites(path.read_text(),
                                        "_size_slices" if path.name == "linalg.py" else None))}
    assert found == {}


def test_block_stacks_are_read_in_one_loop():
    """``block_project`` and the bimodule extension share ``_blockwise``: it
    is the one reader of block stacks besides the writer ``_set_blocks``."""
    readers = set().union(*(_block_readers(path.read_text()) for path in SRC.glob("*.py")))
    assert readers == {"_blockwise", "_set_blocks"}


def _hermitian_parts(source: str, primitive: str | None = None) -> list[int]:
    """Lines of every ``0.5 * (m + m.conj().T)`` (either operand order)
    outside the function ``primitive``; an unscaled ``m + m.conj().T`` is
    not one."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == primitive
              for node in ast.walk(fn)}

    def adjoint_of(node, m) -> bool:  # node is m.conj().T
        return (isinstance(node, ast.Attribute) and node.attr == "T"
                and isinstance(node.value, ast.Call) and not node.value.args
                and getattr(node.value.func, "attr", None) == "conj"
                and ast.dump(node.value.func.value) == ast.dump(m))

    found = []
    for node in ast.walk(tree):
        if id(node) in inside or not (isinstance(node, ast.BinOp)
                                      and isinstance(node.op, ast.Mult)):
            continue
        for half, total in ((node.left, node.right), (node.right, node.left)):
            if (isinstance(half, ast.Constant) and half.value == 0.5
                    and isinstance(total, ast.BinOp) and isinstance(total.op, ast.Add)
                    and (adjoint_of(total.right, total.left)
                         or adjoint_of(total.left, total.right))):
                found.append(node.lineno)
    return sorted(found)


def test_hermitian_part_scanner_finds_each_form():
    sample = ("h = 0.5 * (m + m.conj().T)\n"
              "h = (a.b + a.b.conj().T) * 0.5\n"
              "h = 0.5 * (np.asarray(m).conj().T + np.asarray(m))\n"
              "h = comp + comp.conj().T\n"
              "h = 0.5 * (m + n.conj().T)\n"
              "def hermitian_part(m):\n"
              "    return 0.5 * (m + m.conj().T)\n")
    assert _hermitian_parts(sample, "hermitian_part") == [1, 2, 3]
    assert _hermitian_parts(sample) == [1, 2, 3, 7]


def test_hermitian_parts_come_from_one_function():
    """Every ``(m + m*) / 2`` in the engine is ``linalg.hermitian_part``."""
    found = {path.name: lines for path in sorted(SRC.glob("*.py"))
             if (lines := _hermitian_parts(path.read_text(),
                                           "hermitian_part" if path.name == "linalg.py" else None))}
    assert found == {}
