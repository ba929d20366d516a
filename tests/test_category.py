"""Category axioms, composition, factorization, polar parts, functors."""

import numpy as np
import pytest

from cstarcat.category import (
    CStarCategory,
    CStarFunctor,
    _block_diagonal,
    _block_view,
    _layout,
    _set_blocks,
    block_basis_stack,
    block_project,
    block_residual,
    block_slices,
    cofactorize,
    column_sup_norm,
    compose,
    factorize,
    identity_functor,
    involute,
    list_dim,
    matrix_algebra,
    polar_unitary,
    random_block,
    verify_category,
    verify_functor,
)
from cstarcat.errors import ClosureViolation, CompositionMismatch, InvalidInput, NotInvertible
from cstarcat.generators import FiniteGroupoid, groupoid_category, random_block_category
from cstarcat.linalg import (
    frac_power,
    op_norm,
    span_coords,
    span_eval,
    span_project,
    span_residual,
)


def test_verify_full_matrix_category(m2):
    assert verify_category(m2).passed


def test_verify_fails_involution_closure():
    # hom(0,1) holds a non-Hermitian direction whose adjoint is missing
    cat = CStarCategory(
        [("x", 1), ("y", 1)],
        {
            (0, 0): [np.eye(1)],
            (1, 1): [np.eye(1)],
            (0, 1): [np.ones((1, 1))],
        },
    )
    report = verify_category(cat)
    assert not report.passed
    failed = {c.name for c in report.failures()}
    assert "involution-closure" in failed


def test_verify_generated_categories_pass():
    for seed in range(5):
        cat, _ = random_block_category(seed)
        assert verify_category(cat, seed=seed).passed
    g = groupoid_category(FiniteGroupoid.codiscrete(3))
    assert verify_category(g).passed


def test_compose_identity_and_zero(cat23):
    rng = np.random.default_rng(0)
    g = cat23.random_morphism(rng, 0, 1)
    assert np.allclose(compose(cat23.unit(1), g).mat, g.mat)
    assert np.allclose(compose(cat23.zero(1, 0), g).mat, 0)


def test_compose_matches_matrix_product(cat23):
    rng = np.random.default_rng(1)
    for _ in range(5):
        g = cat23.random_morphism(rng, 0, 1)
        f = cat23.random_morphism(rng, 1, 0)
        assert np.allclose(compose(f, g).mat, f.mat @ g.mat)


def test_compose_object_mismatch(cat23):
    f = cat23.unit(0)
    g = cat23.unit(1)
    with pytest.raises(CompositionMismatch):
        compose(f, g)


def test_compose_closure_violation():
    # span{id, N} with N the 3x3 jordan shift: N@N falls outside
    shift = np.zeros((3, 3), dtype=complex)
    shift[0, 1] = shift[1, 2] = 1.0
    cat = CStarCategory([("x", 3)], {(0, 0): [np.eye(3), shift, shift.conj().T]})
    n = cat.morphism(0, 0, shift)
    with pytest.raises(ClosureViolation):
        compose(n, n)


def test_involute_hermitian_fixed(m2):
    h = m2.morphism(0, 0, np.array([[1.0, 2.0], [2.0, -1.0]]))
    assert np.allclose(involute(h).mat, h.mat)


def test_involute_is_involutive(cat23):
    rng = np.random.default_rng(2)
    f = cat23.random_morphism(rng, 0, 1)
    assert np.allclose(involute(involute(f)).mat, f.mat)


def test_involute_antimultiplicative(cat23):
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = cat23.random_morphism(rng, 0, 1)
        f = cat23.random_morphism(rng, 1, 0)
        lhs = involute(compose(f, g))
        rhs = compose(involute(g), involute(f))
        assert op_norm(lhs.mat - rhs.mat) <= 1e-12


def test_factorize_zero(cat23):
    v, w = factorize(cat23.zero(0, 1))
    assert op_norm(v.mat) <= 1e-12 and op_norm(w.mat) <= 1e-12


def test_factorize_unitary(m2):
    u = m2.morphism(0, 0, np.array([[0.0, 1.0], [1.0, 0.0]]))
    v, w = factorize(u)
    assert np.allclose(w.mat, np.eye(2), atol=1e-10)
    assert np.allclose(v.mat, u.mat, atol=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_factorize_recomposition(seed):
    cat, _ = random_block_category(seed)
    rng = np.random.default_rng(seed + 100)
    x, y = rng.integers(0, cat.n_objects, 2)
    u = cat.random_morphism(rng, int(x), int(y))
    v, w = factorize(u)
    assert w.src == w.dst == u.src
    assert op_norm(u.mat - v.mat @ w.mat) <= 1e-8 * max(u.norm(), 1.0)
    s, t = cofactorize(u)
    assert s.src == s.dst == u.dst
    assert op_norm(u.mat - s.mat @ t.mat) <= 1e-8 * max(u.norm(), 1.0)


@pytest.mark.parametrize("seed, x, y, w", [(1, 0, 2, 1), (2, 1, 2, 0), (4, 1, 0, 2), (7, 0, 1, 2)])
def test_factorize_matches_two_power_form(seed, x, y, w):
    # one psd_eigh serves both quarter powers; the result is the
    # frac_power(gram, 0.25) / frac_power(gram, -0.25) form to the bit
    cat, _ = random_block_category(seed)
    rng = np.random.default_rng(seed + 200)
    u = cat.random_morphism(rng, x, y)
    f = cat.random_morphism(rng, w, x)
    # through the smaller object w, u (f f*) has rank at most dim(w) < dim(x)
    deficient = cat.morphism(x, y, u.mat @ f.mat @ f.mat.conj().T)
    assert np.linalg.matrix_rank(deficient.mat, tol=cat.tol.atol) <= cat.dim(w) < cat.dim(x)
    for a in (u, deficient):
        gram = a.mat.conj().T @ a.mat
        v, w_fac = factorize(a)
        assert np.array_equal(v.mat, a.mat @ frac_power(gram, -0.25, cat.tol))
        assert np.array_equal(w_fac.mat, frac_power(gram, 0.25, cat.tol))


def test_polar_of_unitary_is_itself(m2):
    mat = np.array([[0.0, 1.0j], [1.0, 0.0]])
    u = polar_unitary(m2.morphism(0, 0, mat))
    assert np.allclose(u.mat, mat, atol=1e-10)


def test_polar_scalar_collapse(m2):
    u = polar_unitary(m2.morphism(0, 0, 2.0 * np.eye(2)))
    assert np.allclose(u.mat, np.eye(2), atol=1e-10)


def test_polar_random_invertible(m2):
    rng = np.random.default_rng(4)
    for _ in range(10):
        mat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 3 * np.eye(2)
        u = polar_unitary(m2.morphism(0, 0, mat))
        assert op_norm(u.mat.conj().T @ u.mat - np.eye(2)) <= 1e-8
        assert op_norm(u.mat @ u.mat.conj().T - np.eye(2)) <= 1e-8


def test_polar_rejects_singular(m2):
    with pytest.raises(NotInvertible):
        polar_unitary(m2.morphism(0, 0, np.diag([1.0, 0.0])))


def test_identity_functor_passes(m2):
    report = verify_functor(identity_functor(m2))
    assert report.passed


def test_functor_killing_direction_is_norm_decreasing():
    p = np.diag([1.0, 0.0]).astype(complex)
    cat = CStarCategory([("x", 2)], {(0, 0): [np.eye(2), p]})
    basis = cat.hom_basis(0, 0)
    # in coordinates a*id + b*p, the map (a, b) -> (a, 0) is a *-homomorphism
    frame = np.stack([np.eye(2, dtype=complex).ravel(), p.ravel()], axis=1)
    images = []
    for b in basis:
        a_coef, _ = np.linalg.lstsq(frame, b.ravel(), rcond=None)[0]
        images.append(a_coef * np.eye(2, dtype=complex))
    F = CStarFunctor(cat, cat, [0], {(0, 0): np.stack(images)})
    report = verify_functor(F)
    names = {c.name: c for c in report.checks}
    assert names["norm-decrease"].passed
    assert names["multiplicativity"].passed


def test_unitary_conjugation_functor_isometric(cat23):
    from cstarcat.generators import unitary_twist_functor

    F = unitary_twist_functor(cat23, seed=5)
    report = verify_functor(F)
    assert report.passed
    names = {c.name: c for c in report.checks}
    assert names["isometry-on-injective"].passed


def test_hom_coords_on_empty_hom_space():
    from cstarcat.category import CStarCategory

    cat = CStarCategory([("x", 2), ("y", 3)], {(0, 0): [np.eye(2)], (1, 1): [np.eye(3)]})
    assert cat.hom_coords(0, 1, np.zeros((3, 2))).shape == (0,)
    assert cat.hom_coords(0, 1, np.zeros((5, 3, 2))).shape == (5, 0)


def test_hom_coords_of_a_stack(cat23):
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
    coords = cat23.hom_coords(0, 1, stack)
    assert coords.shape == (4, cat23.hom_dim(0, 1))
    for c, m in zip(coords, stack):
        assert np.allclose(c, cat23.hom_coords(0, 1, m), atol=1e-14)
        assert np.allclose(cat23.hom_element(0, 1, c).mat, m, atol=1e-12)


def test_out_of_range_keys_are_rejected(m2):
    from cstarcat.category import CStarCategory, CStarFunctor
    from cstarcat.errors import InvalidInput

    with pytest.raises(InvalidInput):
        CStarCategory([("x", 2), ("y", 2)], {(0, 0): [np.eye(2)], (7, 1): [np.eye(2)]})
    with pytest.raises(InvalidInput):
        CStarCategory([("x", 2)], {(-1, 0): [np.eye(2)]})
    action = {(0, 0): m2.hom_basis(0, 0), (0, 1): m2.hom_basis(0, 0)}
    with pytest.raises(InvalidInput):
        CStarFunctor(m2, m2, [0], action)


def _reference_block_project(cat, src_lst, dst_lst, mat):
    """One span projection per block."""
    out = np.zeros_like(mat)
    rows, cols = block_slices(cat, dst_lst), block_slices(cat, src_lst)
    for j, y in enumerate(dst_lst):
        for i, x in enumerate(src_lst):
            out[rows[j], cols[i]] = span_project(mat[rows[j], cols[i]], cat.hom_basis(x, y))
    return out


def _zero_object_pair(cat, src_lst, dst_lst, mat, x, y):
    """``mat`` with every block from object x to object y set to zero."""
    out = mat.copy()
    rows, cols = block_slices(cat, dst_lst), block_slices(cat, src_lst)
    for j, yj in enumerate(dst_lst):
        for i, xi in enumerate(src_lst):
            if (xi, yj) == (x, y):
                out[rows[j], cols[i]] = 0.0
    return out


@pytest.mark.parametrize("seed", [3, 5])
@pytest.mark.parametrize("src_lst, dst_lst", [
    ((0, 1, 0), (1, 0, 2, 0)),
    ((2,), (0, 2, 1, 2)),
    ((1, 2, 1), (0,)),
    ((0, 0, 1), (1, 1)),
    ((1, 1), (0, 0, 1)),
    ((2, 0, 2, 1), (0, 1, 0)),  # hom(0, 1) and hom(1, 0) are empty at seed 3
])
def test_block_project_matches_per_block_loop(seed, src_lst, dst_lst):
    cat, _ = random_block_category(seed, n_objects=3)
    assert any(cat.hom_dim(x, y) == 0 for x in range(3) for y in range(3))
    rng = np.random.default_rng(seed)
    shape = (sum(cat.dim(y) for y in dst_lst), sum(cat.dim(x) for x in src_lst))
    mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # the blocks of one object pair with a nonzero hom-space exactly zero
    x, y = next((x, y) for y in dst_lst for x in src_lst if cat.hom_dim(x, y))
    zeroed = _zero_object_pair(cat, src_lst, dst_lst, mat, x, y)
    for m in (mat, zeroed):
        ref = _reference_block_project(cat, src_lst, dst_lst, m)
        got = block_project(cat, src_lst, dst_lst, m)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(m))
        assert block_residual(cat, src_lst, dst_lst, m) == pytest.approx(
            np.linalg.norm(m - ref), rel=1e-12)
    assert not np.any(got[zeroed != mat])


def test_block_project_takes_stacks():
    """A stack is projected and measured matrix by matrix."""
    cat, _ = random_block_category(5, n_objects=3)
    src_lst, dst_lst = (0, 1, 0), (1, 1, 2)
    rng = np.random.default_rng(1)
    shape = (4, sum(cat.dim(y) for y in dst_lst), sum(cat.dim(x) for x in src_lst))
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = block_project(cat, src_lst, dst_lst, stack)
    res = block_residual(cat, src_lst, dst_lst, stack)
    assert res.shape == (4,)
    for m, g, r in zip(stack, got, res):
        ref = _reference_block_project(cat, src_lst, dst_lst, m)
        assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(m))
        assert r == pytest.approx(np.linalg.norm(m - ref), rel=1e-12)
    with pytest.raises(InvalidInput):
        block_project(cat, src_lst, dst_lst, stack[..., :-1])


@pytest.mark.parametrize("lead", [(), (2, 3)])
@pytest.mark.parametrize("lst", [(0, 1, 2), (1, 1, 1), (2, 0, 0), (0, 1, 0)])
def test_block_view_matches_fancy_index(lst, lead):
    """Runs are read and written through slice views, interleaved objects
    through fancy indices; both give what the fancy-index form gives."""
    cat, _ = random_block_category(3, n_objects=3)
    other = (2, 1, 1, 0)
    rng = np.random.default_rng(len(lst))
    shape = lead + (sum(cat.dim(y) for y in lst), sum(cat.dim(x) for x in other))
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rows, cols = _layout(cat, lst).plan, _layout(cat, other).plan
    at = {x: [i for i, v in enumerate(lst) if v == x] for x in set(lst)}
    assert {x for x, r in rows.items() if r.run is None} == {
        x for x, pos in at.items() if pos != list(range(pos[0], pos[0] + len(pos)))}
    for r in rows.values():
        for c in cols.values():
            fancy = (Ellipsis, r.idx[:, None, :, None], c.idx[None, :, None, :])
            got = _block_view(arr, r, c)
            assert np.array_equal(got, arr[fancy])
            assert np.shares_memory(got, arr) == (r.run is not None and c.run is not None)
            out, ref = np.zeros_like(arr), np.zeros_like(arr)
            _set_blocks(out, r, c, arr[fancy])
            ref[fancy] = arr[fancy]
            assert np.array_equal(out, ref)


def _entry_offsets(cat, lst):
    """Row offsets of the entries of an object list, summed one by one."""
    offs = [0]
    for x in lst:
        offs.append(offs[-1] + cat.dim(x))
    return [slice(a, b) for a, b in zip(offs, offs[1:])]


@pytest.mark.parametrize("src_lst, dst_lst", [
    ((0, 1, 0), (2, 0, 2, 1)),
    ((2, 0, 2, 1), (0, 1, 0)),
    ((1,), (0, 0)),  # every hom-space empty
])
def test_block_basis_stack_and_random_block_keep_the_entry_order(src_lst, dst_lst):
    """The hull basis order reaches serialized output and the draw order of
    ``random_block`` every seeded input: both go entry by entry, target
    entry outermost, against references that build one block at a time."""
    cat, _ = random_block_category(3, n_objects=3)
    assert any(cat.hom_dim(x, y) == 0 for y in dst_lst for x in src_lst)
    rows, cols = _entry_offsets(cat, dst_lst), _entry_offsets(cat, src_lst)
    shape = (rows[-1].stop, cols[-1].stop)
    mats = []
    for r, y in zip(rows, dst_lst):
        for c, x in zip(cols, src_lst):
            for b in cat.hom_basis(x, y):
                mats.append(np.zeros(shape, dtype=np.complex128))
                mats[-1][r, c] = b
    ref = np.stack(mats) if mats else np.zeros((0,) + shape, dtype=np.complex128)
    assert np.array_equal(block_basis_stack(cat, src_lst, dst_lst), ref)

    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    ref = np.zeros(shape, dtype=np.complex128)
    for r, y in zip(rows, dst_lst):
        for c, x in zip(cols, src_lst):
            ref[r, c] = cat.random_morphism(ref_rng, x, y).mat
    assert np.array_equal(random_block(rng, cat, src_lst, dst_lst), ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("bad", [2, 5, -1])
def test_block_helpers_reject_bad_object_indices(bad):
    """An object index out of range, or negative, is ``InvalidInput`` in
    every block helper, never a bare ``IndexError`` or a wrapped lookup."""
    cat, _ = random_block_category(3, n_objects=2)
    assert [cat.dim(x) for x in range(2)] == [1, 2]
    one = np.zeros((1, 1))
    calls = [
        lambda: list_dim(cat, (bad,)),
        lambda: block_slices(cat, (0, bad)),
        lambda: block_project(cat, (bad,), (0,), one),
        lambda: block_project(cat, (0,), (bad,), one),
        lambda: block_basis_stack(cat, (bad,), (0,)),
        lambda: random_block(np.random.default_rng(0), cat, (0,), (bad, 1)),
        lambda: column_sup_norm(cat, (bad,), one),
        lambda: matrix_algebra(cat).position(bad, 0),
        lambda: matrix_algebra(cat).position(0, bad),
    ]
    for call in calls:
        with pytest.raises(InvalidInput):
            call()


def test_block_project_tells_shape_from_non_finite_entries():
    cat, _ = random_block_category(3, n_objects=2)
    stack = np.zeros((1, 2, 2))
    with pytest.raises(InvalidInput, match="shape") as wrong:
        block_project(cat, (1,), (0,), stack)
    assert "finite" not in str(wrong.value)
    stack[0, 0, 1] = np.nan
    with pytest.raises(InvalidInput, match="non-finite") as nan:
        block_project(cat, (1,), (1,), stack)
    assert "shape" not in str(nan.value)


@pytest.mark.parametrize("shapes", [[], [(0, 0)], [(2, 0), (0, 3)], [(1, 2), (0, 0), (3, 1)]])
def test_block_diagonal_places_each_block(shapes):
    rng = np.random.default_rng(4)
    blocks = [rng.standard_normal(s) for s in shapes]
    out = _block_diagonal(blocks)
    assert out.shape == (sum(s[0] for s in shapes), sum(s[1] for s in shapes))
    r = c = 0
    for b in blocks:
        assert np.array_equal(out[r:r + b.shape[0], c:c + b.shape[1]], b)
        r, c = r + b.shape[0], c + b.shape[1]
    assert np.count_nonzero(out) == sum(np.count_nonzero(b) for b in blocks)


def _reference_closure(cat):
    """Unit, involution and composition residuals, one element at a time."""
    n = cat.n_objects
    unit = max(span_residual(np.eye(cat.dim(x)), cat.hom_basis(x, x)) for x in range(n))
    inv = comp = 0.0
    for x in range(n):
        for y in range(n):
            for b in cat.hom_basis(x, y):
                inv = max(inv, span_residual(b.conj().T, cat.hom_basis(y, x)))
            for z in range(n):
                for f in cat.hom_basis(y, z):
                    for g in cat.hom_basis(x, y):
                        comp = max(comp, span_residual(f @ g, cat.hom_basis(x, z)))
    return {"unit-membership": unit, "involution-closure": inv, "composition-closure": comp}


def _not_closed_category():
    """hom(0, 1) holds a matrix unit, hom(1, 0) not its adjoint, and
    hom(0, 0) leaves out the unit."""
    e = np.zeros((2, 2))
    e[0, 1] = 1.0
    return CStarCategory([("x", 2), ("y", 2)], {(0, 0): [e], (0, 1): [e], (1, 0): [e.T + e]})


@pytest.mark.parametrize("case", [3, 5, 9, "not-closed"])
def test_closure_residuals_match_per_element_loop(case):
    if case == "not-closed":
        cat = _not_closed_category()
    else:
        cat, _ = random_block_category(case, n_objects=3)
    checks = {c.name: c.residual for c in verify_category(cat).checks}
    for name, ref in _reference_closure(cat).items():
        assert abs(checks[name] - ref) <= 1e-13 * max(ref, 1.0)
    if case == "not-closed":
        assert min(_reference_closure(cat).values()) > 0.1


def _reference_functor_residuals(F):
    """Multiplicativity and *-preservation, one basis element at a time."""
    src, n = F.source, F.source.n_objects

    def image(x, y, mat):
        return span_eval(span_coords(mat, src.hom_basis(x, y)), F.image_stack(x, y),
                         shape=F.image_stack(x, y).shape[1:])

    mult = star = 0.0
    for x in range(n):
        for y in range(n):
            for b, Fb in zip(src.hom_basis(x, y), F.image_stack(x, y)):
                star = max(star, op_norm(image(y, x, b.conj().T) - Fb.conj().T))
            for z in range(n):
                for f, Ff in zip(src.hom_basis(y, z), F.image_stack(y, z)):
                    for g, Fg in zip(src.hom_basis(x, y), F.image_stack(x, y)):
                        mult = max(mult, op_norm(image(x, z, f @ g) - Ff @ Fg))
    return {"multiplicativity": mult, "star-preservation": star}


@pytest.mark.parametrize("perturb", [0.0, 0.3])
def test_functor_residuals_match_per_element_loop(perturb):
    from cstarcat.generators import unitary_twist_functor

    cat, _ = random_block_category(5, n_objects=3)
    F = unitary_twist_functor(cat, seed=2)
    rng = np.random.default_rng(4)
    action = {
        (x, y): F.image_stack(x, y) + perturb * rng.standard_normal(F.image_stack(x, y).shape)
        for x in range(3) for y in range(3)
    }
    F = CStarFunctor(cat, cat, range(3), action)
    checks = {c.name: c.residual for c in verify_functor(F).checks}
    for name, ref in _reference_functor_residuals(F).items():
        assert abs(checks[name] - ref) <= 1e-13 * max(ref, 1.0)
        assert (ref > 0.01) == (perturb > 0)
    with pytest.raises(ClosureViolation):
        verify_functor(identity_functor(_not_closed_category()))


def assert_projection_report_bounds_three_norms(cat, base, p):
    """The three-norm form is the reference: ``proj-idempotent`` equals
    ||P² - P|| within rounding when P is Hermitian and bounds it otherwise,
    no threshold is looser, and the other two residuals are unchanged."""
    from cstarcat.category import _projection_report

    herm, idem, span = _projection_report(cat, base, p, cat.tol).checks
    scale = max(op_norm(p), 1.0)
    slack = 8 * np.finfo(float).eps * p.shape[0] * scale
    ref = op_norm(p @ p - p)
    assert herm.residual == op_norm(p - p.conj().T)
    if herm.residual == 0.0:
        assert abs(idem.residual - ref) <= slack
    else:
        assert idem.residual >= ref - slack
    assert span.residual == block_residual(cat, base, base, p)
    # ||H|| <= ||P||, up to the rounding of the two eigensolves
    assert all(c.threshold <= cat.tol.bound(scale + slack) for c in (herm, idem, span))
    return herm, idem


@pytest.mark.parametrize("symmetrized", [False, True])
def test_projection_report_against_three_norm_reference(symmetrized):
    from cstarcat.generators import random_block_projection

    cat, _ = random_block_category(4, n_objects=2, max_mult=2)
    rng = np.random.default_rng(1)
    for base in [(0,), (1, 0, 1), (0, 0, 1, 1)]:
        p = random_block_projection(rng, cat, base)
        p = p + 1e-13 * rng.standard_normal(p.shape)
        if symmetrized:
            p = 0.5 * (p + p.conj().T)
        herm, idem = assert_projection_report_bounds_three_norms(cat, base, p)
        assert (herm.residual == 0.0) == symmetrized
        assert idem.passed
