"""Category axioms, composition, factorization, polar parts, functors."""

import numpy as np
import pytest

from cstarcat.category import (
    CStarCategory,
    CStarFunctor,
    cofactorize,
    compose,
    factorize,
    identity_functor,
    involute,
    polar_unitary,
    verify_category,
    verify_functor,
)
from cstarcat.errors import ClosureViolation, CompositionMismatch, NotInvertible
from cstarcat.generators import FiniteGroupoid, groupoid_category, random_block_category
from cstarcat.linalg import frac_power, op_norm


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
