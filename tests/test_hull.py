"""Additive hull, column-sup norm, matrix algebra, idempotent completion."""

import numpy as np
import pytest

from cstarcat.category import (
    additive_hull,
    block_basis_stack,
    column_sup_norm,
    idempotent_completion,
    list_dim,
    matrix_algebra,
    random_block,
    verify_category,
    verify_functor,
)
from cstarcat.errors import InvalidInput
from cstarcat.generators import FiniteGroupoid, groupoid_category, random_block_category
from cstarcat.linalg import op_norm


def test_hull_of_singletons_is_isomorphic_copy(cat23):
    hull = additive_hull(cat23, lists=[(0,), (1,)])
    assert hull.cat.n_objects == 2
    for x in range(2):
        for y in range(2):
            assert hull.cat.hom_dim(x, y) == cat23.hom_dim(x, y)
    assert verify_category(hull.cat).passed
    assert verify_functor(hull.embedding).passed


def test_hull_repeated_object_amplifies(m2):
    hull = additive_hull(m2, lists=[(0, 0, 0)])
    assert hull.cat.hom_dim(0, 0) == 9 * m2.hom_dim(0, 0)
    assert verify_category(hull.cat, samples=1).passed


def test_hull_block_dimension_count():
    cat, _ = random_block_category(3)
    hull = additive_hull(cat)
    full = hull.list_index(tuple(range(cat.n_objects)))
    expected = sum(
        cat.hom_dim(x, y) for x in range(cat.n_objects) for y in range(cat.n_objects)
    )
    assert hull.cat.hom_dim(full, full) == expected


def test_hull_embedding_is_isometric():
    cat, _ = random_block_category(7)
    hull = additive_hull(cat)
    rng = np.random.default_rng(7)
    for _ in range(10):
        x, y = rng.integers(0, cat.n_objects, 2)
        a = cat.random_morphism(rng, int(x), int(y))
        assert hull.embedding.apply(a).norm() == pytest.approx(a.norm(), abs=1e-10)


def test_column_sup_norm_identity(cat23):
    lst = (0, 1)
    block = np.eye(list_dim(cat23, lst), dtype=complex)
    val = column_sup_norm(cat23, lst, block, probes=16, seed=0)
    assert val == pytest.approx(1.0, rel=1e-9)


def test_column_sup_norm_single_block(cat23):
    rng = np.random.default_rng(11)
    b = cat23.random_morphism(rng, 0, 1)
    lst = (0, 1)
    block = np.zeros((5, 5), dtype=complex)
    block[2:, :2] = b.mat  # single (y<-x) block
    val = column_sup_norm(cat23, lst, block, probes=16, seed=1)
    assert val == pytest.approx(op_norm(b.mat), rel=1e-8)


@pytest.mark.parametrize("seed", range(8))
def test_column_sup_norm_matches_block_operator_norm(seed):
    cat, _ = random_block_category(seed, n_objects=2 + seed % 2)
    rng = np.random.default_rng(seed + 50)
    lst = tuple(int(x) for x in rng.integers(0, cat.n_objects, 2))
    dst = tuple(int(x) for x in rng.integers(0, cat.n_objects, 2))
    block = random_block(rng, cat, lst, dst)
    val = column_sup_norm(cat, lst, block, probes=24, seed=seed)
    exact = op_norm(block)
    assert val <= exact + 1e-9
    assert val == pytest.approx(exact, rel=1e-6)


def test_matrix_algebra_one_object(m2):
    alg = matrix_algebra(m2)
    assert alg.dimension == m2.hom_dim(0, 0)


def test_matrix_algebra_two_full_objects(cat23):
    alg = matrix_algebra(cat23)
    assert alg.cat.dim(0) == 5
    assert alg.dimension == 25


def test_matrix_algebra_groupoid_dimension_count():
    g = groupoid_category(FiniteGroupoid.codiscrete(3))
    alg = matrix_algebra(g)
    expected = sum(g.hom_dim(x, y) for x in range(3) for y in range(3))
    assert alg.dimension == expected
    assert verify_category(alg.cat, samples=1).passed


def test_matrix_algebra_embedding_positions(cat23):
    alg = matrix_algebra(cat23)
    rng = np.random.default_rng(13)
    a = cat23.random_morphism(rng, 0, 1)
    embedded = alg.embed(a)
    rows, cols = alg.position(0, 1)
    assert np.allclose(embedded.mat[rows, cols], a.mat)
    assert embedded.norm() == pytest.approx(a.norm(), abs=1e-12)


def test_idempotent_completion_identity_only(cat23):
    comp = idempotent_completion(cat23)
    assert comp.cat.n_objects == 2
    for x in range(2):
        for y in range(2):
            assert comp.cat.hom_dim(x, y) == cat23.hom_dim(x, y)
    assert verify_category(comp.cat, samples=1).passed
    assert verify_functor(comp.embedding).passed


def test_idempotent_completion_rank_one_corner(m2):
    p = m2.morphism(0, 0, np.diag([1.0, 0.0]))
    comp = idempotent_completion(m2, {0: [p, np.eye(2), np.diag([0.0, 1.0])]})
    idx = comp.pair_index(0, p.mat)
    assert comp.cat.dim(idx) == 1
    assert comp.cat.hom_dim(idx, idx) == 1
    assert verify_category(comp.cat, samples=1).passed
    # the identity pair is tagged once; a supplied identity adds no pair
    label = m2.label(0)
    assert [name for name, _ in comp.cat.objects] == [
        f"({label}|id)", f"({label}|p1(rk1))", f"({label}|p2(rk1))"]


def test_idempotent_completion_rejects_non_projection(m2):
    bad = m2.morphism(0, 0, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvalidInput):
        idempotent_completion(m2, {0: [bad]})


def test_supplied_projection_splits():
    from cstarcat.generators import random_block_projection

    cat, _ = random_block_category(9)
    rng = np.random.default_rng(9)
    x = 0
    p = random_block_projection(rng, cat, (x,))
    eye = np.eye(cat.dim(x))
    if op_norm(p - eye) < 1e-9 or op_norm(p) < 1e-9:
        pytest.skip("degenerate spectral projection for this seed")
    comp = idempotent_completion(cat, {x: [p, eye - p]})
    _, _, u_p = comp.pairs[comp.pair_index(x, p)]
    _, _, u_c = comp.pairs[comp.pair_index(x, eye - p)]
    # assembled unitary conjugates p to the block-diagonal identity of its image
    u = np.concatenate([u_p.conj().T, u_c.conj().T], axis=0)
    assert op_norm(u @ u.conj().T - np.eye(cat.dim(x))) <= 1e-9
    conj = u @ p @ u.conj().T
    r = u_p.shape[1]
    expected = np.diag([1.0] * r + [0.0] * (cat.dim(x) - r))
    assert op_norm(conj - expected) <= 1e-9


def test_embedded_copy_full_onto_identity_pairs():
    cat, _ = random_block_category(10)
    comp = idempotent_completion(cat)
    rng = np.random.default_rng(10)
    for _ in range(5):
        x, y = rng.integers(0, cat.n_objects, 2)
        a = cat.random_morphism(rng, int(x), int(y))
        image = comp.embedding.apply(a)
        assert image.norm() == pytest.approx(a.norm(), abs=1e-10)
    # fullness: the hom-space dimensions at identity pairs match the base
    for x in range(cat.n_objects):
        for y in range(cat.n_objects):
            ix, iy = comp.embedding.object_map[x], comp.embedding.object_map[y]
            assert comp.cat.hom_dim(ix, iy) == cat.hom_dim(x, y)


def test_block_basis_stack_is_orthonormal(cat23):
    stack = block_basis_stack(cat23, (0, 1), (1, 0))
    k = stack.shape[0]
    gram = np.tensordot(stack.conj(), stack, axes=([1, 2], [1, 2]))
    assert np.allclose(gram, np.eye(k), atol=1e-12)
