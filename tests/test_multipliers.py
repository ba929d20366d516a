"""Multiplier spaces, κ-bijectivity, arrays, composition, the hull swap."""

import numpy as np
import pytest

from cstarcat.category import additive_hull, compose
from cstarcat.generators import FiniteGroupoid, groupoid_category, random_block_category
from cstarcat.linalg import op_norm
from cstarcat.multipliers import (
    compose_multipliers,
    involute_multiplier,
    kappa,
    multiplier_category,
    multiplier_from_arrays,
    multiplier_norm,
    multiplier_space,
    multiplier_to_arrays,
)


def test_multiplier_space_dimension_full_matrices(m2):
    # unital: the multiplier space has the hom-space dimension
    space = multiplier_space(m2, 0, 0)
    assert len(space) == m2.hom_dim(0, 0)


@pytest.mark.parametrize("seed", range(4))
def test_multiplier_category_unital_collapse(seed):
    cat, _ = random_block_category(seed)
    mult = multiplier_category(cat)
    report = mult.verify()
    assert report.passed, str(report)
    for x in range(cat.n_objects):
        for y in range(cat.n_objects):
            assert mult.dim(x, y) == cat.hom_dim(x, y)


def _dihedral(n):
    names = [f"r{i}" for i in range(n)] + [f"s{i}" for i in range(n)]
    table = [[0] * 2 * n for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            table[i][j] = (i + j) % n
            table[i][j + n] = n + (i + j) % n
            table[i + n][j] = n + (i - j) % n
            table[i + n][j + n] = (i - j) % n
    return FiniteGroupoid.from_group_table(names, table)


@pytest.mark.parametrize("group", [
    FiniteGroupoid.cyclic(9), FiniteGroupoid.cyclic(10), _dihedral(5),
], ids=["cyclic9", "cyclic10", "dihedral5"])
def test_multiplier_collapse_on_larger_groups(group):
    # constraint systems of 2187×162 to 3000×200: the zoo members the
    # full-SVD null space was too slow for
    cat = groupoid_category(group)
    mult = multiplier_category(cat)
    assert mult.dim(0, 0) == cat.hom_dim(0, 0) == len(group.morphisms)
    report = mult.verify()
    assert report.passed, str(report)


def test_kappa_compatibility_identity():
    cat, _ = random_block_category(1)
    rng = np.random.default_rng(1)
    x, y = 0, min(1, cat.n_objects - 1)
    a = cat.random_morphism(rng, x, y)
    m = kappa(cat, a)
    # R(g)∘f = g∘L(f) on random endomorphisms
    for _ in range(5):
        f = cat.random_morphism(rng, x, x)
        g = cat.random_morphism(rng, y, y)
        lhs = m.apply_R(g).mat @ f.mat
        rhs = g.mat @ m.apply_L(f).mat
        assert op_norm(lhs - rhs) <= 1e-10


def test_kappa_recovers_morphism():
    cat, _ = random_block_category(2)
    mult = multiplier_category(cat)
    rng = np.random.default_rng(2)
    a = cat.random_morphism(rng, 0, cat.n_objects - 1)
    back = mult.kappa_inverse(kappa(cat, a))
    assert op_norm(back.mat - a.mat) <= 1e-10


def test_kappa_composition_transport():
    cat, _ = random_block_category(3)
    rng = np.random.default_rng(3)
    x, y, z = 0, 1 % cat.n_objects, (cat.n_objects - 1)
    b = cat.random_morphism(rng, x, y)
    a = cat.random_morphism(rng, y, z)
    composite = compose_multipliers(kappa(cat, a), kappa(cat, b))
    direct = kappa(cat, compose(a, b))
    assert np.linalg.norm(composite.vec() - direct.vec()) <= 1e-8


def test_kappa_involution_transport():
    cat, _ = random_block_category(4)
    rng = np.random.default_rng(4)
    a = cat.random_morphism(rng, 0, cat.n_objects - 1)
    lhs = involute_multiplier(kappa(cat, a))
    rhs = kappa(cat, a.adjoint())
    assert np.linalg.norm(lhs.vec() - rhs.vec()) <= 1e-10


def test_arrays_of_kappa_are_compositions():
    cat, _ = random_block_category(5)
    rng = np.random.default_rng(5)
    a = cat.random_morphism(rng, 0, cat.n_objects - 1)
    arrays = multiplier_to_arrays(kappa(cat, a))
    for w in range(cat.n_objects):
        f = cat.random_morphism(rng, w, a.src)
        img = cat.hom_element(w, a.dst, arrays.L_maps[w] @ cat.hom_coords(w, a.src, f.mat))
        assert op_norm(img.mat - a.mat @ f.mat) <= 1e-8


def test_array_round_trip():
    cat, _ = random_block_category(6)
    x, y = 0, cat.n_objects - 1
    space = multiplier_space(cat, x, y)
    m = space[0]
    arrays = multiplier_to_arrays(m)
    rebuilt = multiplier_from_arrays(cat, x, y, arrays.L_maps, arrays.R_maps)
    assert np.linalg.norm(rebuilt.vec() - m.vec()) <= 1e-8


def test_array_norm_equality():
    # sup over objects of the array norms equals the norm at the source,
    # attained at the unit in the unital case
    cat, _ = random_block_category(7)
    rng = np.random.default_rng(7)
    x, y = 0, cat.n_objects - 1
    a = cat.random_morphism(rng, x, y)
    m = kappa(cat, a)
    arrays = multiplier_to_arrays(m)
    norm_at_src = multiplier_norm(m)
    assert norm_at_src == pytest.approx(a.norm(), rel=1e-9)
    for w in range(cat.n_objects):
        for _ in range(8):
            f = cat.random_morphism(rng, w, x)
            nf = f.norm()
            if nf <= 1e-10:
                continue
            img = cat.hom_element(w, y, arrays.L_maps[w] @ cat.hom_coords(w, x, f.mat))
            assert img.norm() / nf <= norm_at_src + 1e-8


def test_incompatible_arrays_rejected():
    from cstarcat.errors import InvalidInput

    cat, _ = random_block_category(9)
    x, y = 0, cat.n_objects - 1
    m = multiplier_space(cat, x, y)[0]
    arrays = multiplier_to_arrays(m)
    broken = {w: mat.copy() for w, mat in arrays.L_maps.items()}
    if broken[x].size == 0:
        pytest.skip("empty map for this seed")
    broken[x] = broken[x] + 0.2 * np.ones_like(broken[x])
    with pytest.raises(InvalidInput):
        multiplier_from_arrays(cat, x, y, broken, arrays.R_maps)


def test_hull_and_multiplier_commute():
    # multipliers of the hull vs blocks of multipliers: dimensions and
    # κ-transported structure constants agree
    cat, _ = random_block_category(8, n_objects=2)
    hull = additive_hull(cat)
    mult_base = multiplier_category(cat)
    mult_hull = multiplier_category(hull.cat)
    assert mult_hull.verify().passed
    # dimension comparison: both routes give the block hom dimensions
    full = hull.list_index(tuple(range(cat.n_objects)))
    expected = sum(
        mult_base.dim(x, y) for x in range(cat.n_objects) for y in range(cat.n_objects)
    )
    assert mult_hull.dim(full, full) == expected
    # structure constants through κ agree with hull composition
    rng = np.random.default_rng(8)
    b1 = hull.cat.random_morphism(rng, full, full)
    b2 = hull.cat.random_morphism(rng, full, full)
    lhs = compose_multipliers(kappa(hull.cat, b1), kappa(hull.cat, b2))
    rhs = kappa(hull.cat, compose(b1, b2))
    assert np.linalg.norm(lhs.vec() - rhs.vec()) <= 1e-7 * max(np.linalg.norm(rhs.vec()), 1.0)
