"""Multiplier spaces, κ-bijectivity, arrays, composition, the hull swap."""

import numpy as np
import pytest

from cstarcat.category import CStarCategory, additive_hull, cofactorize, compose, factorize
from cstarcat.errors import InvalidInput
from cstarcat.generators import FiniteGroupoid, groupoid_category, random_block_category
from cstarcat.linalg import op_norm
from cstarcat.multipliers import (
    MultiplierArrays,
    MultiplierMorphism,
    _law_residual,
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


# -- the array form from the unit images -----------------------------------


def _e11_category():
    """hom(0,0) = span{E11} does not contain the identity of ℂ²; its unit
    is the projection E11."""
    e11 = np.array([[1, 0], [0, 0]], dtype=complex)
    homs = {(0, 0): [e11], (1, 1): [np.eye(1)],
            (0, 1): [np.array([[1, 0]])], (1, 0): [np.array([[1], [0]])]}
    return CStarCategory([("a", 2), ("b", 1)], homs)


CASES = {
    **{f"block{seed}": lambda seed=seed: random_block_category(seed)[0] for seed in range(6)},
    "hull8": lambda: additive_hull(random_block_category(8, n_objects=2)[0]).cat,
    "cyclic3": lambda: groupoid_category(FiniteGroupoid.cyclic(3)),
    "e11": _e11_category,
}


def _multipliers(cat, seed=0):
    """Two null-space multipliers and one κ(a) per hom pair."""
    rng = np.random.default_rng(seed)
    out = []
    for x in range(cat.n_objects):
        for y in range(cat.n_objects):
            out.extend(multiplier_space(cat, x, y)[:2])
            if cat.hom_dim(x, y):
                out.append(kappa(cat, cat.random_morphism(rng, x, y)))
    return out


def _factorized_arrays(m):
    """The array form through one factorization f = s∘t per basis element,
    L_w(f) = L(s)∘t and R_z(g) = v∘R(w) for g = v∘w: the former route."""
    cat, x, y = m.cat, m.src, m.dst
    L_maps, R_maps = {}, {}
    for w in range(cat.n_objects):
        cols = np.zeros((cat.hom_dim(w, y), cat.hom_dim(w, x)), dtype=complex)
        for i, f in enumerate(cat.hom_basis(w, x)):
            s, t = cofactorize(cat.morphism(w, x, f, validate=False))
            cols[:, i] = cat.hom_coords(w, y, compose(m.apply_L(s), t, validate=False).mat)
        L_maps[w] = cols
    for z in range(cat.n_objects):
        cols = np.zeros((cat.hom_dim(x, z), cat.hom_dim(y, z)), dtype=complex)
        for i, g in enumerate(cat.hom_basis(y, z)):
            v, w_end = factorize(cat.morphism(y, z, g, validate=False))
            cols[:, i] = cat.hom_coords(x, z, compose(v, m.apply_R(w_end), validate=False).mat)
        R_maps[z] = cols
    return L_maps, R_maps


def _probe_norm(m, probes=16, seed=0):
    """sup ||L(f)|| / ||f|| over the unit and random probes: the former route."""
    cat = m.cat
    rng = np.random.default_rng(seed)
    candidates = [cat.unit(m.src)]
    candidates += [cat.random_morphism(rng, m.src, m.src) for _ in range(probes)]
    return max(m.apply_L(f).norm() / f.norm() for f in candidates if f.norm() > cat.tol.atol)


@pytest.mark.parametrize("name", sorted(CASES))
def test_unit_image_arrays_match_factorization_route(name):
    cat = CASES[name]()
    for m in _multipliers(cat):
        arrays = multiplier_to_arrays(m)
        L_ref, R_ref = _factorized_arrays(m)
        for obj in range(cat.n_objects):
            assert np.abs(arrays.L_maps[obj] - L_ref[obj]).max(initial=0.0) <= 1e-12
            assert np.abs(arrays.R_maps[obj] - R_ref[obj]).max(initial=0.0) <= 1e-12
        assert abs(multiplier_norm(m) - _probe_norm(m)) <= 1e-12


def _law_residual_loop(arrays):
    """Worst residual and largest side of the array laws, one sample and
    three ``op_norm`` calls per pair of basis elements: the former check."""
    cat, x, y = arrays.cat, arrays.src, arrays.dst

    def l_apply(w, f):
        return cat.hom_element(w, y, arrays.L_maps[w] @ cat.hom_coords(w, x, f)).mat

    def r_apply(z, g):
        return cat.hom_element(x, z, arrays.R_maps[z] @ cat.hom_coords(y, z, g)).mat

    objs = range(cat.n_objects)
    samples = []
    for w in objs:
        for wp in objs:
            for f in cat.hom_basis(w, x):
                for h in cat.hom_basis(wp, w):
                    samples.append((l_apply(w, f) @ h, l_apply(wp, f @ h)))
    for z in objs:
        for zp in objs:
            for g in cat.hom_basis(y, z):
                for h in cat.hom_basis(z, zp):
                    samples.append((h @ r_apply(z, g), r_apply(zp, h @ g)))
    for w in objs:
        for z in objs:
            for f in cat.hom_basis(w, x):
                for g in cat.hom_basis(y, z):
                    samples.append((r_apply(z, g) @ f, g @ l_apply(w, f)))
    worst = max(op_norm(lhs - rhs) for lhs, rhs in samples)
    scale = max(max(op_norm(lhs), op_norm(rhs)) for lhs, rhs in samples)
    return worst, scale


@pytest.mark.parametrize("seed", range(4))
def test_stacked_law_check_matches_per_sample_loop(seed):
    cat, _ = random_block_category(seed)
    objs = range(cat.n_objects)
    x, y = max(((x, y) for x in objs for y in objs),
               key=lambda p: (cat.hom_dim(*p) > 0, p[0] != p[1]))
    arrays = multiplier_to_arrays(multiplier_space(cat, x, y)[0])
    broken_l = {w: mat + 0.2 for w, mat in arrays.L_maps.items()}
    broken_r = {z: mat - 0.4j for z, mat in arrays.R_maps.items()}
    for L_maps, R_maps in ((arrays.L_maps, arrays.R_maps), (broken_l, arrays.R_maps),
                           (arrays.L_maps, broken_r)):
        trial = MultiplierArrays(cat, x, y, L_maps, R_maps)
        worst, scale = _law_residual(trial)
        worst_ref, scale_ref = _law_residual_loop(trial)
        assert abs(worst - worst_ref) <= 1e-13 * scale_ref
        assert abs(scale - scale_ref) <= 1e-13 * scale_ref
    assert _law_residual_loop(MultiplierArrays(cat, x, y, broken_l, arrays.R_maps))[0] > 0.1


def test_array_form_takes_no_eigensolve(monkeypatch):
    cat, _ = random_block_category(3)
    rng = np.random.default_rng(3)
    b = kappa(cat, cat.random_morphism(rng, 0, 1))
    a = kappa(cat, cat.random_morphism(rng, 1, 2))
    calls = []

    def counting(name):
        real = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    compose_multipliers(a, b)
    multiplier_to_arrays(a)
    assert calls == []


def test_multiplier_rejects_scrambled_coordinates():
    cat, _ = random_block_category(1)
    m = multiplier_space(cat, 0, 1)[0]
    assert m.L.shape == (2, 8)
    with pytest.raises(InvalidInput):
        MultiplierMorphism(cat, 0, 1, m.L.T, m.R)
    with pytest.raises(InvalidInput):
        MultiplierMorphism(cat, 0, 1, m.L, m.R.ravel()[:-1])
    flat = MultiplierMorphism(cat, 0, 1, m.L.ravel(), m.R.ravel())
    assert np.array_equal(flat.vec(), m.vec())


def test_arrays_need_one_map_of_the_right_shape_per_object():
    cat, _ = random_block_category(1)
    arrays = multiplier_to_arrays(multiplier_space(cat, 0, 1)[0])
    L_maps, R_maps = arrays.L_maps, arrays.R_maps
    missing = {w: mat for w, mat in L_maps.items() if w != 2}
    extra = {**R_maps, 3: R_maps[0]}
    transposed = {**L_maps, 0: L_maps[0].T}
    for bad_l, bad_r in ((missing, R_maps), (L_maps, extra), (transposed, R_maps)):
        with pytest.raises(InvalidInput):
            multiplier_from_arrays(cat, 0, 1, bad_l, bad_r)
