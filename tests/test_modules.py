"""Hilbert modules: products, actions, sums, θ operators, the module
Yoneda maps, Gram positivity, free covers, splittings."""

import numpy as np
import pytest

from cstarcat.generators import (
    random_block_category,
    random_module,
    random_subprojection,
)
from cstarcat.linalg import min_herm_eig, op_norm, psd_check
from cstarcat.modules import (
    ModuleOperator,
    act,
    bounded_operator_basis,
    compact_operator_basis,
    direct_sum,
    free_cover,
    gram_matrix,
    inner_product,
    representable,
    single_rank,
    split_projection,
    unitary_operator_report,
    yoneda_element,
    yoneda_operator,
)


@pytest.fixture
def cat():
    return random_block_category(21)[0]


@pytest.fixture
def rng():
    return np.random.default_rng(21)


def test_numpy_integer_indices_are_taken_as_ints(cat):
    """A numpy integer is an object index like an int, and a module keeps
    its base as Python ints, so its payload serializes."""
    import json

    from cstarcat.io import module_payload
    from cstarcat.modules import HilbertModule

    d = cat.dim(np.int64(1))
    M = HilbertModule(cat, [np.int64(1), np.int32(1)], np.eye(2 * d))
    assert [type(x) for x in M.base] == [int, int]
    assert json.loads(json.dumps(module_payload(M)))["base"] == [1, 1]


def test_representable_eval_dimension(cat):
    for x in range(cat.n_objects):
        h = representable(cat, x)
        assert h.eval_dim(x) == cat.hom_dim(x, x)


def test_representable_inner_product_is_star_composition(cat, rng):
    x, y = 0, cat.n_objects - 1
    h = representable(cat, x)
    a = h.element(y, cat.random_morphism(rng, y, x).mat)
    b = h.element(y, cat.random_morphism(rng, y, x).mat)
    prod = inner_product(a, b)
    assert op_norm(prod.mat - a.col.conj().T @ b.col) <= 1e-12


def test_action_is_contractive(cat, rng):
    module = random_module(23, cat)
    for _ in range(10):
        y = int(rng.integers(0, cat.n_objects))
        w = int(rng.integers(0, cat.n_objects))
        e = module.random_element(rng, y)
        a = cat.random_morphism(rng, w, y)
        assert act(e, a).norm() <= e.norm() * a.norm() + 1e-10


def test_inner_product_positive_definite(cat, rng):
    module = random_module(24, cat)
    y = 0
    e = module.random_element(rng, y)
    gram = inner_product(e, e)
    assert psd_check(gram.mat)
    if e.norm() > 1e-8:
        assert op_norm(gram.mat) > 0
    zero = module.zero_element(y)
    assert op_norm(inner_product(zero, zero).mat) <= 1e-12


def test_cauchy_schwarz_psd(cat, rng):
    module = random_module(25, cat)
    for _ in range(20):
        y = int(rng.integers(0, cat.n_objects))
        e = module.random_element(rng, y)
        f = module.random_element(rng, y)
        ef = inner_product(e, f).mat
        ff = inner_product(f, f).mat
        ee = inner_product(e, e).mat
        lhs = op_norm(ff) * ee - ef @ ef.conj().T
        scale = max(op_norm(ff) * op_norm(ee), 1.0)
        assert min_herm_eig(lhs + lhs.conj().T) / 2 >= -1e-9 * scale
        # norm form of the same inequality
        assert op_norm(inner_product(f, e).mat) <= f.norm() * e.norm() + 1e-9


def test_action_compatibilities(cat, rng):
    module = random_module(26, cat)
    y = int(rng.integers(0, cat.n_objects))
    w = int(rng.integers(0, cat.n_objects))
    v = int(rng.integers(0, cat.n_objects))
    e = module.random_element(rng, y)
    f = module.random_element(rng, y)
    a = cat.random_morphism(rng, w, y)
    b = cat.random_morphism(rng, v, w)
    assert op_norm(act(e, cat.unit(y)).col - e.col) <= 1e-12
    lhs = act(act(e, a), b)
    rhs = act(e, a @ b)
    assert op_norm(lhs.col - rhs.col) <= 1e-10
    lhs2 = inner_product(e, act(f, a))
    rhs2 = inner_product(e, f) @ a
    assert op_norm(lhs2.mat - rhs2.mat) <= 1e-10


def test_direct_sum_structure(cat, rng):
    m1 = random_module(27, cat)
    m2 = random_module(28, cat)
    summed, iotas = direct_sum([m1, m2])
    assert summed.base == m1.base + m2.base
    # iota identities
    for iota, m in zip(iotas, (m1, m2)):
        assert op_norm((iota.adjoint() @ iota).block - m.proj) <= 1e-10
    total = sum((iota @ iota.adjoint()).block for iota in iotas)
    assert op_norm(total - summed.proj) <= 1e-10
    # inner products add componentwise
    y = 0
    e1, f1 = m1.random_element(rng, y), m1.random_element(rng, y)
    e2, f2 = m2.random_element(rng, y), m2.random_element(rng, y)
    e = iotas[0].apply(e1) + iotas[1].apply(e2)
    f = iotas[0].apply(f1) + iotas[1].apply(f2)
    lhs = inner_product(e, f).mat
    rhs = inner_product(e1, f1).mat + inner_product(e2, f2).mat
    assert op_norm(lhs - rhs) <= 1e-10
    # evaluation dimensions add
    for y in range(cat.n_objects):
        assert summed.eval_dim(y) == m1.eval_dim(y) + m2.eval_dim(y)


def test_single_rank_action_and_adjoint(cat, rng):
    E = random_module(29, cat)
    F = random_module(30, cat)
    x = 0
    e = E.random_element(rng, x)
    f = F.random_element(rng, x)
    theta = single_rank(f, e)
    for _ in range(5):
        y = int(rng.integers(0, cat.n_objects))
        ep = E.random_element(rng, y)
        image = theta.apply(ep)
        expected = act(f, inner_product(e, ep))
        assert op_norm(image.col - expected.col) <= 1e-10
    assert op_norm(theta.adjoint().block - single_rank(e, f).block) <= 1e-12


def test_single_rank_balancing(cat, rng):
    E = random_module(31, cat)
    F = random_module(32, cat)
    x = 0
    y = cat.n_objects - 1
    e = E.random_element(rng, y)
    f = F.random_element(rng, x)
    a = cat.random_morphism(rng, x, y)
    lhs = single_rank(f, act(e, a).module.element(x, e.col @ a.mat, validate=False))
    # theta_y^{f, e·a*} = theta_x^{f·a, e} stated with explicit columns
    theta_left = single_rank(F.element(y, f.col @ a.mat.conj().T, validate=False), e)
    theta_right = single_rank(f, E.element(x, e.col @ a.mat, validate=False))
    assert op_norm(theta_left.block - theta_right.block) <= 1e-10
    del lhs


def test_single_rank_factors_through_representable(cat, rng):
    E = random_module(33, cat)
    F = random_module(34, cat)
    x = 0
    e = E.random_element(rng, x)
    f = F.random_element(rng, x)
    eps_f = yoneda_operator(f)
    eps_e = yoneda_operator(e)
    composite = eps_f @ eps_e.adjoint()
    assert op_norm(composite.block - single_rank(f, e).block) <= 1e-10


def test_yoneda_round_trip_and_isometry(cat, rng):
    F = random_module(35, cat)
    x = 0
    f = F.random_element(rng, x)
    eps = yoneda_operator(f)
    back = yoneda_element(eps)
    assert op_norm(back.col - f.col) <= 1e-12
    assert eps.norm() == pytest.approx(f.norm(), abs=1e-10)
    # eta(theta^{f,a}) = f·a*
    a = cat.random_morphism(rng, x, x)
    h = representable(cat, x)
    theta = single_rank(f, h.element(x, a.mat))
    eta = yoneda_element(theta)
    assert op_norm(eta.col - f.col @ a.mat.conj().T) <= 1e-10


def test_yoneda_is_bijection_by_rank(cat):
    F = random_module(36, cat)
    for x in range(cat.n_objects):
        h = representable(cat, x)
        op_basis = bounded_operator_basis(h, F)
        assert op_basis.shape[0] == F.eval_dim(x)


def test_yoneda_epsilon_star_identity(cat, rng):
    F = random_module(37, cat)
    x = 0
    e = F.random_element(rng, x)
    f = F.random_element(rng, x)
    lhs = (yoneda_operator(f).adjoint() @ yoneda_operator(e)).block
    assert op_norm(lhs - inner_product(f, e).mat) <= 1e-10


def test_yoneda_epsilon_naturality(cat, rng):
    F = random_module(38, cat)
    x = 0
    xp = cat.n_objects - 1
    f = F.random_element(rng, x)
    b = cat.random_morphism(rng, xp, x)
    lhs = yoneda_operator(f).block @ b.mat
    rhs = yoneda_operator(act(f, b)).block
    assert op_norm(lhs - rhs) <= 1e-10


def test_gram_matrix_positive(cat, rng):
    module = random_module(39, cat)
    elements = [
        module.random_element(rng, int(rng.integers(0, cat.n_objects))) for _ in range(3)
    ]
    _, gram = gram_matrix(elements)
    scale = max(op_norm(gram), 1.0)
    assert min_herm_eig(gram) >= -1e-9 * scale


def test_free_cover_identities(cat):
    module = random_module(43, cat)
    free, phi = free_cover(module)
    assert op_norm((phi @ phi.adjoint()).block - module.proj) <= 1e-10
    assert op_norm((phi.adjoint() @ phi).block - module.proj) <= 1e-10
    assert op_norm(free.proj - np.eye(free.total_dim)) == 0.0
    # free module: cover is the identity when the projection is full
    full = representable(cat, 0)
    _, phi_full = free_cover(full)
    assert op_norm(phi_full.block - np.eye(full.total_dim)) <= 1e-12


def test_split_projection(cat, rng):
    module = random_module(44, cat)
    proj_op = random_subprojection(rng, module)
    ker, img, unitary = split_projection(proj_op)
    report = unitary_operator_report(unitary)
    assert report.passed, str(report)
    # the unitary conjugates the projection to the inclusion of the image
    for y in range(cat.n_objects):
        assert ker.eval_dim(y) + img.eval_dim(y) == module.eval_dim(y)


def test_split_projection_extremes(cat):
    module = random_module(45, cat)
    ident = module.identity()
    ker, img, _ = split_projection(ident)
    for y in range(cat.n_objects):
        assert img.eval_dim(y) == module.eval_dim(y)
        assert ker.eval_dim(y) == 0
    zero = ModuleOperator(module, module,
                          np.zeros_like(module.proj), validate=False)
    ker2, img2, _ = split_projection(zero)
    for y in range(cat.n_objects):
        assert img2.eval_dim(y) == 0
        assert ker2.eval_dim(y) == module.eval_dim(y)


def test_split_rejects_non_projection(cat, rng):
    from cstarcat.errors import InvalidInput
    from cstarcat.category import random_block

    module = random_module(55, cat)
    raw = random_block(rng, cat, module.base, module.base)
    not_proj = ModuleOperator(module, module,
                              module.proj @ raw @ module.proj, validate=False)
    if op_norm(not_proj.block @ not_proj.block - not_proj.block) < 1e-6:
        pytest.skip("random operator was accidentally idempotent")
    with pytest.raises(InvalidInput):
        split_projection(not_proj)


@pytest.mark.parametrize("kind", ["element", "operator"])
def test_elements_and_operators_are_checked_one_way(cat, rng, kind):
    """A validated element, or operator from a representable, must equal its
    compression by the module projection and have its blocks in their
    hom-spaces: each check rejects on its own, and a block meeting both
    passes."""
    from cstarcat.category import random_block
    from cstarcat.errors import InvalidInput
    from cstarcat.modules import HilbertModule, ModuleElement

    n = cat.n_objects
    x, y = next((x, y) for x in range(n) for y in range(n)
                if 0 < cat.hom_dim(x, y) < cat.dim(x) * cat.dim(y))
    half = np.zeros((2 * cat.dim(y),) * 2, dtype=complex)  # the first of two copies of y
    half[:cat.dim(y), :cat.dim(y)] = np.eye(cat.dim(y))
    module = HilbertModule(cat, (y, y), half)
    raw = random_block(rng, cat, (x,), (y, y))  # blocks in hom(x, y), not compressed
    off = rng.standard_normal((cat.dim(y), cat.dim(x))) + 0j
    off -= cat.hom_project(x, y, off)  # orthogonal to hom(x, y)

    def build(target, block):
        if kind == "element":
            return ModuleElement(target, x, block)
        return ModuleOperator(representable(cat, x), target, block)

    build(module, half @ raw)
    with pytest.raises(InvalidInput, match="compressed"):
        build(module, raw - half @ raw)
    with pytest.raises(InvalidInput, match="hom-spaces"):
        build(representable(cat, y), off)


def test_yoneda_element_needs_representable_domain(cat, rng):
    from cstarcat.errors import InvalidInput

    E = random_module(56, cat)
    if op_norm(E.proj - np.eye(E.total_dim)) < 1e-9:
        pytest.skip("random module was free for this seed")
    x = 0
    e = E.random_element(rng, x)
    f = E.random_element(rng, x)
    theta = single_rank(f, e)
    with pytest.raises(InvalidInput):
        yoneda_element(theta)


def test_operator_norm_contraction_psd(cat, rng):
    E = random_module(46, cat)
    F = random_module(47, cat)
    from cstarcat.category import random_block

    raw = random_block(rng, cat, E.base, F.base)
    T = ModuleOperator(E, F, F.proj @ raw @ E.proj, validate=False)
    for _ in range(10):
        y = int(rng.integers(0, cat.n_objects))
        h = E.random_element(rng, y)
        lhs = T.norm() ** 2 * inner_product(h, h).mat - inner_product(T.apply(h), T.apply(h)).mat
        scale = max(T.norm() ** 2 * h.norm() ** 2, 1.0)
        assert min_herm_eig(lhs) >= -1e-9 * scale


def test_compact_equals_bounded(cat):
    # the compact/bounded distinction collapses in finite dimension
    assert compact_operator_basis is bounded_operator_basis
    E = random_module(48, cat)
    F = random_module(49, cat)
    kb = compact_operator_basis(E, F)
    bb = bounded_operator_basis(E, F)
    assert kb.shape == bb.shape


def _connected_pair_and_island():
    """Objects a (dim 1) and b (dim 2) with all matrices between them, and c
    (dim 3) with no morphisms to or from either: zero hom-spaces."""
    from cstarcat.category import CStarCategory
    from conftest import matrix_units

    dims = {0: 1, 1: 2, 2: 3}
    homs = {(x, y): matrix_units(dims[y], dims[x]) for x in (0, 1) for y in (0, 1)}
    homs[(2, 2)] = matrix_units(3, 3)
    return CStarCategory([("a", 1), ("b", 2), ("c", 3)], homs, assume_orthonormal=True)


def _projected_column_span(module, at):
    """Reference evaluation basis: the orthonormal span of the projected
    embedded columns, flattened to rows."""
    from cstarcat.linalg import orthonormal_span

    dy = module.cat.dim(at)
    cols = []
    for i, x in enumerate(module.base):
        for b in module.cat.hom_basis(at, x):
            col = np.zeros((module.total_dim, dy), dtype=np.complex128)
            col[module.slices[i], :] = b
            cols.append(module.proj @ col)
    if not cols:
        return np.zeros((0, module.total_dim * dy), dtype=np.complex128)
    span = orthonormal_span(cols, module.tol)
    return span.reshape(span.shape[0], -1)


def _eval_basis_cases():
    from cstarcat.generators import random_block_projection
    from cstarcat.modules import HilbertModule

    cases = []
    island = _connected_pair_and_island()
    rng = np.random.default_rng(50)
    for base in [(0,), (2,), (1, 0, 1, 2), (0, 0, 2, 2)]:
        proj = random_block_projection(rng, island, base)
        cases.append(HilbertModule(island, base, proj))
        cases.append(HilbertModule(island, base, np.eye(proj.shape[0])))
    for seed in range(51, 55):
        block_cat = random_block_category(seed, n_objects=3)[0]
        cases.append(random_module(seed, block_cat, max_base=4))
    return cases


def test_eval_basis_matches_projected_column_span():
    for module in _eval_basis_cases():
        for at in range(module.cat.n_objects):
            basis = module.eval_basis(at)
            ref = _projected_column_span(module, at)
            assert len(basis) == ref.shape[0] == module.eval_dim(at)
            if not basis:
                continue
            rows = np.stack([e.col.ravel() for e in basis])
            assert op_norm(rows.conj() @ rows.T - np.eye(len(basis))) <= 1e-10
            range_new = rows.T @ rows.conj()
            range_ref = ref.T @ ref.conj()
            assert op_norm(range_new - range_ref) <= 1e-10
            for e in basis:
                assert op_norm(module.proj @ e.col - e.col) <= 1e-10


def test_eval_basis_views_one_read_only_stack():
    """``eval_stack`` is built once per object and cannot be written; the
    columns of ``eval_basis`` are views of it."""
    for module in _eval_basis_cases():
        for at in range(module.cat.n_objects):
            stack = module.eval_stack(at)
            assert module.eval_stack(at) is stack
            assert stack.shape == (module.eval_dim(at), module.total_dim, module.cat.dim(at))
            basis = module.eval_basis(at)
            assert len(basis) == len(stack)
            for i, e in enumerate(basis):
                assert np.array_equal(e.col, stack[i]) and np.shares_memory(e.col, stack)
            with pytest.raises(ValueError):
                stack[...] = 0


def test_frame_is_an_orthonormal_factor_of_the_projection():
    # V V* = P within the module's bound, V* V = I, width the rank of P
    from cstarcat.modules import HilbertModule

    island = _connected_pair_and_island()
    zero = HilbertModule(island, (0,), np.zeros((island.dim(0),) * 2), validate=False)
    for module in _eval_basis_cases() + [zero]:
        V = module.frame
        assert V.shape == (module.total_dim, round(np.trace(module.proj).real))
        assert op_norm(V @ V.conj().T - module.proj) <= module.tol.bound(1.0)
        if V.size:
            assert np.max(np.abs(V.conj().T @ V - np.eye(V.shape[1]))) <= 1e-13
        assert module.frame is V  # derived once
