"""Bimodule axioms, non-degeneracy, tensor products and their coherence."""

import itertools

import numpy as np
import pytest

from cstarcat.bimodules import (
    Bimodule,
    associator,
    check_nondegenerate,
    left_unitor,
    right_unitor,
    tensor_bimodule_bimodule,
    tensor_cross_check,
    tensor_map_left,
    tensor_map_right,
    tensor_module_bimodule,
    tensor_quotient_oracle,
    verify_bimodule,
    yoneda_bimodule,
)
from cstarcat.category import CStarCategory, Morphism, _size_slices, block_slices, random_block
from cstarcat.generators import (
    bimodule_from_functor,
    degenerate_double,
    random_block_category,
    random_block_projection,
    random_module,
    unitary_twist_functor,
)
from cstarcat.linalg import op_norm
from cstarcat.modules import HilbertModule, direct_sum, inner_product, representable, single_rank

from conftest import matrix_units


@pytest.fixture
def cat():
    return random_block_category(60)[0]


def test_yoneda_bimodule_passes(cat):
    E = yoneda_bimodule(cat)
    assert verify_bimodule(E).passed


def test_yoneda_action_is_single_rank(cat):
    # the action of a morphism on representables is a single-rank operator
    E = yoneda_bimodule(cat)
    rng = np.random.default_rng(0)
    x, y = 0, cat.n_objects - 1
    a = cat.random_morphism(rng, x, y)
    v, w = None, None
    from cstarcat.category import cofactorize

    s, t = cofactorize(a)
    hx, hy = representable(cat, x), representable(cat, y)
    f = hy.element(y, s.mat)
    e = hx.element(y, t.adjoint().mat)
    theta = single_rank(f, e)
    assert op_norm(theta.block - E.mor(a).block) <= 1e-8
    del v, w


def test_yoneda_is_isometric(cat):
    E = yoneda_bimodule(cat)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x, y = rng.integers(0, cat.n_objects, 2)
        a = cat.random_morphism(rng, int(x), int(y))
        assert E.mor(a).norm() == pytest.approx(a.norm(), abs=1e-10)


def test_perturbed_bimodule_fails(cat):
    E = yoneda_bimodule(cat)
    x = 0
    stack = E.mor_stack(x, x).copy()
    if stack.shape[0] == 0:
        pytest.skip("empty hom")
    stack[0] = stack[0] + 0.05 * np.eye(stack.shape[1])
    blocks = {
        (a, b): (stack if (a, b) == (x, x) else E.mor_stack(a, b))
        for a in range(cat.n_objects)
        for b in range(cat.n_objects)
    }
    from cstarcat.bimodules import Bimodule

    bad = Bimodule(cat, cat, [E.ob(i) for i in range(cat.n_objects)], blocks)
    report = verify_bimodule(bad)
    assert not report.passed
    worst = report.worst()
    assert worst.residual > 1e-3


def test_functor_bimodule_passes(cat):
    F = unitary_twist_functor(cat, seed=2)
    E = bimodule_from_functor(F)
    assert verify_bimodule(E).passed


def test_nondegenerate_yoneda(cat):
    ok, report = check_nondegenerate(yoneda_bimodule(cat))
    assert ok and report.passed


def test_degenerate_control_fails(cat):
    E = degenerate_double(cat)
    assert verify_bimodule(E).passed  # still a C*-functor
    ok, report = check_nondegenerate(E)
    assert not ok
    # unit criterion and rank criterion must agree on the failure
    names = {c.name: c for c in report.checks}
    assert names["criteria-agree"].passed


def test_tensor_with_yoneda_is_module(cat):
    # M ⊗ Yoneda has the same presentation as M
    M = random_module(61, cat)
    tensor = tensor_module_bimodule(M, yoneda_bimodule(cat))
    assert tensor.module.base == M.base
    assert op_norm(tensor.module.proj - M.proj) <= 1e-9


def test_representable_tensor_is_evaluation(cat):
    # h_x ⊗ E is E(x), with matching inner products
    E = bimodule_from_functor(unitary_twist_functor(cat, seed=3))
    rng = np.random.default_rng(3)
    x = 0
    hx = representable(cat, x)
    tensor = tensor_module_bimodule(hx, E)
    fiber = E.ob(x)
    assert tensor.module.base == fiber.base
    assert op_norm(tensor.module.proj - fiber.proj) <= 1e-9
    for _ in range(5):
        z = int(rng.integers(0, cat.n_objects))
        a = hx.random_element(rng, x)
        e = fiber.random_element(rng, z)
        image = tensor.simple(a, e)
        # rho_x(a ⊗ e) = a · e, acting through the bimodule
        expected = E.mor(
            cat.morphism(x, x, a.col, validate=False)
        ).block @ e.col
        assert op_norm(image.col - tensor.module.proj @ expected) <= 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_tensor_cross_validation(seed):
    cat, _ = random_block_category(62 + seed, n_objects=2)
    M = random_module(70 + seed, cat)
    E = bimodule_from_functor(unitary_twist_functor(cat, seed=80 + seed))
    report = tensor_cross_check(M, E)
    assert report.passed, str(report)


def test_zero_module_tensor(cat):
    from cstarcat.modules import HilbertModule

    zero = HilbertModule(cat, (0,), np.zeros((cat.dim(0), cat.dim(0))), validate=False)
    E = yoneda_bimodule(cat)
    oracle = tensor_quotient_oracle(zero, E)
    tensor = tensor_module_bimodule(zero, E)
    for z in range(cat.n_objects):
        assert oracle.dims[z] == 0
        assert tensor.module.eval_dim(z) == 0


def test_unitors_are_unitary(cat):
    E = bimodule_from_functor(unitary_twist_functor(cat, seed=4))
    for unitor in (left_unitor(E), right_unitor(E)):
        assert unitor.verify_natural().passed
        report = unitor.unitary_report()
        assert report.passed, str(report)


def test_associator_unitary_and_natural():
    cat, _ = random_block_category(63, n_objects=2)
    E = bimodule_from_functor(unitary_twist_functor(cat, seed=5))
    F = bimodule_from_functor(unitary_twist_functor(cat, seed=6))
    G = yoneda_bimodule(cat)
    alpha = associator(E, F, G)
    assert alpha.verify_natural().passed
    assert alpha.unitary_report().passed


def test_pentagon_and_triangle():
    cat, _ = random_block_category(64, n_objects=2)
    E = bimodule_from_functor(unitary_twist_functor(cat, seed=7))
    F = bimodule_from_functor(unitary_twist_functor(cat, seed=8))
    G = bimodule_from_functor(unitary_twist_functor(cat, seed=9))
    H = yoneda_bimodule(cat)

    # pentagon: two routes ((EF)G)H -> E(F(GH))
    route1 = associator(E, F, tensor_bimodule_bimodule(G, H)).compose(
        associator(tensor_bimodule_bimodule(E, F), G, H)
    )
    route2 = tensor_map_left(E, associator(F, G, H)).compose(
        associator(E, tensor_bimodule_bimodule(F, G), H)
    ).compose(tensor_map_right(associator(E, F, G), H))
    assert route1.norm_distance(route2) <= 1e-7

    # triangle: (E ⊗ Yoneda) ⊗ F -> E ⊗ F via the two canonical routes
    tri1 = tensor_map_right(right_unitor(E), F)
    tri2 = tensor_map_left(E, left_unitor(F)).compose(
        associator(E, yoneda_bimodule(cat), F)
    )
    assert tri1.norm_distance(tri2) <= 1e-7


def test_operator_tensor_contracts():
    # ||T ⊗ id|| <= ||T||
    cat, _ = random_block_category(65, n_objects=2)
    E = bimodule_from_functor(unitary_twist_functor(cat, seed=10))
    M = random_module(66, cat)
    N = random_module(67, cat)
    rng = np.random.default_rng(11)
    from cstarcat.category import random_block
    from cstarcat.modules import ModuleOperator
    from cstarcat.bimodules import BimoduleMap

    raw = random_block(rng, cat, M.base, N.base)
    T = ModuleOperator(M, N, N.proj @ raw @ M.proj, validate=False)
    tm = tensor_module_bimodule(M, E)
    tn = tensor_module_bimodule(N, E)
    block = E.hull_extend(M.base, N.base, T.block)
    lifted = ModuleOperator(tm.module, tn.module,
                            tn.module.proj @ block @ tm.module.proj, validate=False)
    assert lifted.norm() <= T.norm() + 1e-9
    del BimoduleMap


def test_bimodule_tensor_functoriality():
    cat, _ = random_block_category(68, n_objects=2)
    E = bimodule_from_functor(unitary_twist_functor(cat, seed=12))
    F = bimodule_from_functor(unitary_twist_functor(cat, seed=13))
    EF = tensor_bimodule_bimodule(E, F)
    assert verify_bimodule(EF).passed
    ok, _ = check_nondegenerate(EF)
    assert ok


def test_out_of_range_action_keys_are_rejected(cat):
    from cstarcat.bimodules import Bimodule
    from cstarcat.errors import InvalidInput

    ob_map = [representable(cat, x) for x in range(cat.n_objects)]
    blocks = {
        (x, y): cat.hom_basis(x, y).copy()
        for x in range(cat.n_objects) for y in range(cat.n_objects)
    }
    blocks[(cat.n_objects, 0)] = cat.hom_basis(0, 0).copy()
    with pytest.raises(InvalidInput):
        Bimodule(cat, cat, ob_map, blocks)


def test_action_blocks_outside_their_hom_spaces_are_rejected(cat):
    """Validation measures every block of a stack, and reads no non-finite one."""
    from cstarcat.bimodules import Bimodule
    from cstarcat.category import block_residual
    from cstarcat.errors import InvalidInput

    ob_map = [representable(cat, x) for x in range(cat.n_objects)]
    blocks = {(x, y): cat.hom_basis(x, y).copy()
              for x in range(cat.n_objects) for y in range(cat.n_objects)}
    Bimodule(cat, cat, ob_map, blocks)
    # a nonzero hom-space that is not all of its matrix space
    x, y = next(pair for pair, stack in blocks.items() if 0 < len(stack) < stack[0].size)
    rng = np.random.default_rng(4)
    off = rng.standard_normal(blocks[x, y].shape[1:]) + 0j
    off -= cat.hom_project(x, y, off)  # orthogonal to hom(x, y)
    bad = dict(blocks)
    bad[x, y] = blocks[x, y].copy()
    bad[x, y][-1] += 1e-6 * off / np.linalg.norm(off)
    residuals = block_residual(cat, (x,), (y,), bad[x, y])
    assert residuals.shape == (len(bad[x, y]),)
    assert residuals[-1] == pytest.approx(1e-6, rel=1e-6)
    with pytest.raises(InvalidInput, match="leave their hom-spaces"):
        Bimodule(cat, cat, ob_map, bad)
    bad[x, y][-1] = np.nan
    with pytest.raises(InvalidInput):
        Bimodule(cat, cat, ob_map, bad)


def _reference_quotient_gram(M, E):
    """The oracle Gram and quotient dimensions by the pairwise loop: one
    inner product and one ``E.mor`` per pair of generating simple tensors."""
    grams, dims = {}, {}
    for z in range(E.target.n_objects):
        gens = [
            (m, e)
            for x in range(E.source.n_objects)
            for m in M.eval_basis(x)
            for e in E.ob(x).eval_basis(z)
        ]
        dz = E.target.dim(z)
        n = len(gens)
        gram = np.zeros((n * dz, n * dz), dtype=np.complex128)
        for a, (ma, ea) in enumerate(gens):
            for b, (mb, eb) in enumerate(gens):
                if b < a:
                    continue
                acted = E.mor(inner_product(ma, mb)).block @ eb.col
                entry = ea.col.conj().T @ acted
                gram[a * dz:(a + 1) * dz, b * dz:(b + 1) * dz] = entry
                if b > a:
                    gram[b * dz:(b + 1) * dz, a * dz:(a + 1) * dz] = entry.conj().T
        grams[z] = gram
        dims[z] = 0
        if n:
            scalar = np.zeros((n, n), dtype=np.complex128)
            for a in range(n):
                for b in range(n):
                    scalar[a, b] = np.trace(gram[a * dz:(a + 1) * dz, b * dz:(b + 1) * dz])
            dims[z] = int(np.linalg.matrix_rank(scalar, tol=M.tol.atol, hermitian=True))
    return grams, dims


def _double_yoneda(cat):
    """Each representable doubled, the action repeated on both copies."""
    ob_map = [direct_sum([representable(cat, x)] * 2)[0] for x in range(cat.n_objects)]
    blocks = {}
    for x in range(cat.n_objects):
        for y in range(cat.n_objects):
            basis = cat.hom_basis(x, y)
            dx, dy = cat.dim(x), cat.dim(y)
            stack = np.zeros((basis.shape[0], 2 * dy, 2 * dx), dtype=np.complex128)
            stack[:, :dy, :dx] = basis
            stack[:, dy:, dx:] = basis
            blocks[(x, y)] = stack
    return Bimodule(cat, cat, ob_map, blocks)


def _disconnected_category():
    """Two full matrix blocks with no morphisms between them: a module on
    one block has an empty evaluation space at the other object."""
    return CStarCategory(
        [("x", 2), ("y", 3)],
        {(0, 0): matrix_units(2, 2), (1, 1): matrix_units(3, 3)},
        assume_orthonormal=True,
    )


@pytest.mark.parametrize("kind", ["yoneda", "twist", "twist-yoneda", "double-yoneda"])
@pytest.mark.parametrize("case", range(3))
def test_quotient_oracle_matches_pairwise_reference(kind, case):
    if case < 2:
        cat, _ = random_block_category(case, n_objects=2)
        M = random_module(9300 + case, cat, max_base=2)
    else:
        cat = _disconnected_category()
        rng = np.random.default_rng(case)
        M = HilbertModule(cat, (0, 0), random_block_projection(rng, cat, (0, 0)))
        assert not M.eval_basis(1)
    E = {
        "yoneda": lambda: yoneda_bimodule(cat),
        "twist": lambda: bimodule_from_functor(unitary_twist_functor(cat, seed=9100 + case)),
        "twist-yoneda": lambda: tensor_bimodule_bimodule(
            bimodule_from_functor(unitary_twist_functor(cat, seed=9200 + case)),
            yoneda_bimodule(cat),
        ),
        "double-yoneda": lambda: _double_yoneda(cat),
    }[kind]()
    grams, dims = _reference_quotient_gram(M, E)
    oracle = tensor_quotient_oracle(M, E)
    for z in range(cat.n_objects):
        assert oracle.dims[z] == dims[z]
        assert oracle.gram[z].shape == grams[z].shape
        if grams[z].size:
            scale = max(float(np.max(np.abs(grams[z]))), 1.0)
            assert np.max(np.abs(oracle.gram[z] - grams[z])) <= 1e-12 * scale


def _reference_hull_extend(E, src_list, dst_list, block):
    """The action applied one block at a time."""
    rows, cols = block_slices(E.source, dst_list), block_slices(E.source, src_list)
    rows_out = _size_slices([E.ob(y).total_dim for y in dst_list])
    cols_in = _size_slices([E.ob(x).total_dim for x in src_list])
    out = np.zeros((rows_out[-1].stop, cols_in[-1].stop), dtype=np.complex128)
    for j, y in enumerate(dst_list):
        for i, x in enumerate(src_list):
            acted = E._act(x, y, block[rows[j], cols[i]])
            out[rows_out[j], cols_in[i]] = acted.reshape(rows_out[j].stop - rows_out[j].start,
                                                         cols_in[i].stop - cols_in[i].start)
    return out


@pytest.mark.parametrize("kind", ["yoneda", "twist", "conjugate"])
@pytest.mark.parametrize("src_list, dst_list", [((0, 1, 0), (1, 0, 1, 1)), ((1,), (0, 1, 0)),
                                                ((0, 0, 1), (1, 1)), ((1, 1), (0, 0, 1))])
def test_hull_extend_matches_per_pair_action(kind, src_list, dst_list):
    from cstarcat.morita import check_imprimitivity, conjugate_bimodule

    base, _ = random_block_category(3, n_objects=2, max_mult=2)
    E = {
        "yoneda": lambda: yoneda_bimodule(base),
        "twist": lambda: bimodule_from_functor(unitary_twist_functor(base, seed=11)),
        "conjugate": lambda: conjugate_bimodule(
            check_imprimitivity(yoneda_bimodule(base))[0]).bimodule,
    }[kind]()
    src = E.source
    rng = np.random.default_rng(len(src_list))
    shape = (sum(src.dim(y) for y in dst_list), sum(src.dim(x) for x in src_list))
    # the blocks from object 1 to object 1 exactly zero: their image is zero
    zeroed = random_block(rng, src, src_list, dst_list)
    rows, cols = block_slices(src, dst_list), block_slices(src, src_list)
    for j, i in itertools.product(range(len(dst_list)), range(len(src_list))):
        if dst_list[j] == src_list[i] == 1:
            zeroed[rows[j], cols[i]] = 0.0
    for block in (random_block(rng, src, src_list, dst_list),
                  rng.standard_normal(shape) + 1j * rng.standard_normal(shape), zeroed):
        ref = _reference_hull_extend(E, src_list, dst_list, block)
        got = E.hull_extend(src_list, dst_list, block)
        assert np.max(np.abs(got - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1.0)
    out_rows = _size_slices([E.ob(y).total_dim for y in dst_list])
    out_cols = _size_slices([E.ob(x).total_dim for x in src_list])
    for j, i in itertools.product(range(len(dst_list)), range(len(src_list))):
        if dst_list[j] == src_list[i] == 1:
            assert not got[out_rows[j], out_cols[i]].any()


def _reference_span_rank_deficit(E, tol):
    """Span-rank criterion one image T e at a time."""
    src, dst = E.source, E.target
    deficit = 0
    for x in range(src.n_objects):
        for z in range(dst.n_objects):
            images = [(T @ e.col).ravel()
                      for y in range(src.n_objects)
                      for T in E.mor_stack(y, x)
                      for e in E.ob(y).eval_basis(z)]
            rank = np.linalg.matrix_rank(np.stack(images), tol=tol.atol) if images else 0
            deficit = max(deficit, E.ob(x).eval_dim(z) - int(rank))
    return float(deficit)


@pytest.mark.parametrize("kind", ["yoneda", "twist", "degenerate", "double-yoneda"])
def test_span_rank_deficit_matches_per_element_loop(cat, kind):
    E = {
        "yoneda": lambda: yoneda_bimodule(cat),
        "twist": lambda: bimodule_from_functor(unitary_twist_functor(cat, seed=61)),
        "degenerate": lambda: degenerate_double(cat),
        "double-yoneda": lambda: tensor_bimodule_bimodule(yoneda_bimodule(cat),
                                                          yoneda_bimodule(cat)),
    }[kind]()
    _, report = check_nondegenerate(E)
    deficit = {c.name: c.residual for c in report.checks}["span-rank-deficit"]
    assert deficit == _reference_span_rank_deficit(E, E.tol)
    assert (deficit > 0) == (kind == "degenerate")


def _reference_tensor_blocks(T):
    """Action blocks of E ⊗ F as the tensor's projections around the
    extended block of E: P_y · ext(b) · P_x at the tensor's full size."""
    E, F = T.left, T.right
    n = E.source.n_objects
    return {
        (x, y): np.array([
            T.ob(y).proj @ F.hull_extend(E.ob(x).base, E.ob(y).base, b) @ T.ob(x).proj
            for b in E.mor_stack(x, y)
        ]).reshape(E.mor_stack(x, y).shape[:1] + (T.ob(y).total_dim, T.ob(x).total_dim))
        for x in range(n) for y in range(n)
    }


def _uncompressed_left_factor(cat):
    """Fibers with non-trivial projections and the bare hom basis as blocks,
    which their projections do not fix."""
    rng = np.random.default_rng(5)
    ob_map = [HilbertModule(cat, (x,), random_block_projection(rng, cat, (x,)))
              for x in range(cat.n_objects)]
    blocks = {(x, y): cat.hom_basis(x, y).copy()
              for x in range(cat.n_objects) for y in range(cat.n_objects)}
    E = Bimodule(cat, cat, ob_map, blocks, validate=False)
    assert max(np.max(np.abs(E.ob(y).proj @ blocks[x, y] @ E.ob(x).proj - blocks[x, y]),
                      initial=0.0)
               for x in range(cat.n_objects) for y in range(cat.n_objects)) > 1e-3
    return E


def _tensor_case(case):
    from cstarcat.morita import conjugate_bimodule, mat_equivalence

    if case.startswith("seed"):
        seed, order = int(case[4]), case[5:]
        cat, _ = random_block_category(seed, n_objects=2, max_mult=2)
        data = mat_equivalence(cat)[1]
        E, C = data.bimodule, conjugate_bimodule(data).bimodule
        return (E, C) if order == "-E-conj" else (C, E)
    cat, _ = random_block_category(4, n_objects=2, max_mult=2)
    twist = bimodule_from_functor(unitary_twist_functor(cat, seed=12))
    return {
        "twist-yoneda": lambda: (twist, yoneda_bimodule(cat)),
        "yoneda-twist": lambda: (yoneda_bimodule(cat), twist),
        "double-yoneda": lambda: (_double_yoneda(cat), _double_yoneda(cat)),
        "uncompressed": lambda: (_uncompressed_left_factor(cat), twist),
    }[case]()


@pytest.mark.parametrize("case", ["seed4-E-conj", "seed4-conj-E", "seed7-E-conj", "seed7-conj-E",
                                  "twist-yoneda", "yoneda-twist", "double-yoneda",
                                  "uncompressed"])
def test_tensor_action_matches_projection_sandwich(case):
    T = tensor_bimodule_bimodule(*_tensor_case(case))
    for (x, y), ref in _reference_tensor_blocks(T).items():
        got = T.mor_stack(x, y)
        assert got.shape == ref.shape
        if ref.size:
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)


def test_action_returns_stacked_blocks(cat):
    # the action of a (..., dim y, dim x) stack is a (..., dy, dx) stack of blocks
    E = degenerate_double(cat)
    rng = np.random.default_rng(3)
    for x in range(cat.n_objects):
        for y in range(cat.n_objects):
            for lead in [(), (3,), (2, 2)]:
                mats = np.array([cat.random_morphism(rng, x, y).mat
                                 for _ in range(int(np.prod(lead)))])
                mats = mats.reshape(lead + (cat.dim(y), cat.dim(x)))
                got = E._act(x, y, mats)
                assert got.shape == lead + (E.ob(y).total_dim, E.ob(x).total_dim)
                ref = np.tensordot(cat.hom_coords(x, y, mats), E.mor_stack(x, y), axes=(-1, 0))
                assert np.max(np.abs(got - ref)) <= 1e-13


def _reference_bimodule_residuals(E, samples=3, seed=0):
    """Every check of ``verify_bimodule``, one basis element or pair at a time."""
    src, objs = E.source, range(E.source.n_objects)
    rng = np.random.default_rng(seed)

    def image(x, y, mat):
        return E.mor(Morphism(src, x, y, mat, validate=False)).block

    compress = mult = star = decrease = 0.0
    for x in objs:
        for y in objs:
            for b, B in zip(src.hom_basis(x, y), E.mor_stack(x, y)):
                compress = max(compress, op_norm(E.ob(y).proj @ B @ E.ob(x).proj - B))
                star = max(star, op_norm(image(y, x, b.conj().T) - B.conj().T))
            for z in objs:
                for f, Ff in zip(src.hom_basis(y, z), E.mor_stack(y, z)):
                    for g, Fg in zip(src.hom_basis(x, y), E.mor_stack(x, y)):
                        mult = max(mult, op_norm(image(x, z, f @ g) - Ff @ Fg))
    for x in objs:
        for y in objs:
            for _ in range(samples if src.hom_dim(x, y) else 0):
                a = src.random_morphism(rng, x, y)
                decrease = max(decrease, (E.mor(a).norm() - a.norm()) / max(a.norm(), 1.0))
    return {"block-compression": compress, "functoriality": mult,
            "star-preservation": star, "norm-decrease": decrease}


@pytest.mark.parametrize("kind", ["yoneda", "twist", "conjugate", "degenerate", "perturbed"])
def test_bimodule_residuals_match_per_element_loop(cat, kind):
    from cstarcat.morita import check_imprimitivity, conjugate_bimodule

    def perturbed():
        E = bimodule_from_functor(unitary_twist_functor(cat, seed=62))
        rng, objs = np.random.default_rng(4), range(cat.n_objects)
        blocks = {(x, y): E.mor_stack(x, y) + 0.3 * rng.standard_normal(E.mor_stack(x, y).shape)
                  for x in objs for y in objs}
        return Bimodule(cat, cat, E.ob_map, blocks, validate=False)

    E = {
        "yoneda": lambda: yoneda_bimodule(cat),
        "twist": lambda: bimodule_from_functor(unitary_twist_functor(cat, seed=61)),
        "conjugate": lambda: conjugate_bimodule(
            check_imprimitivity(yoneda_bimodule(cat))[0]).bimodule,
        "degenerate": lambda: degenerate_double(cat),
        "perturbed": perturbed,
    }[kind]()
    checks = {c.name: c.residual for c in verify_bimodule(E).checks}
    ref = _reference_bimodule_residuals(E)
    assert checks.keys() == ref.keys()
    # the same products one at a time; one-element products round differently
    # from the stacked ones, so those two residuals agree to rounding only
    for name in ("block-compression", "norm-decrease"):
        assert checks[name] == ref[name]
    for name in ("functoriality", "star-preservation"):
        assert abs(checks[name] - ref[name]) <= 1e-13 * max(ref[name], 1.0)
    assert (ref["functoriality"] > 0.01) == (kind == "perturbed")


@pytest.mark.parametrize("case", ["seed4-E-conj", "seed4-conj-E", "twist-yoneda", "double-yoneda",
                                  "uncompressed"])
def test_tensor_action_matches_frame_free_compression(case):
    # the blocks compress through the fibers' frames: F's extension of
    # V_y (V_y* b V_x) V_x* agrees with that of P_y b P_x
    T = tensor_bimodule_bimodule(*_tensor_case(case))
    E, F = T.left, T.right
    for x in range(E.source.n_objects):
        for y in range(E.source.n_objects):
            fx, fy = E.ob(x), E.ob(y)
            got = T.mor_stack(x, y)
            for g, b in zip(got, E.mor_stack(x, y)):
                ref = F.hull_extend(fx.base, fy.base, fy.proj @ b @ fx.proj)
                assert np.max(np.abs(g - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1.0)
