"""Imprimitivity certificates, conjugates, Morita witnesses, reconstruction."""

import itertools

import numpy as np
import pytest

from cstarcat.bimodules import (
    BimoduleMap,
    Bimodule,
    TensorModule,
    tensor_map_left,
    tensor_module_bimodule,
    tensor_quotient_oracle,
    verify_bimodule,
    yoneda_bimodule,
)
from cstarcat.category import CStarCategory, CStarFunctor, polar_unitary
from cstarcat.errors import InvalidInput, NotInvertible
from cstarcat.generators import (
    bimodule_from_functor,
    random_block_category,
    random_module,
    unitary_twist_functor,
)
from cstarcat.linalg import Tolerance, op_norm, op_norms, random_complex
from cstarcat.modules import (
    HilbertModule,
    ModuleOperator,
    direct_sum,
    inner_product,
    representable,
    single_rank,
    unitary_operator_report,
)
from cstarcat.morita import (
    BiHilbertData,
    _fiber_of,
    _single_rank_excess,
    check_full,
    check_imprimitivity,
    conjugate_bimodule,
    eilenberg_watts_map,
    mat_equivalence,
    morita_source_map,
    morita_target_map,
    whisker_transform,
)

from conftest import full_matrix_category, matrix_units


def disconnected_category():
    """Two full matrix blocks with no morphisms between them."""
    return CStarCategory(
        [("x", 2), ("y", 3)],
        {(0, 0): matrix_units(2, 2), (1, 1): matrix_units(3, 3)},
        assume_orthonormal=True,
    )


def corner_bimodule():
    """Faithful, onto compacts, but landing in one block of a disconnected
    target: left-full yet not right-full."""
    target = disconnected_category()
    source = full_matrix_category([2])
    ob_map = [representable(target, 0)]
    mor_blocks = {(0, 0): source.hom_basis(0, 0).copy()}
    return Bimodule(source, target, ob_map, mor_blocks)


@pytest.fixture
def cat():
    return random_block_category(90, n_objects=2)[0]


def test_yoneda_is_full(cat):
    ok, _ = check_full(yoneda_bimodule(cat))
    assert ok


def test_corner_bimodule_not_full():
    E = corner_bimodule()
    assert verify_bimodule(E).passed
    ok, report = check_full(E)
    assert not ok
    assert report.checks[0].residual >= 1


def test_yoneda_imprimitivity_and_left_product(cat):
    E = yoneda_bimodule(cat)
    data, report = check_imprimitivity(E)
    assert data is not None and report.passed, str(report)
    rng = np.random.default_rng(0)
    x, xp, y = 0, cat.n_objects - 1, 0
    a = representable(cat, x).random_element(rng, y)
    b = representable(cat, xp).random_element(rng, y)
    prod = data.left_product(a, b)
    # on representables the left product is composition with the adjoint
    assert op_norm(prod.mat - a.col @ b.col.conj().T) <= 1e-8


def test_norm_equality_on_samples(cat):
    E = yoneda_bimodule(cat)
    data, _ = check_imprimitivity(E)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = int(rng.integers(0, cat.n_objects))
        y = int(rng.integers(0, cat.n_objects))
        e = representable(cat, x).random_element(rng, y)
        if e.norm() <= 1e-9:
            continue
        left = data.left_product(e, e).norm()
        right = op_norm(inner_product(e, e).mat)
        assert left == pytest.approx(right, rel=1e-8)


def test_non_faithful_bimodule_fails_certificate():
    p = np.diag([1.0, 0.0]).astype(complex)
    cat = CStarCategory([("x", 2)], {(0, 0): [np.eye(2), p]})
    basis = cat.hom_basis(0, 0)
    frame = np.stack([np.eye(2, dtype=complex).ravel(), p.ravel()], axis=1)
    images = []
    for b in basis:
        a_coef, _ = np.linalg.lstsq(frame, b.ravel(), rcond=None)[0]
        images.append(a_coef * np.eye(2, dtype=complex))
    F = CStarFunctor(cat, cat, [0], {(0, 0): np.stack(images)})
    E = bimodule_from_functor(F)
    data, report = check_imprimitivity(E)
    assert data is None
    names = {c.name: c for c in report.checks}
    assert not names["faithful-deficit"].passed


def test_conjugate_products(cat):
    E = yoneda_bimodule(cat)
    data, _ = check_imprimitivity(E)
    conj = conjugate_bimodule(data)
    assert verify_bimodule(conj.bimodule).passed
    rng = np.random.default_rng(2)
    x, xp, y = 0, cat.n_objects - 1, 0
    e = E.ob(x).random_element(rng, y)
    f = E.ob(xp).random_element(rng, y)
    # right product of conjugates is the left product of the originals
    et, ft = conj.element_of(e), conj.element_of(f)
    lhs = inner_product(et, ft).mat
    rhs = data.left_product(e, f).mat
    assert op_norm(lhs - rhs) <= 1e-8
    # element translation round trip
    back = conj.element_to(et)
    assert op_norm(back.col - e.col) <= 1e-8


def test_conjugate_left_product_is_target_product(cat):
    E = yoneda_bimodule(cat)
    data, _ = check_imprimitivity(E)
    conj = conjugate_bimodule(data)
    cdata, creport = check_imprimitivity(conj.bimodule)
    assert cdata is not None and creport.passed, str(creport)
    rng = np.random.default_rng(3)
    x, y, yp = 0, 0, cat.n_objects - 1
    e = E.ob(x).random_element(rng, y)
    f = E.ob(x).random_element(rng, yp)
    et, ft = conj.element_of(e), conj.element_of(f)
    lhs = cdata.left_product(et, ft).mat
    rhs = inner_product(e, f).mat
    assert op_norm(lhs - rhs) <= 1e-7
    # equivalently the involute of the swapped product
    assert op_norm(lhs - inner_product(f, e).mat.conj().T) <= 1e-7


def test_conjugate_of_conjugate_is_original(cat):
    E = yoneda_bimodule(cat)
    data, _ = check_imprimitivity(E)
    conj = conjugate_bimodule(data)
    cdata, _ = check_imprimitivity(conj.bimodule)
    dd = conjugate_bimodule(cdata)
    rng = np.random.default_rng(4)
    for x in range(cat.n_objects):
        for y in range(cat.n_objects):
            basis = E.ob(x).eval_basis(y)
            if not basis:
                continue
            images = [dd.element_of(conj.element_of(m)) for m in basis]
            # inner products preserved
            for a, ma in enumerate(basis):
                for b, mb in enumerate(basis):
                    lhs = inner_product(images[a], images[b]).mat
                    rhs = inner_product(ma, mb).mat
                    assert op_norm(lhs - rhs) <= 1e-7
            # and the images exhaust the double-conjugate evaluation
            flat = np.stack([im.col.ravel() for im in images])
            rank = np.linalg.matrix_rank(flat, tol=1e-8)
            assert rank == dd.bimodule.ob(x).eval_dim(y)
    del rng


def test_morita_maps_unitary_for_yoneda(cat):
    E = yoneda_bimodule(cat)
    data, _ = check_imprimitivity(E)
    conj = conjugate_bimodule(data)
    phi = morita_target_map(data, conj)
    psi = morita_source_map(data, conj)
    for m in (phi, psi):
        assert m.verify_natural().passed
        assert m.unitary_report().passed


def test_morita_maps_for_matrix_algebra_equivalence(cat):
    alg, data = mat_equivalence(cat)
    expected = sum(
        cat.hom_dim(x, y) for x in range(cat.n_objects) for y in range(cat.n_objects)
    )
    assert alg.dimension == expected
    conj = conjugate_bimodule(data)
    phi = morita_target_map(data, conj)
    psi = morita_source_map(data, conj)
    for m in (phi, psi):
        assert m.verify_natural().passed
        assert m.unitary_report().passed, str(m.unitary_report())


def test_corner_equivalence_fails_on_target_side():
    # left-full but not right-full: the target-side witness loses
    # surjectivity exactly at the missing block
    E = corner_bimodule()
    data, report = check_imprimitivity(E)
    assert data is not None  # faithful and onto compacts
    names = {c.name: c for c in report.checks}
    assert not names["product-span-deficit"].passed
    conj = conjugate_bimodule(data)
    phi = morita_target_map(data, conj)
    assert not phi.unitary_report().passed
    psi = morita_source_map(data, conj)
    assert psi.unitary_report().passed


def test_one_object_category_self_equivalence(m2):
    alg, data = mat_equivalence(m2)
    assert alg.dimension == m2.hom_dim(0, 0)
    conj = conjugate_bimodule(data)
    phi = morita_target_map(data, conj)
    psi = morita_source_map(data, conj)
    assert phi.unitary_report().passed
    assert psi.unitary_report().passed


def test_pair_groupoid_is_morita_trivial():
    # the two-object pair groupoid category is equivalent to its matrix
    # algebra, which is a single full matrix algebra (a point, Morita-wise)
    from cstarcat.generators import FiniteGroupoid, groupoid_category

    gcat = groupoid_category(FiniteGroupoid.codiscrete(2))
    alg, data = mat_equivalence(gcat)
    # four one-dimensional hom-spaces assemble to the full 2x2 pattern
    assert alg.dimension == 4
    assert alg.cat.dim(0) == 4
    conj = conjugate_bimodule(data)
    assert morita_target_map(data, conj).unitary_report().passed
    assert morita_source_map(data, conj).unitary_report().passed


def test_category_isomorphism_gives_equivalence_bimodule():
    cat = random_block_category(96, n_objects=2)[0]
    E = bimodule_from_functor(unitary_twist_functor(cat, seed=97))
    data, report = check_imprimitivity(E)
    assert data is not None and report.passed, str(report)
    conj = conjugate_bimodule(data)
    assert morita_target_map(data, conj).unitary_report().passed
    assert morita_source_map(data, conj).unitary_report().passed


def test_eilenberg_watts_on_representable(cat):
    E = bimodule_from_functor(unitary_twist_functor(cat, seed=5))
    h = representable(cat, 0)
    op, report = eilenberg_watts_map(h, E)
    assert report.passed, str(report)
    # on a representable the tensor is the evaluation module itself
    assert op.dom.base == E.ob(0).base


def test_eilenberg_watts_on_direct_sum(cat):
    from cstarcat.modules import direct_sum

    E = yoneda_bimodule(cat)
    summed, _ = direct_sum([representable(cat, 0), representable(cat, cat.n_objects - 1)])
    _, report = eilenberg_watts_map(summed, E)
    assert report.passed, str(report)


@pytest.mark.parametrize("seed", range(3))
def test_eilenberg_watts_on_random_modules(seed):
    cat, _ = random_block_category(91 + seed, n_objects=2)
    M = random_module(92 + seed, cat)
    E = bimodule_from_functor(unitary_twist_functor(cat, seed=93 + seed))
    _, report = eilenberg_watts_map(M, E)
    assert report.passed, str(report)


def _twist_pair(cat, seed):
    """A twisted bimodule and the natural unitary from the Yoneda bimodule."""
    rng = np.random.default_rng(seed)
    unitaries = []
    for x in range(cat.n_objects):
        a = cat.random_morphism(rng, x, x)
        shifted = a + (a.norm() + 1.0) * cat.unit(x)
        unitaries.append(polar_unitary(shifted).mat)
    action = {
        (x, y): np.einsum(
            "ij,kjl,lm->kim", unitaries[y], cat.hom_basis(x, y), unitaries[x].conj().T
        )
        for x in range(cat.n_objects)
        for y in range(cat.n_objects)
    }
    F = CStarFunctor(cat, cat, range(cat.n_objects), action)
    twisted = bimodule_from_functor(F)
    yon = yoneda_bimodule(cat)
    comps = [
        ModuleOperator(yon.ob(x), twisted.ob(x), unitaries[x], validate=False)
        for x in range(cat.n_objects)
    ]
    return twisted, BimoduleMap(yon, twisted, comps)


def test_whisker_zero_and_identity(cat):
    E = yoneda_bimodule(cat)
    zero = BimoduleMap(E, E, [
        ModuleOperator(E.ob(x), E.ob(x),
                       np.zeros((E.ob(x).total_dim,) * 2), validate=False)
        for x in range(cat.n_objects)
    ])
    ident = BimoduleMap(E, E, [E.ob(x).identity() for x in range(cat.n_objects)])
    M = random_module(94, cat)
    ext_zero = whisker_transform(zero).component(M)
    assert op_norm(ext_zero.block) <= 1e-10
    ext_id = whisker_transform(ident).component(M)
    tensor = tensor_module_bimodule(M, E)
    assert op_norm(ext_id.block - tensor.module.proj) <= 1e-9


def test_whisker_routes_agree(cat):
    twisted, tau = _twist_pair(cat, seed=6)
    assert tau.verify_natural().passed
    M = random_module(95, cat)
    ext = whisker_transform(tau)
    direct = ext.component(M)
    via_cover = ext.component_via_cover(M, seed=7)
    assert op_norm(direct.block - via_cover.block) <= 1e-6


@pytest.mark.parametrize("kind", ["twist", "matrix-algebra"])
def test_whisker_left_matches_whisker_transform(cat, kind):
    if kind == "twist":
        G = bimodule_from_functor(unitary_twist_functor(cat, seed=3))
    else:
        G = mat_equivalence(cat)[1].bimodule
    _, tau = _twist_pair(cat, seed=6)
    left = tensor_map_left(G, tau)
    ext = whisker_transform(tau)
    for x in range(G.source.n_objects):
        assert np.array_equal(left.components[x].block, ext.component(G.ob(x)).block)


def test_eilenberg_watts_builds_one_tensor(cat, monkeypatch):
    built = []
    init = TensorModule.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TensorModule, "__init__", counting_init)
    M = random_module(96, cat)
    eilenberg_watts_map(M, yoneda_bimodule(cat))
    assert len(built) == 1


def test_action_applied_to_whole_blocks(cat, monkeypatch):
    # the oracle, the simple tensors and the conjugate translation act through
    # block products, never per morphism; the oracle builds no projection tensor
    E = bimodule_from_functor(unitary_twist_functor(cat, seed=5))
    M = random_module(97, cat)
    data, _ = check_imprimitivity(yoneda_bimodule(cat))
    conj = conjugate_bimodule(data)
    rng = np.random.default_rng(9)
    originals = [
        data.bimodule.ob(x).random_element(rng, y)
        for x in range(cat.n_objects) for y in range(cat.n_objects)
    ]
    columns = [conj.element_of(f) for f in originals]
    calls = {"mor": 0, "tensor": 0}
    mor, init = Bimodule.mor, TensorModule.__init__

    def counting_mor(self, a):
        calls["mor"] += 1
        return mor(self, a)

    def counting_init(self, *args, **kwargs):
        calls["tensor"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Bimodule, "mor", counting_mor)
    monkeypatch.setattr(TensorModule, "__init__", counting_init)
    oracle = tensor_quotient_oracle(M, E)
    assert calls == {"mor": 0, "tensor": 0}
    tensor = TensorModule(M, E)
    gens = [g for z in range(cat.n_objects) for g in oracle.generators[z]]
    assert gens
    for m, e in gens:
        tensor.simple(m, e)
    for f, c in zip(originals, columns):
        assert op_norm(conj.element_to(c).col - f.col) <= 1e-8
    assert calls == {"mor": 0, "tensor": 1}


def test_element_to_on_a_zero_conjugate_fiber():
    E = corner_bimodule()
    data, _ = check_imprimitivity(E)
    conj = conjugate_bimodule(data)
    assert not conj.gens[1]
    back = conj.element_to(conj.bimodule.ob(1).zero_element(0))
    assert back.module is E.ob(0) and back.at == 1
    assert back.col.shape == (E.ob(0).total_dim, E.target.dim(1))
    assert not np.any(back.col)


def test_whisker_rejects_non_natural(cat):
    E = yoneda_bimodule(cat)
    rng = np.random.default_rng(8)
    comps = []
    for x in range(cat.n_objects):
        h = E.ob(x)
        raw = cat.random_morphism(rng, x, x).mat
        comps.append(ModuleOperator(h, h, raw, validate=False))
    tau = BimoduleMap(E, E, comps)
    if tau.verify_natural().passed:
        pytest.skip("random components happened to be natural")
    with pytest.raises(InvalidInput):
        whisker_transform(tau)


def _reference_source_blocks(data, conj, dom):
    """Components of the source witness map by the direct normal-equation
    solve: one simple tensor at a time, over the full stack of embedded
    block-basis matrices compressed by the tensor's projection."""
    from cstarcat.category import block_basis_stack, block_slices
    from cstarcat.modules import ModuleElement

    E = data.bimodule
    src, dst = E.source, E.target
    blocks = []
    for x in range(src.n_objects):
        tensor, module = dom.ob_tensors[x], dom.ob(x)
        second_moment = np.zeros((module.total_dim,) * 2, dtype=complex)
        cross = np.zeros((src.dim(x), module.total_dim), dtype=complex)
        seen = False
        for y in range(dst.n_objects):
            fiber = conj.bimodule.ob(y)
            slices = block_slices(src, conj.gen_objects[y])
            for m in E.ob(x).eval_basis(y):
                for beta, (e, xb) in enumerate(zip(conj.gens[y], conj.gen_objects[y])):
                    gen = ModuleElement(fiber, xb, conj.sqrt[y][:, slices[beta]], validate=False)
                    v = tensor.simple(m, gen).col
                    t = data.left_product(m, e).mat
                    second_moment += v @ v.conj().T
                    cross += t @ v.conj().T
                    seen = True
        stack = block_basis_stack(src, module.base, (x,))
        if stack.shape[0] == 0 or not seen:
            blocks.append(np.zeros((src.dim(x), module.total_dim), dtype=complex))
            continue
        compressed = stack @ module.proj
        moved = compressed @ second_moment
        gram = np.tensordot(compressed.conj(), moved, axes=([1, 2], [1, 2]))
        rhs = np.tensordot(compressed.conj(), cross, axes=([1, 2], [0, 1]))
        coeffs, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
        blocks.append(np.tensordot(coeffs, compressed, axes=(0, 0)))
    return blocks


@pytest.mark.parametrize("case", ["seed4", "seed7", "corner", "conjugate", "twist"])
def test_source_map_matches_reference_solve(case):
    if case == "corner":
        data, _ = check_imprimitivity(corner_bimodule())
    elif case == "conjugate":
        # fibers whose projections are not the identity
        _, equivalence = mat_equivalence(random_block_category(90, n_objects=2)[0])
        data, _ = check_imprimitivity(conjugate_bimodule(equivalence).bimodule)
    elif case == "twist":
        cat = random_block_category(96, n_objects=2)[0]
        data, _ = check_imprimitivity(bimodule_from_functor(unitary_twist_functor(cat, seed=97)))
    else:
        cat, _ = random_block_category(int(case[4:]), n_objects=2, max_mult=2)
        _, data = mat_equivalence(cat)
    conj = conjugate_bimodule(data)
    psi = morita_source_map(data, conj)
    reference = _reference_source_blocks(data, conj, psi.dom)
    for comp, ref in zip(psi.components, reference):
        assert op_norm(comp.block - ref) <= 1e-10


def _reference_left_product(data, e, f):
    """One left product at a time: theta solved against the pseudo-inverse
    of the action, then the candidate's residual checked."""
    E = data.bimodule
    x, xp = _fiber_of(E, e), _fiber_of(E, f)
    if e.at != f.at:
        raise InvalidInput("left products need elements at one target object")
    theta = e.col @ f.col.conj().T
    pinv, k = data._solver(xp, x)
    if k == 0:
        if op_norm(theta) > data.tol.bound(max(e.norm() * f.norm(), 1.0)) * 100:
            raise NotInvertible("nonzero single-rank operator over an empty hom-space")
        return E.source.zero(xp, x).mat
    candidate = E.source.hom_element(xp, x, pinv @ theta.ravel())
    residual = op_norm(E.mor(candidate).block - theta)
    if residual > data.tol.bound(max(op_norm(theta), 1.0)) * 100:
        raise NotInvertible(f"single-rank operator is outside the action image ({residual:.3e})")
    return candidate.mat


@pytest.mark.parametrize("case", ["yoneda", "seed4"])
def test_left_product_block_matches_per_pair_reference(case):
    from cstarcat.category import block_slices

    if case == "yoneda":
        cat = random_block_category(90, n_objects=2)[0]
        data, _ = check_imprimitivity(yoneda_bimodule(cat))
    else:
        cat, _ = random_block_category(4, n_objects=2, max_mult=2)
        _, data = mat_equivalence(cat)
    E, rng = data.bimodule, np.random.default_rng(5)
    src = E.source
    for y in range(E.target.n_objects):
        fibers = [E.ob(x) for x in range(src.n_objects)]
        # fibers repeated and interleaved, basis and random elements mixed
        es = [e for fib in fibers[::-1] for e in fib.eval_basis(y)] + fibers[-1].eval_basis(y)[:1]
        fs = [fib.random_element(rng, y) for fib in fibers * 2] + fibers[0].eval_basis(y)
        got = data.left_product_block(es, fs)
        rows = block_slices(src, [_fiber_of(E, e) for e in es])
        cols = block_slices(src, [_fiber_of(E, f) for f in fs])
        assert got.shape == (rows[-1].stop if rows else 0, cols[-1].stop)
        for a, e in enumerate(es):
            for b, f in enumerate(fs):
                ref = _reference_left_product(data, e, f)
                assert np.max(np.abs(got[rows[a], cols[b]] - ref), initial=0.0) <= 1e-12
                assert np.max(np.abs(data.left_product(e, f).mat - ref), initial=0.0) <= 1e-12


def _two_point_bimodule():
    """Source: two 1-dimensional objects with no morphism between them.
    Fibers over a 1-dimensional target object: C, and C^2 acted on by scalars."""
    source = CStarCategory([("a", 1), ("b", 1)], {(0, 0): [np.eye(1)], (1, 1): [np.eye(1)]})
    target = CStarCategory([("t", 1)], {(0, 0): [np.eye(1)]})
    ob_map = [representable(target, 0), HilbertModule(target, (0, 0), np.eye(2))]
    return Bimodule(source, target, ob_map, {(0, 0): np.eye(1)[None], (1, 1): np.eye(2)[None]})


def test_left_product_block_errors():
    E = _two_point_bimodule()
    data = BiHilbertData(E)
    one = E.ob(0).element(0, [[1.0]])
    first, second = E.ob(1).element(0, [[1.0], [0.0]]), E.ob(1).element(0, [[0.0], [1.0]])
    # theta is nonzero but hom(b, a) is empty
    for call in (lambda: data.left_product_block([one], [first]),
                 lambda: data.left_product(one, first)):
        with pytest.raises(NotInvertible, match="over an empty hom-space"):
            call()
    # theta is a matrix unit, the action only reaches scalars
    for call in (lambda: data.left_product_block([first, second], [second]),
                 lambda: data.left_product(first, second)):
        with pytest.raises(NotInvertible, match="outside the action image"):
            call()
    assert np.allclose(data.left_product_block([one, one], [one]), [[1.0], [1.0]])
    cat = random_block_category(90, n_objects=2)[0]
    yon, _ = check_imprimitivity(yoneda_bimodule(cat))
    mixed = [yon.bimodule.ob(0).eval_basis(y)[0] for y in range(2)]
    with pytest.raises(InvalidInput, match="one target object"):
        yon.left_product_block(mixed[:1], mixed)


def _imprimitivity_case(case):
    if case == "yoneda":
        return yoneda_bimodule(random_block_category(90, n_objects=2)[0])
    if case == "twist":
        cat = random_block_category(96, n_objects=2)[0]
        return bimodule_from_functor(unitary_twist_functor(cat, seed=97))
    if case == "conjugate":
        _, equivalence = mat_equivalence(random_block_category(90, n_objects=2)[0])
        return conjugate_bimodule(equivalence).bimodule
    if case == "corner":  # fibers with zero evaluation spaces: zero samples
        return corner_bimodule()
    return mat_equivalence(random_block_category(4, n_objects=2, max_mult=2)[0])[1].bimodule


def _reference_imprimitivity_samples(data, rng, samples):
    """The sample checks of ``check_imprimitivity`` one sample at a time,
    skipping a sample of norm at most 1e-12; the stacked form checks such a
    sample too: it is zero or near it, and so is its residual."""
    E = data.bimodule
    src = E.source
    ident_res = norm_res = 0.0
    for _ in range(samples):
        x = int(rng.integers(0, src.n_objects))
        xp = int(rng.integers(0, src.n_objects))
        y = int(rng.integers(0, E.target.n_objects))
        e = E.ob(x).random_element(rng, y)
        f = E.ob(xp).random_element(rng, y)
        if e.norm() <= 1e-12 or f.norm() <= 1e-12:
            continue
        prod = data.left_product(e, f)
        theta = single_rank(e, f)
        scale = max(e.norm() * f.norm(), 1.0)
        ident_res = max(ident_res, op_norm(E.mor(prod).block - theta.block) / scale)
        own = data.left_product(e, e)
        norm_res = max(norm_res, abs(own.norm() - op_norm(inner_product(e, e).mat))
                       / max(e.norm() ** 2, 1.0))
    return ident_res, norm_res


@pytest.mark.parametrize("samples, seed", [(4, 0), (16, 3)])
@pytest.mark.parametrize("case", ["yoneda", "twist", "conjugate", "mat", "corner"])
def test_imprimitivity_samples_match_per_sample_reference(case, samples, seed, monkeypatch):
    E = _imprimitivity_case(case)
    made, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda s=None: made.append(default_rng(s)) or made[-1])
    data, report = check_imprimitivity(E, samples=samples, seed=seed)
    monkeypatch.undo()
    rng = np.random.default_rng(seed)
    ident, norm = _reference_imprimitivity_samples(data, rng, samples)
    # the same draws in the same order: the generators are left in one state
    assert made[0].integers(0, 2 ** 62) == rng.integers(0, 2 ** 62)
    assert [c.name for c in report.checks] == [
        "faithful-deficit", "onto-compacts-deficit", "product-span-deficit",
        "left-product-identity", "norm-equality"]
    checks = {c.name: c for c in report.checks}
    # both residuals are relative to their samples' scale
    for name, ref in (("left-product-identity", ident), ("norm-equality", norm)):
        assert checks[name].threshold == data.tol.bound(1.0) * 100
        assert abs(checks[name].residual - ref) <= 1e-13
    assert report.passed == (case != "corner")  # the corner is not full on the right


def test_single_rank_gate_matches_the_op_norm_form():
    """The gate takes op norms only above the Frobenius cut, and raises
    exactly when the op-norm form does, whatever the scales."""
    tol = Tolerance()
    low, rng = tol.bound(1.0) * 100, np.random.default_rng(11)
    high = tol.bound(40.0) * 100

    def with_norm(norm, rank):
        m = random_complex(rng, 6, rank) @ random_complex(rng, rank, 6)
        return m * (norm / op_norm(m))

    residuals = [with_norm(0.5 * low, 1), with_norm(0.9 * low, 6), with_norm(2.0 * low, 1),
                 with_norm(0.5 * high, 6), with_norm(2.0 * high, 1)]
    # full rank: below the cut in op norm, above it in Frobenius norm
    assert np.linalg.norm(residuals[1]) > low
    for picks in itertools.chain.from_iterable(
            itertools.combinations(range(5), n) for n in (1, 2, 3)):
        stack = np.stack([residuals[i] for i in picks])
        for s in (0.5, 1.0, 10.0, 40.0, 100.0):
            scales = np.full(len(picks), s)
            norms = op_norms(stack)
            over = norms > tol.bound(np.maximum(scales, 1.0)) * 100
            got = _single_rank_excess(stack, lambda: scales, tol)
            assert (got is not None) == bool(over.any())
            if got is not None:
                assert got == norms[over][0]


def _reference_surjectivity_deficit(T, tol):
    """The rank of T over the domain's evaluation basis at each object."""
    deficit = 0
    for y in range(T.dom.cat.n_objects):
        images = [T.apply(e).col.ravel() for e in T.dom.eval_basis(y)]
        rank = np.linalg.matrix_rank(np.stack(images), tol=tol.atol) if images else 0
        deficit = max(deficit, T.cod.eval_dim(y) - rank)
    return float(deficit)


def _surjectivity_case(case):
    if case == "corner":
        data, _ = check_imprimitivity(corner_bimodule())
        return morita_target_map(data).components
    if case == "rank-deficient":
        # the projection of M ⊕ M onto its first summand
        cat = random_block_category(90, n_objects=2)[0]
        M = random_module(98, cat)
        S, _ = direct_sum([M, M])
        block = S.proj.copy()
        block[M.total_dim:] = 0.0
        return [ModuleOperator(S, S, block, validate=False)]
    cat, _ = random_block_category(int(case[4:]), n_objects=2, max_mult=2)
    _, data = mat_equivalence(cat)
    conj = conjugate_bimodule(data)
    return morita_target_map(data, conj).components + morita_source_map(data, conj).components


@pytest.mark.parametrize("case", ["seed4", "seed7", "corner", "rank-deficient"])
def test_surjectivity_deficit_matches_eval_basis_route(case):
    deficits = []
    for T in _surjectivity_case(case):
        checks = {c.name: c.residual for c in unitary_operator_report(T).checks}
        deficits.append(checks["surjectivity-deficit"])
        assert deficits[-1] == _reference_surjectivity_deficit(T, T.dom.tol)
    assert (max(deficits) > 0) == (case in ("corner", "rank-deficient"))


def test_morita_path_makes_stacked_kernel_calls(monkeypatch):
    # the conjugate and the source map take left products as whole blocks;
    # verification takes one eigensolve per hom pair, not per basis element
    cat, _ = random_block_category(4, n_objects=2, max_mult=2)
    _, data = mat_equivalence(cat)
    calls = {"left": 0, "eig": 0}
    left, eigvalsh = BiHilbertData.left_product, np.linalg.eigvalsh

    def counting_left(self, e, f):
        calls["left"] += 1
        return left(self, e, f)

    def counting_eigvalsh(*args, **kwargs):
        calls["eig"] += 1
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(BiHilbertData, "left_product", counting_left)
    conj = conjugate_bimodule(data)
    maps = (morita_target_map(data, conj), morita_source_map(data, conj))
    assert calls["left"] == 0
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    for m in maps:
        n = m.dom.source.n_objects
        calls["eig"] = 0
        assert m.verify_natural().passed and m.unitary_report().passed
        # n * n hom pairs; isometry and co-isometry per component
        assert 0 < calls["eig"] <= n * n + 2 * n


def _reference_product_span_deficit(E, tol):
    """Fullness one target-valued product <e, f> at a time."""
    dst = E.target
    deficit = 0
    for y in range(dst.n_objects):
        for yp in range(dst.n_objects):
            if dst.hom_dim(y, yp) == 0:
                continue
            coords = [dst.hom_coords(y, yp, e.col.conj().T @ f.col)
                      for x in range(E.source.n_objects)
                      for e in E.ob(x).eval_basis(yp)
                      for f in E.ob(x).eval_basis(y)]
            rank = int(np.linalg.matrix_rank(np.stack(coords), tol=tol.atol)) if coords else 0
            deficit = max(deficit, dst.hom_dim(y, yp) - rank)
    return float(deficit)


@pytest.mark.parametrize("case", ["yoneda", "corner", "seed4", "conjugate"])
def test_product_span_deficit_matches_per_element_loop(case):
    cat = random_block_category(90, n_objects=2)[0]
    E = {
        "yoneda": lambda: yoneda_bimodule(cat),
        "corner": corner_bimodule,
        "seed4": lambda: mat_equivalence(
            random_block_category(4, n_objects=2, max_mult=2)[0])[1].bimodule,
        "conjugate": lambda: conjugate_bimodule(mat_equivalence(cat)[1]).bimodule,
    }[case]()
    _, report = check_full(E)
    deficit = {c.name: c.residual for c in report.checks}["product-span-deficit"]
    assert deficit == _reference_product_span_deficit(E, E.tol)
    assert (deficit > 0) == (case == "corner")


def test_source_map_makes_no_least_squares_solve(monkeypatch):
    # the source witness is a closed form, like the target witness
    cat, _ = random_block_category(4, n_objects=2, max_mult=2)
    _, data = mat_equivalence(cat)
    conj = conjugate_bimodule(data)
    calls, lstsq = [], np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    psi = morita_source_map(data, conj)
    assert not calls
    assert psi.verify_natural().passed and psi.unitary_report().passed


def _reference_coefficients(conj, y, x, col):
    """Conjugated coefficients of one element of E(x) at y over the
    generators at y, one ``np.vdot`` per generator, as a block column of
    scalar identities."""
    from cstarcat.category import block_slices, list_dim

    src = conj.original.bimodule.source
    objs = conj.gen_objects[y]
    rows = block_slices(src, objs)
    out = np.zeros((list_dim(src, objs), src.dim(x)), dtype=complex)
    for a, (e, xa) in enumerate(zip(conj.gens[y], objs)):
        coeff = np.vdot(e.col, col) if xa == x else 0.0
        if abs(coeff) >= 1e-16:
            out[rows[a]] = np.conj(coeff) * np.eye(src.dim(x))
    return out


def _reference_conjugate_stack(conj, y, yp):
    """Action blocks of the conjugate as supp · (sqrt · Λ_b · isqrt) · supp,
    with Λ_b assembled one generator at a time."""
    from cstarcat.category import block_slices

    E = conj.original.bimodule
    cols = block_slices(E.source, conj.gen_objects[y])
    stack = []
    for b in E.target.hom_basis(y, yp):
        lam = np.zeros((conj.bimodule.ob(yp).total_dim, conj.bimodule.ob(y).total_dim),
                       dtype=complex)
        for a, (e, x) in enumerate(zip(conj.gens[y], conj.gen_objects[y])):
            lam[:, cols[a]] = _reference_coefficients(conj, yp, x, e.col @ b.conj().T)
        stack.append(conj.supp[yp] @ (conj.sqrt[yp] @ lam @ conj.isqrt[y]) @ conj.supp[y])
    return np.array(stack).reshape(conj.bimodule.mor_stack(y, yp).shape)


def _conjugate_case(case):
    if case == "corner":
        return check_imprimitivity(corner_bimodule())[0]
    if case == "yoneda":
        return check_imprimitivity(yoneda_bimodule(random_block_category(90, n_objects=2)[0]))[0]
    cat, _ = random_block_category(int(case[4:]), n_objects=2, max_mult=2)
    return mat_equivalence(cat)[1]


@pytest.mark.parametrize("case", ["seed4", "seed7", "corner", "yoneda"])
def test_conjugate_matches_support_sandwich_reference(case):
    data = _conjugate_case(case)
    conj = conjugate_bimodule(data)
    dst = data.bimodule.target
    for y in range(dst.n_objects):
        for yp in range(dst.n_objects):
            ref = _reference_conjugate_stack(conj, y, yp)
            got = conj.bimodule.mor_stack(y, yp)
            assert got.shape == ref.shape
            if ref.size:
                assert np.max(np.abs(got - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)
    if case == "corner":
        assert not conj.gens[1]  # a zero conjugate fiber, acting by zero blocks
        assert not np.any(conj.bimodule.mor_stack(1, 1))
    rng = np.random.default_rng(3)
    E = data.bimodule
    for x in range(E.source.n_objects):
        for y in range(dst.n_objects):
            f = E.ob(x).random_element(rng, y)
            ref = conj.sqrt[y] @ _reference_coefficients(conj, y, x, f.col)
            assert np.max(np.abs(conj.element_of(f).col - ref)) <= 1e-12


@pytest.mark.parametrize("case", ["seed4", "seed7", "corner"])
def test_target_map_matches_compressed_reference(case):
    data = _conjugate_case(case)
    conj = conjugate_bimodule(data)
    phi = morita_target_map(data, conj)
    E = data.bimodule
    for y, comp in enumerate(phi.components):
        if not conj.gens[y]:
            assert not np.any(comp.block)
            continue
        row = np.concatenate([e.col.conj().T for e in conj.gens[y]], axis=1)
        objs = conj.gen_objects[y]
        ref = row @ E.hull_extend(objs, objs, conj.isqrt[y]) @ phi.dom.ob(y).proj
        assert np.max(np.abs(comp.block - ref)) <= 1e-12


def test_conjugate_makes_no_per_generator_vdot(monkeypatch):
    # coefficients come from one product over the stacked generator columns
    cat, _ = random_block_category(4, n_objects=2, max_mult=2)
    _, data = mat_equivalence(cat)
    calls, vdot = [], np.vdot

    def counting_vdot(*args, **kwargs):
        calls.append(1)
        return vdot(*args, **kwargs)

    monkeypatch.setattr(np, "vdot", counting_vdot)
    conj = conjugate_bimodule(data)
    conj.element_of(data.bimodule.ob(0).random_element(np.random.default_rng(0), 0))
    assert not calls


@pytest.mark.parametrize("case", ["seed4", "seed7", "corner", "yoneda"])
def test_conjugate_action_through_frames_matches_root_sandwich(case):
    # (S'·root') (S'* Λ_b S) (S/root)* is sqrt · Λ_b · isqrt, zero fibers included
    from cstarcat.category import block_slices

    data = _conjugate_case(case)
    conj = conjugate_bimodule(data)
    E = data.bimodule
    for y in range(E.target.n_objects):
        S = conj.bimodule.ob(y).frame  # the support of the generator Gram
        assert np.array_equal(S @ S.conj().T, conj.supp[y]) and (S.size or not conj.gens[y])
        cols = block_slices(E.source, conj.gen_objects[y])
        for yp in range(E.target.n_objects):
            for b, got in zip(E.target.hom_basis(y, yp), conj.bimodule.mor_stack(y, yp)):
                lam = np.zeros(got.shape, dtype=complex)
                for a, (e, x) in enumerate(zip(conj.gens[y], conj.gen_objects[y])):
                    lam[:, cols[a]] = _reference_coefficients(conj, yp, x, e.col @ b.conj().T)
                ref = conj.sqrt[yp] @ lam @ conj.isqrt[y]
                assert np.max(np.abs(got - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1.0)


def test_tensor_validation_takes_one_spectrum_per_block_group(monkeypatch):
    # E ⊗ conj(E) on the worst criterion-8 size class is 350 wide and block
    # diagonal, 154 + 196: its check takes one eigvalsh per block, no 350-wide Gram
    cat, _ = random_block_category(4, n_objects=2, max_mult=2)
    _, data = mat_equivalence(cat)
    tensor = tensor_module_bimodule(data.bimodule.ob(0), conjugate_bimodule(data).bimodule).module
    assert tensor.total_dim == 350
    widths, eigvalsh = [], np.linalg.eigvalsh

    def counting_eigvalsh(m, *args, **kwargs):
        widths.append(m.shape[-1])
        return eigvalsh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    HilbertModule(tensor.cat, tensor.base, tensor.proj, tol=tensor.tol)
    assert sorted(widths) == [154, 196]


def test_morita_builds_stay_within_their_output_memory():
    # peak allocation of each build, against the bytes of what it keeps:
    # stacking a build over basis elements would raise the peak far above it
    import tracemalloc

    from cstarcat.bimodules import tensor_bimodule_bimodule

    cat, _ = random_block_category(4, n_objects=2, max_mult=2)
    _, data = mat_equivalence(cat)
    E, conj = data.bimodule, conjugate_bimodule(data).bimodule

    def kept(B, with_fibers):
        objs = range(B.source.n_objects)
        size = sum(B.mor_stack(x, y).nbytes for x in objs for y in objs)
        return size + (sum(B.ob(x).proj.nbytes for x in objs) if with_fibers else 0)

    for build, with_fibers, bound in (
        (lambda: tensor_bimodule_bimodule(E, conj), True, 1.3),
        (lambda: tensor_bimodule_bimodule(conj, E), True, 1.3),
        (lambda: conjugate_bimodule(data).bimodule, False, 1.7),
    ):
        tracemalloc.start()
        try:
            built = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * kept(built, with_fibers)


def _equal_fiber_bimodule():
    """Two one-dimensional source objects with every hom-space ℂ, acting on
    two equal fibers over a one-object target: hom(0, 1) acts by i and
    hom(1, 0) by -i, so an element's fiber is not fixed by its presentation."""
    one = [np.eye(1)]
    src = CStarCategory([("a", 1), ("b", 1)],
                        {(x, y): one for x in range(2) for y in range(2)},
                        assume_orthonormal=True)
    dst = CStarCategory([("c", 1)], {(0, 0): one}, assume_orthonormal=True)
    blocks = {(0, 0): [[[1.0]]], (1, 1): [[[1.0]]], (0, 1): [[[1j]]], (1, 0): [[[-1j]]]}
    return Bimodule(src, dst, [representable(dst, 0), representable(dst, 0)], blocks)


def test_fiber_lookup_tells_equal_fibers_apart(tmp_path):
    from pathlib import Path

    from cstarcat.cli import main
    from cstarcat.io import save_specfile, specfile_for

    E = _equal_fiber_bimodule()
    assert E.ob(0).same_presentation(E.ob(1))
    assert [_fiber_of(E, E.ob(x).eval_basis(0)[0]) for x in range(2)] == [0, 1]
    data, report = check_imprimitivity(E)
    assert report.passed
    conj = conjugate_bimodule(data)
    for name, m in (("phi", morita_target_map(data, conj)),
                    ("psi", morita_source_map(data, conj))):
        checks = m.verify_natural().checks + m.unitary_report().checks
        assert all(c.passed for c in checks), (name, [(c.name, c.residual) for c in checks])
    path = tmp_path / "equal_fibers.cstar.json"
    save_specfile(path, specfile_for(E))
    assert main(["morita", str(path), "--format", "json"]) == 0
    # the conjugate fixture has two equal fibers too; with its generators
    # misplaced, its conjugate fails validation and the verb exits 2
    fixture = Path(__file__).resolve().parent / "fixtures" / "bimodule_conjugate_0.cstar.json"
    assert main(["morita", str(fixture), "--format", "json"]) == 0
