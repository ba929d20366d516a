"""Generator validity sweeps and determinism."""

import numpy as np
import pytest

from cstarcat.category import verify_category
from cstarcat.errors import InvalidInput
from cstarcat.generators import (
    FiniteGroupoid,
    groupoid_category,
    random_block_category,
    random_block_projection,
    random_module,
    random_subprojection,
)
from cstarcat.category import random_block
from cstarcat.modules import HilbertModule
from cstarcat.io import dumps_canonical, specfile_for
from cstarcat.linalg import op_norm


def test_cyclic_two_group_is_two_dimensional_commutative():
    g = FiniteGroupoid.cyclic(2)
    cat = groupoid_category(g)
    assert cat.n_objects == 1
    assert cat.hom_dim(0, 0) == 2
    basis = cat.hom_basis(0, 0)
    for a in basis:
        for b in basis:
            assert op_norm(a @ b - b @ a) <= 1e-12


def test_groupoid_involution_matches_inverse():
    g = FiniteGroupoid.codiscrete(2)
    cat = groupoid_category(g)
    for x in range(g.n_objects):
        for y in range(g.n_objects):
            for idx, gm in enumerate(g.hom(x, y)):
                # adjoint of the realization of gm is the realization of
                # its inverse (scaled by the shared normalization)
                mat = cat.hom_basis(x, y)[idx]
                gi = g.inv[gm]
                pos = g.hom(y, x).index(gi)
                inv_mat = cat.hom_basis(y, x)[pos]
                assert op_norm(mat.conj().T - inv_mat) <= 1e-12


def test_groupoid_object_dims_count_incoming():
    g = FiniteGroupoid.codiscrete(3)
    cat = groupoid_category(g)
    for x in range(3):
        assert cat.dim(x) == len(g.into(x)) == 3


def test_broken_groupoid_rejected():
    with pytest.raises(InvalidInput):
        FiniteGroupoid(
            ["x"], [("e", 0, 0), ("g", 0, 0)],
            {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},  # g*g = g: no inverse
            [0, 1], [0],
        )


@pytest.mark.parametrize("build", [
    lambda: FiniteGroupoid.cyclic(0),
    lambda: FiniteGroupoid.from_group_table([], []),
    lambda: FiniteGroupoid(["x"], [("e", 0, 0)], {(0, 0): 0}, [0], [1]),
    lambda: FiniteGroupoid(["x"], [("e", 0, 0)], {(0, 0): 0}, [5], [0]),
    lambda: FiniteGroupoid(["x"], [("e", 0, 0)], {(0, 0): 3}, [0], [0]),
    lambda: FiniteGroupoid(["x"], [("e", 0, 0)], {(0, 0): 0, (0, 7): 0}, [0], [0]),
    lambda: FiniteGroupoid(["x"], [("e", 0, 2)], {(0, 0): 0}, [0], [0]),
])
def test_out_of_range_groupoid_index_is_invalid_input(build):
    with pytest.raises(InvalidInput):
        build()


def test_block_category_one_sector_multiplicity_one():
    cat, structure = random_block_category(0, n_objects=2, n_sectors=1, max_mult=1)
    for x in range(2):
        for y in range(2):
            assert cat.hom_dim(x, y) == 1
    assert structure.sector_dims[0] >= 1


def test_block_category_single_object_full_algebra():
    cat, structure = random_block_category(1, n_objects=1, n_sectors=1,
                                           max_mult=3, max_sector_dim=1)
    m = structure.multiplicities[0][0]
    assert cat.hom_dim(0, 0) == m * m


@pytest.mark.parametrize("seed", range(10))
def test_verification_sweep(seed):
    cat, _ = random_block_category(seed)
    assert verify_category(cat, seed=seed).passed


def test_generation_is_deterministic():
    a, _ = random_block_category(7)
    b, _ = random_block_category(7)
    sa = dumps_canonical(specfile_for(a).to_obj())
    sb = dumps_canonical(specfile_for(b).to_obj())
    assert sa == sb
    ma = random_module(8, a)
    mb = random_module(8, b)
    assert dumps_canonical(specfile_for(ma).to_obj()) == \
        dumps_canonical(specfile_for(mb).to_obj())


@pytest.mark.parametrize("max_base", [0, -2])
def test_random_module_rejects_a_non_positive_max_base(max_base):
    cat, _ = random_block_category(3, n_objects=2)
    with pytest.raises(InvalidInput, match="max_base"):
        random_module(0, cat, max_base=max_base)


def test_random_module_invariants():
    for seed in range(8):
        cat, _ = random_block_category(seed)
        module = random_module(seed + 200, cat)
        p = module.proj
        assert op_norm(p - p.conj().T) <= 1e-10
        assert op_norm(p @ p - p) <= 1e-10


def test_random_block_projection_proper_often():
    proper = 0
    for seed in range(10):
        cat, _ = random_block_category(seed)
        rng = np.random.default_rng(seed)
        lst = (0, cat.n_objects - 1)
        p = random_block_projection(rng, cat, lst)
        n = p.shape[0]
        rank = round(np.trace(p).real)
        if 0 < rank < n:
            proper += 1
    assert proper >= 5


def _reference_block_projection(rng, cat, lst):
    """The spectral cut of ``random_block_projection`` written out on its own."""
    raw = random_block(rng, cat, lst, lst)
    evals, evecs = np.linalg.eigh(0.5 * (raw + raw.conj().T))
    n = evals.size
    if n <= 1:
        return np.eye(n, dtype=np.complex128)
    spread = float(evals[-1] - evals[0])
    if spread <= 1e-9:
        return np.eye(n, dtype=np.complex128)
    usable = np.flatnonzero(np.diff(evals) > 1e-6 * spread)
    if usable.size == 0:
        return np.eye(n, dtype=np.complex128)
    cut = int(usable[np.argmin(np.abs(usable - (n / 2 - 1)))])
    keep = evecs[:, cut + 1:]
    return keep @ keep.conj().T


def _reference_subprojection(rng, module):
    """The spectral cut of ``random_subprojection`` written out on its own."""
    raw = random_block(rng, module.cat, module.base, module.base)
    comp = module.proj @ raw @ module.proj
    evals, evecs = np.linalg.eigh(comp + comp.conj().T)
    n = evals.size
    zero = np.zeros((n, n), dtype=np.complex128)
    if n <= 1:
        return zero
    spread = float(evals[-1] - evals[0])
    scale = float(np.max(np.abs(evals)))
    if spread <= 1e-9 or scale <= 1e-9:
        return zero
    usable = [g for g in np.flatnonzero(np.diff(evals) > 1e-6 * spread)
              if evals[g + 1] > 1e-6 * scale]
    if not usable:
        return zero
    usable = np.asarray(usable)
    cut = int(usable[np.argmin(np.abs(usable - (n / 2 - 1)))])
    keep = evecs[:, cut + 1:]
    return keep @ keep.conj().T


def test_spectral_cuts_match_their_written_out_forms():
    # bit for bit over 24 seeds, including the identity and zero fallbacks
    fallbacks = {"identity": 0, "zero": 0}
    for seed in range(24):
        cat, _ = random_block_category(seed, n_objects=2, max_mult=2)
        for lst in [(0,), (1, 0), (0, 1, 1)]:
            got = random_block_projection(np.random.default_rng(seed), cat, lst)
            ref = _reference_block_projection(np.random.default_rng(seed), cat, lst)
            assert np.array_equal(got, ref)
            fallbacks["identity"] += bool(np.array_equal(ref, np.eye(ref.shape[0])))
        modules = [random_module(seed + 500, cat),
                   HilbertModule(cat, (0, 1), np.zeros((cat.dim(0) + cat.dim(1),) * 2))]
        for module in modules:
            got = random_subprojection(np.random.default_rng(seed), module).block
            ref = _reference_subprojection(np.random.default_rng(seed), module)
            assert np.array_equal(got, ref)
            fallbacks["zero"] += not np.any(ref)
    assert fallbacks["identity"] > 0 and fallbacks["zero"] > 24
