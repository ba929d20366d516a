"""Property tests for the multiplier array form, over drawn block categories."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cstarcat.category import compose  # noqa: E402
from cstarcat.generators import random_block_category  # noqa: E402
from cstarcat.multipliers import (  # noqa: E402
    MultiplierMorphism,
    compose_multipliers,
    kappa,
    multiplier_from_arrays,
    multiplier_space,
    multiplier_to_arrays,
)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_array_form_round_trips_and_carries_composition(seed, data):
    cat, _ = random_block_category(seed)
    objs = range(cat.n_objects)
    x, y = data.draw(st.sampled_from([(x, y) for x in objs for y in objs if cat.hom_dim(x, y)]))
    z = data.draw(st.sampled_from([z for z in objs if cat.hom_dim(y, z)]))
    rng = np.random.default_rng(seed)

    # a random combination of the null-space basis round-trips through the arrays
    space = multiplier_space(cat, x, y)
    coeffs = rng.standard_normal(len(space)) + 1j * rng.standard_normal(len(space))
    vec = sum(c * basis.vec() for c, basis in zip(coeffs, space))
    n_l = space[0].L.size
    m = MultiplierMorphism(cat, x, y, vec[:n_l], vec[n_l:])
    arrays = multiplier_to_arrays(m)
    rebuilt = multiplier_from_arrays(cat, x, y, arrays.L_maps, arrays.R_maps)
    assert np.linalg.norm(rebuilt.vec() - m.vec()) <= 1e-8 * max(np.linalg.norm(vec), 1.0)

    # κ carries composition to the array-form composite
    b = cat.random_morphism(rng, x, y)
    a = cat.random_morphism(rng, y, z)
    lhs = compose_multipliers(kappa(cat, a), kappa(cat, b))
    rhs = kappa(cat, compose(a, b))
    assert np.linalg.norm(lhs.vec() - rhs.vec()) <= 1e-8 * max(np.linalg.norm(rhs.vec()), 1.0)
