"""Property test for the one-spectrum projection check, over drawn block projections."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cstarcat.category import random_block  # noqa: E402
from cstarcat.generators import random_block_category, random_block_projection  # noqa: E402

from test_category import assert_projection_report_bounds_three_norms  # noqa: E402


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 10_000), base=st.lists(st.integers(0, 1), min_size=1, max_size=4),
       size=st.sampled_from([0.0, 1e-13, 1e-9, 1e-3]), blockwise=st.booleans(),
       hermitian=st.booleans())
def test_projection_report_bounds_the_three_norm_reference(seed, base, size, blockwise,
                                                           hermitian):
    cat, _ = random_block_category(seed % 60, n_objects=2)
    rng = np.random.default_rng(seed)
    p = random_block_projection(rng, cat, base)
    if blockwise:
        # inside the block hom-space, so zero blocks stay zero and split the spectrum
        noise = random_block(rng, cat, base, base)
    else:
        noise = rng.standard_normal(p.shape) + 1j * rng.standard_normal(p.shape)
    p = p + size * noise
    if hermitian:
        p = 0.5 * (p + p.conj().T)
    assert_projection_report_bounds_three_norms(cat, tuple(base), p)
