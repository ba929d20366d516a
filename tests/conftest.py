"""Shared fixtures: small concrete categories used across the suite."""

import os

# One BLAS thread unless the caller asks otherwise, set before numpy loads:
# timings (the acceptance wall-clock gates among them) then do not depend on
# how many other BLAS-heavy processes share the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from cstarcat.category import CStarCategory  # noqa: E402


def matrix_units(dy, dx):
    units = []
    for i in range(dy):
        for j in range(dx):
            m = np.zeros((dy, dx), dtype=np.complex128)
            m[i, j] = 1.0
            units.append(m)
    return units


def full_matrix_category(dims):
    """Category with hom(x, y) = all dim(y) x dim(x) matrices."""
    objects = [(f"x{i}", d) for i, d in enumerate(dims)]
    homs = {
        (x, y): matrix_units(dims[y], dims[x])
        for x in range(len(dims))
        for y in range(len(dims))
    }
    return CStarCategory(objects, homs, assume_orthonormal=True)


@pytest.fixture
def m2():
    return full_matrix_category([2])


@pytest.fixture
def cat23():
    return full_matrix_category([2, 3])
