"""Transient memory budgets of the torus operators that run on large grids.

Budgets count real 32^3 fields (8 * 32^3 bytes) of peak traced memory
(numpy's allocations are traced) during one warm call: cached symbols are
built by a first call and not counted.
"""

import tracemalloc

import numpy as np

from lichlab.conformal import (
    PhysicsData,
    Potential,
    constraint_residuals,
    reconstruct,
)
from lichlab.geometry import OneFormField, ScalarField, Torus
from lichlab.harness import tensor_from_recipe

N = 32
FIELD = 8 * N ** 3


def warm_peak_fields(fn):
    """Peak traced memory of the second call of fn, in fields."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / FIELD
    finally:
        tracemalloc.stop()


def test_killing_builds_no_full_spectrum():
    # the result (6 fields) and the packed half spectra of input and result
    # (3 + 6 components of about one field each, plus the inverse
    # transform's copy) fit in 20; the (3, 3, ...) complex spectrum of
    # every d_i W_j does not
    g = Torus(3, N)
    w = np.random.default_rng(0).normal(size=g.one_form_shape)
    assert warm_peak_fields(lambda: g.killing(w)) < 20.0


def test_constraint_residuals_keep_K_packed():
    # without the full K, its 9-component spectrum and the Hamiltonian
    # temporaries alive during the momentum part
    g = Torus(3, N)
    x = g.coords()
    grid = np.zeros(g.grid_shape)
    data = PhysicsData(
        psi=ScalarField(g, np.cos(x[2]) + grid),
        pi=ScalarField(g, 0.2 + 0.1 * np.cos(x[1]) + grid),
        tau=ScalarField(g, 0.3 * np.cos(x[0]) + grid),
        sigma=tensor_from_recipe(g, "constant_tensor(xy=0.1)"),
        potential=Potential.constant(0.0))
    u = ScalarField(g, 1.0 + 0.1 * np.sin(x[0]) * np.cos(x[2]) + grid)
    W = OneFormField(g, 0.05 * np.stack([np.sin(x[1]) + grid,
                                         np.cos(x[2]) + grid,
                                         np.sin(x[0] + x[1]) + grid]))
    ids = reconstruct(u, W, data)
    assert warm_peak_fields(
        lambda: constraint_residuals(ids, data.potential)) < 32.0
