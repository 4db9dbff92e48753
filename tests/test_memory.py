"""Transient memory budgets of the operators that run on large grids.

Budgets count real fields of the test's grid (8 * N^3 bytes for an N^3
grid) of peak traced memory (numpy's allocations are traced) during one
warm call: cached symbols and rules are built by a first call and not
counted.  The representation probe runs on no grid; its budget is in
bytes.
"""

import tracemalloc

import numpy as np

from lichlab.bubbles import BubbleParams, bubble
from lichlab.conformal import (
    PhysicsData,
    Potential,
    SystemCoefficients,
    constraint_residuals,
    reconstruct,
)
from lichlab.diagnostics import pohozaev_defect
from lichlab.geometry import (
    Chart,
    OneFormField,
    ScalarField,
    SymTensorField,
    Torus,
)
from lichlab.green import representation_residual
from lichlab.harness import _bump, tensor_from_recipe
from lichlab.quadrature import _usable_cores

N = 32


def warm_peak_bytes(fn):
    """Peak traced memory of the second call of fn, in bytes."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def warm_peak_fields(fn, n=N):
    """Peak traced memory of the second call of fn, in n^3 fields."""
    return warm_peak_bytes(fn) / (8 * n ** 3)


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


def test_pohozaev_defect_splines_one_field_at_a_time():
    # the quadrature nodes, weights and joined point list (about 2 fields
    # at 65^3) are alive throughout; with them, the chart gradient as
    # g.grad builds it (its 3 partials and the reshaped copy and product
    # of the one in flight, 5 fields), and then the reads in flight
    # together (the 3 partials filtered in place, the filtered copy of v,
    # the one index array they share and their 4 results, about 5.5
    # fields) fit in 8; a gradient that stacks three finished partials
    # (8.2 fields), an index array per read in flight (9.0 fields) and a
    # spline of every field held for two passes over the points (16.9
    # fields) do not
    g = Chart(3, 65, extent=1.3)
    pts = np.stack(np.meshgrid(*([g.axis_coords] * 3), indexing="ij"),
                   axis=-1)
    v = ScalarField(g, bubble(BubbleParams(n=3, mu=1.0, f_center=3.0), pts))
    C = SystemCoefficients(
        h=ScalarField.constant(g, 0.0), f=ScalarField.constant(g, 3.0),
        b=ScalarField.constant(g, 0.0), U=SymTensorField.zero(g),
        X=OneFormField.zero(g), Y=OneFormField.zero(g), gamma=1.0)
    assert warm_peak_fields(
        lambda: pohozaev_defect(v, C, np.zeros(3), 1.0), n=65) < 8.0


def test_representation_streams_its_shells():
    # the level-2 probe: each worker holds one batch of three 3200-node
    # shells and its stencil temporaries (about 3 MB), over a base of
    # about 1 MB.  Measured warm peaks: 1.39 MB for a serial loop over
    # single shells, 3.8 MB on 1 worker and 6.6-6.8 MB on 2.
    # Materialising every shell's points first costs about 34 MB more,
    # which breaks this budget on up to 9 usable cores.
    peak = warm_peak_bytes(lambda: representation_residual(
        _bump, np.zeros(3), 3, radius=1.0, level=2))
    assert peak < (2.0 + 3.5 * _usable_cores()) * 1e6
