import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroflow import GaussianDensity, Grid, GridDensity, VectorFieldGrid
from entroflow.control import evolve_modulated, simulate_feedback
from entroflow.fokker_planck import evolve
from entroflow.grids import boundary_certificate, gradient, quadrature
from entroflow.quantum import DensityOperator, HamiltonianOperator, LindbladSpec, lindblad_evolve


def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid((0.0,), (0.0,), (8,))
    with pytest.raises(ValueError):
        Grid((0.0,), (1.0,), (1,))
    with pytest.raises(ValueError):
        Grid((), (), ())
    for lo, hi in ((np.nan, 1.0), (0.0, np.inf), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="no finite cell width"):
            Grid((lo,), (hi,), (8,))
    g = Grid((-2.0, 0.0), (2.0, 1.0), (8, 4))
    assert g.ndim == 2
    assert g.cell_volume == pytest.approx(0.5 * 0.25)
    assert g.axis_centers(0)[0] == pytest.approx(-1.75)


def test_grid_geometry_cached_and_read_only():
    g = Grid((-2.0, 0.0), (2.0, 1.0), (8, 4))
    assert g.centers() is g.centers() and g.dx is g.dx
    with pytest.raises(ValueError):
        g.dx[0] = 1.0
    with pytest.raises(ValueError):
        g.centers()[0, 0, 0] = 1.0
    fresh = Grid((-2.0, 0.0), (2.0, 1.0), (8, 4))
    assert g == fresh and hash(g) == hash(fresh)
    assert {g: 1}[fresh] == 1


def test_points_and_boundary_mask():
    g = Grid((0.0, 0.0), (1.0, 1.0), (4, 3))
    assert g.points().shape == (12, 2)
    mask = g.boundary_mask()
    assert mask.sum() == 12 - 2 * 1  # all but the two interior cells
    assert not mask[1, 1] and not mask[2, 1]


def test_cell_index_roundtrip():
    g = Grid((-1.0, -1.0), (1.0, 1.0), (10, 10))
    pts = g.points()
    idx, inside = g.cell_index(pts)
    assert np.all(inside)
    assert np.array_equal(idx, np.arange(g.size))
    _, inside = g.cell_index(np.array([[2.0, 0.0]]))
    assert not inside[0]


def test_cell_index_into_caller_buffers():
    # points of any leading shape, inside and out (NaN too), map as the
    # floored cells flattened in C order; the buffers may be larger
    g = Grid((-1.0, 0.0, 2.0), (1.0, 3.0, 2.5), (4, 5, 3))
    x = np.random.default_rng(1).uniform(-2.0, 4.0, (6, 7, 3))
    x[0, 0, 1] = np.nan
    ij = np.floor((x - np.array(g.lo)) / g.dx)
    inside = np.all((ij >= 0) & (ij < g.cells), axis=-1)
    ij = np.clip(np.nan_to_num(ij, nan=-1.0).astype(int), 0, np.array(g.cells) - 1)
    for work in (None, g.cell_work(50)):
        got, got_inside = g.cell_index(x, work)
        assert np.array_equal(got, np.ravel_multi_index(tuple(np.moveaxis(ij, -1, 0)),
                                                        g.cells))
        assert np.array_equal(got_inside, inside) and got.shape == (6, 7)


def _cell_oracle(grid, point):
    """(flat cell, inside) of one point, axis by axis in Python floats: a
    coordinate below the box or NaN takes the first cell, one above it the
    last."""
    flat, inside = 0, True
    for v, lo, d, n in zip(point, grid.lo, grid.dx, grid.cells):
        u = (float(v) - lo) / float(d)
        inside = inside and 0.0 <= u < n
        flat = flat * n + (0 if not u >= 0.0 else n - 1 if u >= n else math.floor(u))
    return flat, inside


@st.composite
def grids_and_points(draw):
    ndim = draw(st.integers(1, 3))
    axes = [(draw(st.floats(-10.0, 10.0)), draw(st.floats(0.1, 10.0)), draw(st.integers(2, 6)))
            for _ in range(ndim)]
    grid = Grid(tuple(lo for lo, _, _ in axes), tuple(lo + w for lo, w, _ in axes),
                tuple(n for _, _, n in axes))
    coord = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300]),
                      st.floats(-25.0, 25.0))
    m = draw(st.integers(1, 8))
    return grid, np.array(draw(st.lists(coord, min_size=m * ndim, max_size=m * ndim))
                          ).reshape(m, ndim)


@settings(max_examples=200, deadline=None)
@given(case=grids_and_points())
def test_cell_index_of_points_not_finite_or_far_out(case):
    # NaN, +-inf and +-1e300 coordinates are never cast: no warning, and
    # each point maps as the oracle says, with or without work buffers
    grid, x = case
    want = [_cell_oracle(grid, p) for p in x]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for work in (None, grid.cell_work(len(x) + 3)):
            flat, inside = grid.cell_index(x, work)
            assert [(int(f), bool(i)) for f, i in zip(flat, inside)] == want


def test_gradient_exact_for_quadratics():
    # central interior + second-order one-sided edges: quadratics differentiate exactly
    g = Grid((-3.0,), (5.0,), (64,))
    x = g.axis_centers(0)
    vals = 0.5 * x**2 - 2.0 * x + 1.0
    got = gradient(g, vals)[..., 0]
    assert np.allclose(got, x - 2.0, atol=1e-12)

    g2 = Grid((-1.0, -1.0), (1.0, 1.0), (16, 12))
    c = g2.centers()
    f = c[..., 0] ** 2 + 3.0 * c[..., 0] * c[..., 1]
    got = gradient(g2, f)
    assert np.allclose(got[..., 0], 2 * c[..., 0] + 3 * c[..., 1], atol=1e-12)
    assert np.allclose(got[..., 1], 3 * c[..., 0], atol=1e-12)


def test_gradient_needs_three_cells_per_axis():
    # the second-order one-sided edges take three cells along every axis
    with pytest.raises(ValueError, match="3 cells along each axis; axis 1 of the grid has 2"):
        gradient(Grid((-1.0, -1.0), (1.0, 1.0), (4, 2)), np.zeros((4, 2)))
    assert gradient(Grid((-1.0,), (1.0,), (3,)), np.arange(3.0)).shape == (3, 1)


def test_density_validation():
    g = Grid((0.0,), (1.0,), (4,))
    with pytest.raises(ValueError):
        GridDensity(g, np.array([1.0, -0.1, 1.0, 1.0]))
    with pytest.raises(ValueError):
        GridDensity(g, np.full(4, 2.0))  # mass 2, not 1
    d = GridDensity(g, np.full(4, 1.0))
    assert d.integrate() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        d.values[0] = 3.0  # immutable


def test_boundary_flag_is_read_off_any_density():
    # N(0, 1) cut at one sigma is flagged; at eight sigma its boundary values
    # are 1.6e-14 of the peak, and N(1, 1)'s 2.8e-11, below BOUNDARY_DECAY_FACTOR
    for half, mean, suspect in ((1.0, 0.0, True), (8.0, 0.0, False), (8.0, 1.0, False)):
        grid = Grid((-half,), (half,), (256,))
        rho = GaussianDensity([mean], [[1.0]]).sample_on(grid)
        assert rho.boundary_suspect is suspect
        assert boundary_certificate(grid, rho.values)[1] == suspect
        with pytest.raises(TypeError):  # the values decide it, not the caller
            GridDensity(grid, rho.values, boundary_suspect=not suspect)
    # a uniform density on a small box is all boundary: ratio 1
    small = Grid((-1.0,), (1.0,), (32,))
    assert boundary_certificate(small, np.full(32, 0.5)) == (1.0, True)


@st.composite
def density_stacks(draw):
    """A random 1-D or 2-D grid and a stack of 1-6 positive densities on it,
    some of them cut by the box and some confined."""
    ndim = draw(st.integers(1, 2))
    cells = tuple(draw(st.integers(2, 64 if ndim == 1 else 16)) for _ in range(ndim))
    grid = Grid((-1.0,) * ndim, (1.0,) * ndim, cells)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = grid.centers()
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        width = 10.0 ** rng.uniform(-1.5, 0.5)
        d2 = np.sum((x - rng.uniform(-1, 1, ndim)) ** 2, axis=-1)
        raw = np.exp(-(d2 - d2.min()) / width ** 2)  # peak 1: no row underflows to 0
        rows.append(raw / quadrature(grid, raw))
    return grid, np.stack(rows)


@settings(max_examples=80, deadline=None)
@given(case=density_stacks())
def test_boundary_certificate_of_a_stack_is_that_of_each_row(case):
    grid, stack = case
    ratios, suspect = boundary_certificate(grid, stack)
    assert ratios.shape == suspect.shape == stack.shape[:1]
    for k, values in enumerate(stack):
        ratio, flag = boundary_certificate(grid, values)
        assert ratios[k].tobytes() == np.float64(ratio).tobytes()
        assert suspect[k] == flag == GridDensity(grid, values).boundary_suspect


def test_density_moments():
    g = Grid((-10.0,), (10.0,), (1024,))
    x = g.axis_centers(0)
    vals = np.exp(-((x - 1.0) ** 2) / 4.0)
    vals /= quadrature(g, vals)
    d = GridDensity(g, vals)
    assert d.mean()[0] == pytest.approx(1.0, abs=1e-8)
    assert d.covariance()[0, 0] == pytest.approx(2.0, rel=1e-7)


def test_vector_field_validation():
    g = Grid((0.0,), (1.0,), (4,))
    with pytest.raises(ValueError):
        VectorFieldGrid(g, np.full((4,), 1.0))  # missing component axis
    with pytest.raises(ValueError):
        VectorFieldGrid(g, np.full((4, 1), np.nan))
    z = VectorFieldGrid.zero(g)
    assert z.vectors.shape == (4, 1)


def _density():
    return GaussianDensity([0.5], [[1.0]]).sample_on(Grid((-6.0,), (6.0,), (32,)))


_QUBIT = LindbladSpec(HamiltonianOperator(np.diag([1.0, -1.0])), (0.5 * np.eye(2, k=1),))

# every solver that stores a march, at a valid horizon of 4 steps
STORING_RUNS = {
    "evolve": lambda ham, m: evolve(ham, 0.0, _density(), 0.0, 0.04, 0.01, store_every=m),
    "evolve_modulated": lambda ham, m: evolve_modulated(ham, 1.0, _density(), 0.04, 0.01,
                                                        store_every=m),
    "simulate_feedback": lambda ham, m: simulate_feedback(ham, 1.0, _density(), 0.04, 0.01,
                                                          store_every=m),
    "lindblad_evolve": lambda ham, m: lindblad_evolve(
        _QUBIT, DensityOperator(np.diag([0.9, 0.1])), 0.04, 0.01, store_every=m),
}


@pytest.mark.parametrize("store_every", [0, -1, 2.5])
@pytest.mark.parametrize("run", sorted(STORING_RUNS))
def test_store_every_is_an_integer_at_least_one(ou_ham, run, store_every):
    with pytest.raises(ValueError, match="store_every must be an integer >= 1"):
        STORING_RUNS[run](ou_ham, store_every)
    assert len(STORING_RUNS[run](ou_ham, 3).times) == 3  # t = 0, the 3rd step, the last
