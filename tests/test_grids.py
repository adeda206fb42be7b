import numpy as np
import pytest

from entroflow import GaussianDensity, Grid, GridDensity, VectorFieldGrid
from entroflow.control import evolve_modulated, simulate_feedback
from entroflow.fokker_planck import evolve
from entroflow.grids import gradient, quadrature
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
    with np.errstate(invalid="ignore"):
        ij = np.clip(np.nan_to_num(ij, nan=-1.0).astype(int), 0, np.array(g.cells) - 1)
        for work in (None, g.cell_work(50)):
            got, got_inside = g.cell_index(x, work)
            assert np.array_equal(got, np.ravel_multi_index(tuple(np.moveaxis(ij, -1, 0)),
                                                            g.cells))
            assert np.array_equal(got_inside, inside) and got.shape == (6, 7)


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
    # are 1.6e-14 of the peak, below BOUNDARY_DECAY_FACTOR
    for half, suspect in ((1.0, True), (8.0, False)):
        grid = Grid((-half,), (half,), (256,))
        rho = GaussianDensity([0.0], [[1.0]]).sample_on(grid)
        assert rho.boundary_suspect is suspect
        with pytest.raises(TypeError):  # the values decide it, not the caller
            GridDensity(grid, rho.values, boundary_suspect=not suspect)


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
