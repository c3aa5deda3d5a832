import numpy as np
import pytest

from cutdg.mesh import (
    CutCellMesh,
    MeshError,
    build_cut_cell_mesh,
    evenly_spaced_cuts,
)


def test_uniform_mesh_basic():
    mesh = build_cut_cell_mesh(-np.pi, np.pi, 8)
    assert mesh.n_cells == 8
    assert mesh.background_dx == pytest.approx(np.pi / 4)
    assert np.allclose(mesh.cell_sizes, mesh.background_dx)
    assert mesh.small_cells == ()
    assert mesh.vertices[0] == -np.pi and mesh.vertices[-1] == np.pi


@pytest.mark.parametrize("alpha", [1e-7, 1e-3, 0.3, 0.49])
def test_left_cut_sizes(alpha):
    mesh = build_cut_cell_mesh(0.0, 8.0, 8, [(2, alpha, "left")])
    assert mesh.n_cells == 9
    # cell 2 is the small piece, cell 3 the remainder
    assert mesh.cell_sizes[2] == pytest.approx(alpha * 1.0)
    assert mesh.cell_sizes[3] == pytest.approx((1 - alpha) * 1.0)
    assert mesh.small_cells == (2,)
    assert np.sum(mesh.cell_sizes) == pytest.approx(8.0)


def test_right_cut_puts_small_piece_second():
    mesh = build_cut_cell_mesh(0.0, 8.0, 8, [(2, 0.25, "right")])
    assert mesh.cell_sizes[2] == pytest.approx(0.75)
    assert mesh.cell_sizes[3] == pytest.approx(0.25)
    assert mesh.small_cells == (3,)


def test_multiple_cuts_offset_indices():
    # each cut inserts one vertex, shifting later cell indices by one
    mesh = build_cut_cell_mesh(0.0, 16.0, 16, [(2, 0.1, "left"), (8, 0.2, "left")])
    assert mesh.n_cells == 18
    assert mesh.small_cells == (2, 9)
    assert mesh.cell_sizes[2] == pytest.approx(0.1)
    assert mesh.cell_sizes[9] == pytest.approx(0.2)


def test_cell_bounds_wrap_periodically():
    mesh = build_cut_cell_mesh(0.0, 4.0, 4)
    xl, xr = mesh.cell_bounds(-1)
    assert (xl, xr) == (3.0, 4.0)
    xl, xr = mesh.cell_bounds(4)
    assert (xl, xr) == (0.0, 1.0)


@pytest.mark.parametrize(
    "cuts,match",
    [
        ([(2, 0.0, "left")], "alpha"),
        ([(2, 0.6, "left")], "alpha"),
        ([(2, 0.3, "up")], "side"),
        ([(9, 0.3, "left")], "index"),
        ([(2, 0.3, "left"), (2, 0.4, "left")], "distinct"),
        ([(2, 0.3, "left"), (3, 0.3, "left")], "adjacent"),
    ],
)
def test_invalid_cuts_rejected(cuts, match):
    with pytest.raises(MeshError, match=match):
        build_cut_cell_mesh(0.0, 9.0, 9, cuts)


def test_too_few_background_cells_rejected():
    with pytest.raises(MeshError):
        build_cut_cell_mesh(0.0, 1.0, 3)


def test_periodically_adjacent_cuts_rejected():
    with pytest.raises(MeshError, match="adjacent"):
        build_cut_cell_mesh(0.0, 8.0, 8, [(0, 0.3, "left"), (7, 0.3, "left")])


def test_half_cut_produces_no_small_cells():
    # an exact half cell needs no stabilization, so alpha = 1/2 is a plain
    # refinement rather than a small-cell configuration
    mesh = build_cut_cell_mesh(0.0, 8.0, 8, [(2, 0.5, "left")])
    assert mesh.small_cells == ()


def test_evenly_spaced_cuts_layout():
    cuts = evenly_spaced_cuts(16, [0.1, 0.2, 0.3])
    assert [c[0] for c in cuts] == [0, 5, 10]
    assert [c[1] for c in cuts] == [0.1, 0.2, 0.3]
    with pytest.raises(MeshError):
        evenly_spaced_cuts(4, [0.1, 0.2, 0.3])
