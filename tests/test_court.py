import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoopnet.court import CourtSpec, _round_ties_to_zero

from _oracles import (
    action_index_of,
    box_of,
    cell_center,
    cell_of,
    displacements_from_action_indices,
    oracle_boxes_from_positions,
    oracle_cells_from_positions,
)

DESK = CourtSpec()
PAPER = CourtSpec(micro_cell_ft=0.25)


def test_grid_shapes():
    assert (DESK.micro_cols, DESK.micro_rows) == (50, 45)
    assert (PAPER.micro_cols, PAPER.micro_rows) == (200, 180)
    assert (DESK.macro_cols, DESK.macro_rows) == (10, 9)
    assert DESK.n_macro_boxes == 90
    assert DESK.n_actions == 289


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        CourtSpec(micro_cell_ft=0.3)  # does not divide 50
    with pytest.raises(ValueError):
        CourtSpec(macro_box_ft=7.0)
    with pytest.raises(ValueError):
        CourtSpec(width_ft=-1)
    with pytest.raises(ValueError):
        CourtSpec(velocity_radius_cells=0)


def _cells(spec, *xy):
    cols, rows = spec.cells_from_positions(np.array(xy, dtype=np.float64))
    return list(zip(cols.tolist(), rows.tolist()))


def _boxes(spec, *xy):
    return spec.boxes_from_positions(np.array(xy, dtype=np.float64)).tolist()


def _action(spec, dx, dy):
    return int(spec.actions_from_displacements(np.array(dx), np.array(dy)))


def _index(spec, cx, cy):
    r = spec.velocity_radius_cells
    return (cy + r) * spec.velocity_side + (cx + r)


def test_pos_to_cell_examples():
    assert _cells(PAPER, (10.0, 9.0)) == [(40, 36)]
    assert _cells(DESK, (0.0, 0.0), (49.999, 44.999)) == [(0, 0), (49, 44)]


def test_pos_to_cell_clamps():
    assert _cells(DESK, (-3.0, 50.0), (25.0, 25.0), (60.0, -0.1)) == [(0, 44), (25, 25), (49, 0)]


def test_cell_to_pos_examples():
    assert cell_center(DESK, 0, 0) == (0.5, 0.5)
    assert cell_center(PAPER, 40, 36) == (10.125, 9.125)
    assert _cells(PAPER, (10.125, 9.125)) == [(40, 36)]


def test_cell_round_trip_exhaustive():
    small = CourtSpec(width_ft=10, height_ft=9, micro_cell_ft=1.0, macro_box_ft=1.0)
    grid = [(col, row) for col in range(small.micro_cols) for row in range(small.micro_rows)]
    centers = [cell_center(small, col, row) for col, row in grid]
    assert _cells(small, *centers) == grid


def test_macro_box_examples():
    assert _boxes(DESK, (12.5, 20.0), (0.0, 0.0)) == [2 + 10 * 4, 0]
    assert _boxes(DESK, (-1.0, 46.0), (51.0, 2.0)) == [0 + 10 * 8, 9]  # clamped
    np.testing.assert_array_equal(DESK.macro_box_centers(np.array([0, 42])),
                                  [[2.5, 2.5], [12.5, 22.5]])


def test_macro_box_lattice_oracle():
    # every 1 ft lattice point maps to the same box as its 5x5 square corner
    lattice = [(float(xi), float(yi)) for xi in range(50) for yi in range(45)]
    expected = [int(x) // 5 + 10 * (int(y) // 5) for x, y in lattice]
    assert _boxes(DESK, *lattice) == expected
    assert expected == [box_of(DESK, x, y) for x, y in lattice]


def test_macro_micro_center_consistency():
    centers = [cell_center(DESK, col, row)
               for col in range(DESK.micro_cols) for row in range(DESK.micro_rows)]
    geometric = [int(x // DESK.macro_box_ft) + DESK.macro_cols * int(y // DESK.macro_box_ft)
                 for x, y in centers]
    assert _boxes(DESK, *centers) == geometric
    # every box center lies in its own box
    ids = np.arange(DESK.n_macro_boxes)
    np.testing.assert_array_equal(DESK.boxes_from_positions(DESK.macro_box_centers(ids)), ids)


@pytest.mark.parametrize("spec", [DESK, PAPER], ids=["desk", "paper"])
def test_cells_and_boxes_equal_their_per_axis_form(spec):
    # on-court and up-to-3-ft off-court positions as (M, 11, 2) batches
    # like the model's input, and every cell edge on both axes: both axes
    # at once give the same cells and boxes as one axis at a time
    rng = np.random.default_rng(41)
    w, h = spec.width_ft, spec.height_ft
    on = rng.uniform((0.0, 0.0), (w, h), size=(40, 11, 2))
    off = rng.uniform((-3.0, -3.0), (w + 3.0, h + 3.0), size=(40, 11, 2))
    xs = np.concatenate([np.arange(0.0, w + spec.micro_cell_ft, spec.micro_cell_ft),
                         [-3.0, -1e-9, spec.far_edge[0], w + 3.0]])
    ys = np.concatenate([np.arange(0.0, h + spec.micro_cell_ft, spec.micro_cell_ft),
                         [-3.0, -1e-9, spec.far_edge[1], h + 3.0]])
    edges = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    for xy in (on, off, edges):
        for got, want in zip(spec.cells_from_positions(xy), oracle_cells_from_positions(spec, xy)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(spec.boxes_from_positions(xy), oracle_boxes_from_positions(spec, xy))
    assert spec.cells_from_positions(off)[0].min() == 0
    assert spec.boxes_from_positions(off).max() == spec.n_macro_boxes - 1


def test_displacement_to_action_examples():
    assert _action(PAPER, 0.75, -0.5) == _index(PAPER, 3, -2)
    assert _action(DESK, 0.0, 0.0) == DESK.stationary_action_index == 144
    assert _action(PAPER, 5.0, 0.0) == _index(PAPER, 8, 0)  # clipped


def test_ties_round_toward_zero():
    assert _action(DESK, 0.5, -0.5) == _index(DESK, 0, 0)
    assert _action(DESK, 2.5, -2.5) == _index(DESK, 2, -2)
    assert _action(DESK, 0.51, -0.51) == _index(DESK, 1, -1)


def test_action_to_displacement_examples():
    idx = np.array([_index(DESK, 3, -2), DESK.stationary_action_index])
    np.testing.assert_array_equal(displacements_from_action_indices(DESK, idx),
                                  [[3.0, -2.0], [0.0, 0.0]])


def test_action_round_trip_all_289():
    idx = np.arange(DESK.n_actions)
    back = displacements_from_action_indices(DESK, idx)
    np.testing.assert_array_equal(DESK.actions_from_displacements(back[:, 0], back[:, 1]), idx)


@pytest.mark.parametrize("spec", [DESK, PAPER], ids=["desk", "paper"])
def test_displacements_from_actions_equal_the_oracle(spec):
    # every action index, flat and as a (rollouts, lookahead) batch
    idx = np.arange(spec.n_actions)
    for actions in (idx, idx[::-1].reshape(-1, 1), np.stack([idx, idx[::-1]], axis=1)):
        got = spec.displacements_from_actions(actions)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, displacements_from_action_indices(spec, actions))


@settings(max_examples=100, deadline=None)
@given(
    dx=st.floats(-10, 10, allow_nan=False),
    dy=st.floats(-10, 10, allow_nan=False),
)
def test_clipping_idempotence(dx, dy):
    a = _action(DESK, dx, dy)
    assert a == action_index_of(DESK, dx, dy)
    fx, fy = displacements_from_action_indices(DESK, np.array(a))
    assert _action(DESK, fx, fy) == a


@settings(max_examples=100, deadline=None)
@given(
    x=st.floats(-5, 55, allow_nan=False),
    y=st.floats(-5, 50, allow_nan=False),
)
def test_vectorized_matches_scalar(x, y):
    assert _cells(DESK, (x, y)) == [cell_of(DESK, x, y)]
    assert _boxes(DESK, (x, y)) == [box_of(DESK, x, y)]


def test_vectorized_action_indices():
    dx = np.array([0.75, 0.0, 5.0, -2.5, 0.51])
    dy = np.array([-0.5, 0.0, 0.0, 2.5, -9.0])
    idx = PAPER.actions_from_displacements(dx, dy)
    assert idx.tolist() == [action_index_of(PAPER, a, b) for a, b in zip(dx, dy)]
    back = displacements_from_action_indices(PAPER, idx)
    assert back[1].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("spec", [DESK, PAPER], ids=["desk", "paper"])
def test_converters_equal_their_clip_form(spec):
    # on-court points, points up to a court's size off every edge, and
    # displacements past the velocity radius with exact half-cell ties
    rng = np.random.default_rng(23)
    extent = np.array([spec.width_ft, spec.height_ft])
    xy = np.concatenate([
        rng.uniform(0.0, extent, (400, 2)),
        rng.uniform(-extent, 2.0 * extent, (400, 2)),
    ]).reshape(20, 40, 2)
    cols, rows = spec.cells_from_positions(xy)
    cell = np.floor(xy / spec.micro_cell_ft).astype(np.int64)
    np.testing.assert_array_equal(cols, np.clip(cell[..., 0], 0, spec.micro_cols - 1))
    np.testing.assert_array_equal(rows, np.clip(cell[..., 1], 0, spec.micro_rows - 1))
    box = np.floor(xy / spec.macro_box_ft).astype(np.int64)
    expect = np.clip(box[..., 0], 0, spec.macro_cols - 1) + spec.macro_cols * np.clip(
        box[..., 1], 0, spec.macro_rows - 1
    )
    boxes = spec.boxes_from_positions(xy)
    np.testing.assert_array_equal(boxes, expect)
    r = spec.velocity_radius_cells
    reach = 2 * r * spec.micro_cell_ft
    dx, dy = np.concatenate([
        rng.uniform(-reach, reach, (2, 600)),
        (rng.integers(-4 * r, 4 * r + 1, (2, 200)) + 0.5) * spec.micro_cell_ft,
    ], axis=1)
    actions = spec.actions_from_displacements(dx, dy)
    cx = np.clip(_round_ties_to_zero(dx / spec.micro_cell_ft), -r, r)
    cy = np.clip(_round_ties_to_zero(dy / spec.micro_cell_ft), -r, r)
    np.testing.assert_array_equal(actions, (cy + r) * spec.velocity_side + (cx + r))
    for a in (cols, rows, boxes, actions):
        assert a.dtype == np.int64
    # the off-court draws do reach every clamp
    assert cols.min() == 0 and cols.max() == spec.micro_cols - 1
    assert np.abs(cx).max() == r


def test_config_document_round_trip():
    from dataclasses import replace

    from hoopnet.config import RunConfig, dump_run_config, load_run_config

    spec = CourtSpec(micro_cell_ft=0.25, velocity_radius_cells=8)
    again = load_run_config(dump_run_config(replace(RunConfig(), court=spec)))
    assert again.court == spec
