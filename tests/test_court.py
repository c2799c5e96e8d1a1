import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoopnet.court import ClampCounter, CourtSpec, MicroCell, VelocityAction

from _oracles import displacements_from_action_indices

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


def test_pos_to_cell_examples():
    assert PAPER.pos_to_cell(10.0, 9.0) == MicroCell(40, 36)
    assert DESK.pos_to_cell(0.0, 0.0) == MicroCell(0, 0)
    assert DESK.pos_to_cell(49.999, 44.999) == MicroCell(49, 44)


def test_pos_to_cell_clamps_and_counts():
    counter = ClampCounter()
    assert DESK.pos_to_cell(-3.0, 50.0, counter) == MicroCell(0, 44)
    assert counter.count == 1
    DESK.pos_to_cell(25.0, 25.0, counter)
    assert counter.count == 1


def test_cell_to_pos_examples():
    assert DESK.cell_to_pos(MicroCell(0, 0)) == (0.5, 0.5)
    assert PAPER.cell_to_pos(MicroCell(40, 36)) == (10.125, 9.125)
    with pytest.raises(ValueError):
        DESK.cell_to_pos(MicroCell(50, 0))


def test_cell_round_trip_exhaustive():
    small = CourtSpec(width_ft=10, height_ft=9, micro_cell_ft=1.0, macro_box_ft=1.0)
    for col in range(small.micro_cols):
        for row in range(small.micro_rows):
            x, y = small.cell_to_pos(MicroCell(col, row))
            assert small.pos_to_cell(x, y) == MicroCell(col, row)


def test_macro_box_examples():
    assert DESK.pos_to_macro_box(12.5, 20.0).id == 2 + 10 * 4
    assert DESK.pos_to_macro_box(0.0, 0.0).id == 0


def test_macro_box_lattice_oracle():
    # every 1 ft lattice point maps to the same box as its 5x5 square corner
    for xi in range(50):
        for yi in range(45):
            expected = (xi // 5) + 10 * (yi // 5)
            assert DESK.pos_to_macro_box(float(xi), float(yi)).id == expected


def test_macro_micro_center_consistency():
    for col in range(DESK.micro_cols):
        for row in range(DESK.micro_rows):
            x, y = DESK.cell_to_pos(MicroCell(col, row))
            geometric = int(x // DESK.macro_box_ft) + DESK.macro_cols * int(y // DESK.macro_box_ft)
            assert DESK.pos_to_macro_box(x, y).id == geometric


def test_displacement_to_action_examples():
    assert PAPER.displacement_to_action(0.75, -0.5) == VelocityAction(3, -2)
    zero = DESK.displacement_to_action(0.0, 0.0)
    assert zero == VelocityAction(0, 0)
    assert DESK.action_index(zero) == 144
    assert PAPER.displacement_to_action(5.0, 0.0) == VelocityAction(8, 0)  # clipped


def test_ties_round_toward_zero():
    assert DESK.displacement_to_action(0.5, -0.5) == VelocityAction(0, 0)
    assert DESK.displacement_to_action(2.5, -2.5) == VelocityAction(2, -2)
    assert DESK.displacement_to_action(0.51, -0.51) == VelocityAction(1, -1)


def test_action_to_displacement_examples():
    assert DESK.action_to_displacement(VelocityAction(3, -2)) == (3.0, -2.0)
    assert DESK.action_to_displacement(VelocityAction(0, 0)) == (0.0, 0.0)
    with pytest.raises(ValueError):
        DESK.action_to_displacement(VelocityAction(9, 0))


def test_action_round_trip_all_289():
    for index in range(DESK.n_actions):
        action = DESK.action_from_index(index)
        assert DESK.action_index(action) == index
        dx, dy = DESK.action_to_displacement(action)
        assert DESK.displacement_to_action(dx, dy) == action


@settings(max_examples=100, deadline=None)
@given(
    dx=st.floats(-10, 10, allow_nan=False),
    dy=st.floats(-10, 10, allow_nan=False),
)
def test_clipping_idempotence(dx, dy):
    a = DESK.displacement_to_action(dx, dy)
    fx, fy = DESK.action_to_displacement(a)
    assert DESK.displacement_to_action(fx, fy) == a


@settings(max_examples=100, deadline=None)
@given(
    x=st.floats(0, 49.999, allow_nan=False),
    y=st.floats(0, 44.999, allow_nan=False),
)
def test_vectorized_matches_scalar(x, y):
    xy = np.array([[x, y]])
    cols, rows = DESK.cells_from_positions(xy)
    assert (cols[0], rows[0]) == tuple(DESK.pos_to_cell(x, y))
    assert DESK.boxes_from_positions(xy)[0] == DESK.pos_to_macro_box(x, y).id


def test_vectorized_action_indices():
    dx = np.array([0.75, 0.0, 5.0])
    dy = np.array([-0.5, 0.0, 0.0])
    idx = PAPER.actions_from_displacements(dx, dy)
    expected = [
        PAPER.action_index(PAPER.displacement_to_action(a, b)) for a, b in zip(dx, dy)
    ]
    assert idx.tolist() == expected
    back = displacements_from_action_indices(PAPER, idx)
    assert back[1].tolist() == [0.0, 0.0]


def test_config_document_round_trip():
    from dataclasses import replace

    from hoopnet.config import RunConfig, dump_run_config, load_run_config

    spec = CourtSpec(micro_cell_ft=0.25, velocity_radius_cells=8)
    again = load_run_config(dump_run_config(replace(RunConfig(), court=spec)))
    assert again.court == spec
