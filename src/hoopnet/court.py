"""Half-court geometry and array conversions into its discrete spaces.

Positions are in feet with the origin at the court's lower-left corner.
Three discretizations hang off one CourtSpec: fine occupancy cells, coarse
goal boxes, and a square grid of per-raw-frame velocity actions.  Every
conversion is a pure function of numpy arrays; positions outside the
court land in the nearest edge cell or box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import check_finite


def _divides(extent: float, cell: float) -> bool:
    n = extent / cell
    return round(n) >= 1 and abs(n - round(n)) < 1e-9


@dataclass(frozen=True)
class CourtSpec:
    """Court extents plus every discretization parameter.

    One velocity cell is one micro cell of displacement per raw frame
    (raw tracking runs at 25 Hz).  Grid shapes are always derived from
    the extents and cell sizes, never stored.
    """

    width_ft: float = 50.0
    height_ft: float = 45.0
    micro_cell_ft: float = 1.0
    macro_box_ft: float = 5.0
    velocity_radius_cells: int = 8
    lookahead_steps: int = 4
    subsample_stride: int = 4

    def __post_init__(self) -> None:
        check_finite(self)
        if self.width_ft <= 0 or self.height_ft <= 0:
            raise ValueError("width_ft and height_ft must be positive")
        for name in ("micro_cell_ft", "macro_box_ft"):
            cell = getattr(self, name)
            if cell <= 0:
                raise ValueError(f"{name} must be positive")
            if not (_divides(self.width_ft, cell) and _divides(self.height_ft, cell)):
                raise ValueError(
                    f"court extents ({self.width_ft} x {self.height_ft}) must be "
                    f"integer multiples of {name}={cell}"
                )
        if self.velocity_radius_cells < 1:
            raise ValueError("velocity_radius_cells must be >= 1")
        if self.lookahead_steps < 1:
            raise ValueError("lookahead_steps must be >= 1")
        if self.subsample_stride < 1:
            raise ValueError("subsample_stride must be >= 1")

    # grid shapes

    @property
    def micro_cols(self) -> int:
        return round(self.width_ft / self.micro_cell_ft)

    @property
    def micro_rows(self) -> int:
        return round(self.height_ft / self.micro_cell_ft)

    @property
    def macro_cols(self) -> int:
        return round(self.width_ft / self.macro_box_ft)

    @property
    def macro_rows(self) -> int:
        return round(self.height_ft / self.macro_box_ft)

    @property
    def n_macro_boxes(self) -> int:
        return self.macro_cols * self.macro_rows

    @property
    def velocity_side(self) -> int:
        return 2 * self.velocity_radius_cells + 1

    @property
    def n_actions(self) -> int:
        return self.velocity_side ** 2

    @property
    def stationary_action_index(self) -> int:
        r = self.velocity_radius_cells
        return r * self.velocity_side + r

    @property
    def far_edge(self) -> tuple[float, float]:
        """The largest (x, y) a position is clamped to: just inside the far
        edges, so it lands in the last cell and box, not one past them."""
        return self.width_ft - 1e-9, self.height_ft - 1e-9

    # positions -> micro cells and macro boxes

    def cells_from_positions(self, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(cols, rows) of the micro cells holding an (..., 2) array of
        positions, clamped to the grid."""
        cells = np.floor(xy / self.micro_cell_ft).astype(np.int64)
        # a clamp per axis: one against a (2,) bound runs an inner loop of
        # two elements and is twice as slow at 1,600 rows
        return (_clamp(cells[..., 0], 0, self.micro_cols - 1),
                _clamp(cells[..., 1], 0, self.micro_rows - 1))

    def boxes_from_positions(self, xy: np.ndarray) -> np.ndarray:
        """Ids of the macro boxes holding an (..., 2) array of positions,
        clamped to the grid; id = col + macro_cols * row."""
        boxes = np.floor(xy / self.macro_box_ft).astype(np.int64)
        return (_clamp(boxes[..., 0], 0, self.macro_cols - 1)
                + self.macro_cols * _clamp(boxes[..., 1], 0, self.macro_rows - 1))

    def macro_box_centers(self, box_ids: np.ndarray) -> np.ndarray:
        """Centers of macro boxes as an (..., 2) array of positions."""
        bc = box_ids % self.macro_cols
        br = box_ids // self.macro_cols
        return np.stack([(bc + 0.5) * self.macro_box_ft, (br + 0.5) * self.macro_box_ft], axis=-1)

    # displacements -> velocity actions

    def actions_from_displacements(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """Flattened action indices of per-raw-frame displacements in feet.

        Each axis rounds to whole micro cells, half-way cases toward zero
        (2.5 -> 2, -2.5 -> -2), then clips to the velocity radius R; the
        index is (dy + R) * (2R + 1) + (dx + R).
        """
        r = self.velocity_radius_cells
        cx = _clamp(_round_ties_to_zero(dx / self.micro_cell_ft), -r, r)
        cy = _clamp(_round_ties_to_zero(dy / self.micro_cell_ft), -r, r)
        return (cy + r) * self.velocity_side + (cx + r)

    def displacements_from_actions(self, actions: np.ndarray) -> np.ndarray:
        """(..., 2) displacements in feet of flattened action indices: the
        inverse of ``actions_from_displacements`` on whole cells."""
        r = self.velocity_radius_cells
        cells = np.empty((*np.shape(actions), 2), np.int64)
        # one divmod into both columns: rollout horizon steps are bound by
        # per-op overhead
        np.divmod(actions, self.velocity_side, out=(cells[..., 1], cells[..., 0]))
        cells -= r
        return cells * self.micro_cell_ft


def _clamp(v: np.ndarray, lo: int, hi: int) -> np.ndarray:
    # np.clip's Python wrapper costs more than the two ufuncs on small arrays
    return np.minimum(np.maximum(v, lo), hi)


def _round_ties_to_zero(v: np.ndarray) -> np.ndarray:
    return (np.sign(v) * np.ceil(np.abs(v) - 0.5)).astype(np.int64)
