"""Half-court geometry and conversions between continuous and discrete spaces.

Positions are in feet with the origin at the court's lower-left corner.
Three discretizations hang off one CourtSpec: fine occupancy cells, coarse
goal boxes, and a square grid of per-raw-frame velocity actions.  All
conversion functions are pure; out-of-range inputs clamp to the boundary
and optionally bump a caller-supplied ClampCounter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class MicroCell(NamedTuple):
    col: int
    row: int


class MacroGoalBox(NamedTuple):
    id: int


class VelocityAction(NamedTuple):
    dx_cells: int
    dy_cells: int


class ClampCounter:
    """Tally of coordinates silently clamped to the court boundary."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def bump(self, n: int = 1) -> None:
        self.count += n


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
        if self.width_ft <= 0 or self.height_ft <= 0:
            raise ValueError("court extents must be positive")
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
        return self.action_index(VelocityAction(0, 0))

    # positions <-> micro cells

    def pos_to_cell(self, x: float, y: float, counter: ClampCounter | None = None) -> MicroCell:
        col = int(np.floor(x / self.micro_cell_ft))
        row = int(np.floor(y / self.micro_cell_ft))
        clamped_col = min(max(col, 0), self.micro_cols - 1)
        clamped_row = min(max(row, 0), self.micro_rows - 1)
        if counter is not None and (clamped_col != col or clamped_row != row):
            counter.bump()
        return MicroCell(clamped_col, clamped_row)

    def cell_to_pos(self, cell: MicroCell) -> tuple[float, float]:
        col, row = cell
        if not (0 <= col < self.micro_cols and 0 <= row < self.micro_rows):
            raise ValueError(f"cell {cell!r} outside {self.micro_cols}x{self.micro_rows} grid")
        return ((col + 0.5) * self.micro_cell_ft, (row + 0.5) * self.micro_cell_ft)

    def cells_from_positions(
        self, xy: np.ndarray, counter: ClampCounter | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized pos_to_cell over an (..., 2) array; returns (cols, rows)."""
        cols = np.floor(xy[..., 0] / self.micro_cell_ft).astype(np.int64)
        rows = np.floor(xy[..., 1] / self.micro_cell_ft).astype(np.int64)
        ccols = np.clip(cols, 0, self.micro_cols - 1)
        crows = np.clip(rows, 0, self.micro_rows - 1)
        if counter is not None:
            counter.bump(int(np.count_nonzero((ccols != cols) | (crows != rows))))
        return ccols, crows

    # positions <-> macro boxes

    def pos_to_macro_box(
        self, x: float, y: float, counter: ClampCounter | None = None
    ) -> MacroGoalBox:
        bc = int(np.floor(x / self.macro_box_ft))
        br = int(np.floor(y / self.macro_box_ft))
        cbc = min(max(bc, 0), self.macro_cols - 1)
        cbr = min(max(br, 0), self.macro_rows - 1)
        if counter is not None and (cbc != bc or cbr != br):
            counter.bump()
        return MacroGoalBox(cbc + self.macro_cols * cbr)

    def boxes_from_positions(self, xy: np.ndarray) -> np.ndarray:
        """Vectorized pos_to_macro_box over an (..., 2) array of positions."""
        bc = np.clip(np.floor(xy[..., 0] / self.macro_box_ft).astype(np.int64), 0, self.macro_cols - 1)
        br = np.clip(np.floor(xy[..., 1] / self.macro_box_ft).astype(np.int64), 0, self.macro_rows - 1)
        return bc + self.macro_cols * br

    def macro_box_center(self, box: MacroGoalBox | int) -> tuple[float, float]:
        box_id = int(box[0]) if isinstance(box, tuple) else int(box)
        if not 0 <= box_id < self.n_macro_boxes:
            raise ValueError(f"macro box {box_id} outside 0..{self.n_macro_boxes - 1}")
        bc = box_id % self.macro_cols
        br = box_id // self.macro_cols
        return ((bc + 0.5) * self.macro_box_ft, (br + 0.5) * self.macro_box_ft)

    def macro_box_centers(self, box_ids: np.ndarray) -> np.ndarray:
        """Vectorized macro_box_center; returns an (..., 2) array."""
        bc = box_ids % self.macro_cols
        br = box_ids // self.macro_cols
        return np.stack([(bc + 0.5) * self.macro_box_ft, (br + 0.5) * self.macro_box_ft], axis=-1)

    # displacements <-> velocity actions

    def displacement_to_action(self, dx: float, dy: float) -> VelocityAction:
        r = self.velocity_radius_cells
        cx = _round_ties_to_zero(dx / self.micro_cell_ft)
        cy = _round_ties_to_zero(dy / self.micro_cell_ft)
        return VelocityAction(int(np.clip(cx, -r, r)), int(np.clip(cy, -r, r)))

    def action_to_displacement(self, action: VelocityAction) -> tuple[float, float]:
        dxc, dyc = action
        r = self.velocity_radius_cells
        if abs(dxc) > r or abs(dyc) > r:
            raise ValueError(f"action {action!r} outside radius {r}")
        return (dxc * self.micro_cell_ft, dyc * self.micro_cell_ft)

    def actions_from_displacements(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """Vectorized displacement_to_action; returns flattened action indices."""
        r = self.velocity_radius_cells
        cx = np.clip(_round_ties_to_zero_arr(dx / self.micro_cell_ft), -r, r)
        cy = np.clip(_round_ties_to_zero_arr(dy / self.micro_cell_ft), -r, r)
        return (cy + r) * self.velocity_side + (cx + r)

    # flattened action indexing: index = (dy + R) * (2R + 1) + (dx + R)

    def action_index(self, action: VelocityAction) -> int:
        dxc, dyc = action
        r = self.velocity_radius_cells
        if abs(dxc) > r or abs(dyc) > r:
            raise ValueError(f"action {action!r} outside radius {r}")
        return (dyc + r) * self.velocity_side + (dxc + r)

    def action_from_index(self, index: int) -> VelocityAction:
        if not 0 <= index < self.n_actions:
            raise ValueError(f"action index {index} outside 0..{self.n_actions - 1}")
        r = self.velocity_radius_cells
        return VelocityAction(index % self.velocity_side - r, index // self.velocity_side - r)

    def clamp_position(self, x: float, y: float, counter: ClampCounter | None = None) -> tuple[float, float]:
        """Clamp a position into the court (just inside the far edges)."""
        cx = min(max(x, 0.0), self.width_ft - 1e-9)
        cy = min(max(y, 0.0), self.height_ft - 1e-9)
        if counter is not None and (cx != x or cy != y):
            counter.bump()
        return cx, cy


def _round_ties_to_zero(v: float) -> int:
    # 2.5 -> 2, -2.5 -> -2: nearest integer with half-way cases toward zero
    return int(np.sign(v) * np.ceil(abs(v) - 0.5))


def _round_ties_to_zero_arr(v: np.ndarray) -> np.ndarray:
    return (np.sign(v) * np.ceil(np.abs(v) - 0.5)).astype(np.int64)
