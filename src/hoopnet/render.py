"""Deterministic SVG rendering of rollouts for visual inspection.

One SVG per rollout: court outline, goal-box grid shaded by how often
each box was predicted, the focal player's burn-in and extrapolated
trails, and the other agents' ground-truth tracks.  Output is assembled
from fixed-precision strings, so identical inputs give identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .court import CourtSpec
from .data import TrainingSequence
from .errors import DataError
from .rollout import RolloutResult
from .util import atomic_open


# SVG colours
BACKGROUND = "#ffffff"
COURT = "#444444"
GRID = "#dddddd"
BALL = "#e08020"
TEAMMATE = "#9ccc9c"
OPPONENT = "#d06060"
BURN_IN = "#1a7a2a"
EXTRAPOLATED = "#2060c0"
MACRO_BOX = "#2060c0"
BOX_MAX_OPACITY = 0.55  # fill opacity of the most often predicted goal box


@dataclass(frozen=True)
class RenderSpec:
    scale_px_per_ft: float = 12.0

    def __post_init__(self) -> None:
        if self.scale_px_per_ft <= 0:
            raise ValueError("scale_px_per_ft must be positive")


def _f(v: float) -> str:
    return f"{v:.2f}"


class _Canvas:
    def __init__(self, spec: CourtSpec, rspec: RenderSpec):
        self.spec = spec
        self.scale = rspec.scale_px_per_ft
        self.height_px = spec.height_ft * self.scale

    def pt(self, x: float, y: float) -> tuple[str, str]:
        # court y grows upward, SVG y grows downward
        return _f(x * self.scale), _f(self.height_px - y * self.scale)


def _polyline(canvas: _Canvas, xy: np.ndarray, color: str, width: float, opacity: float = 1.0) -> str:
    pts = " ".join(",".join(canvas.pt(x, y)) for x, y in xy)
    return (
        f'<polyline points="{pts}" fill="none" stroke="{color}" '
        f'stroke-width="{_f(width)}" stroke-opacity="{_f(opacity)}" '
        f'stroke-linecap="round" stroke-linejoin="round"/>'
    )


def _circle(canvas: _Canvas, x: float, y: float, r_px: float, color: str) -> str:
    cx, cy = canvas.pt(x, y)
    return f'<circle cx="{cx}" cy="{cy}" r="{_f(r_px)}" fill="{color}"/>'


def render_rollout_svg(
    result: RolloutResult,
    seq: TrainingSequence,
    spec: CourtSpec,
    rspec: RenderSpec,
) -> str:
    canvas = _Canvas(spec, rspec)
    w_px = spec.width_ft * rspec.scale_px_per_ft
    h_px = spec.height_ft * rspec.scale_px_per_ft
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(w_px)}" height="{_f(h_px)}" '
        f'viewBox="0 0 {_f(w_px)} {_f(h_px)}">',
        f'<rect x="0" y="0" width="{_f(w_px)}" height="{_f(h_px)}" fill="{BACKGROUND}"/>',
    ]
    # goal-box grid
    box_px = spec.macro_box_ft * rspec.scale_px_per_ft
    for row in range(spec.macro_rows):
        for col in range(spec.macro_cols):
            x0 = col * box_px
            y0 = h_px - (row + 1) * box_px
            parts.append(
                f'<rect x="{_f(x0)}" y="{_f(y0)}" width="{_f(box_px)}" height="{_f(box_px)}" '
                f'fill="none" stroke="{GRID}" stroke-width="0.5"/>'
            )
    # predicted goal boxes shaded by relative prediction frequency
    goals = result.macro_goals[result.macro_goals >= 0]
    if goals.size:
        counts = np.bincount(goals, minlength=spec.n_macro_boxes)
        peak = counts.max()
        for box_id in np.flatnonzero(counts):
            col = box_id % spec.macro_cols
            row = box_id // spec.macro_cols
            opacity = BOX_MAX_OPACITY * counts[box_id] / peak
            x0 = col * box_px
            y0 = h_px - (row + 1) * box_px
            parts.append(
                f'<rect x="{_f(x0)}" y="{_f(y0)}" width="{_f(box_px)}" height="{_f(box_px)}" '
                f'fill="{MACRO_BOX}" fill-opacity="{_f(opacity)}"/>'
            )
    # other agents
    n_gt = min(len(result.path), seq.steps)
    parts.append(_polyline(canvas, seq.ball_positions[:n_gt], BALL, 1.5, 0.8))
    for j in range(seq.teammate_positions.shape[1]):
        parts.append(_polyline(canvas, seq.teammate_positions[:n_gt, j], TEAMMATE, 1.5, 0.8))
    for j in range(seq.opponent_positions.shape[1]):
        parts.append(_polyline(canvas, seq.opponent_positions[:n_gt, j], OPPONENT, 1.5, 0.8))
    parts.append(_circle(canvas, *seq.ball_positions[n_gt - 1], 4.0, BALL))
    for j in range(seq.teammate_positions.shape[1]):
        parts.append(_circle(canvas, *seq.teammate_positions[n_gt - 1, j], 5.0, TEAMMATE))
    for j in range(seq.opponent_positions.shape[1]):
        parts.append(_circle(canvas, *seq.opponent_positions[n_gt - 1, j], 5.0, OPPONENT))
    # focal trails: burn-in then extrapolation (joined at the seam)
    burn = result.path[: result.burn_in]
    parts.append(_polyline(canvas, burn, BURN_IN, 2.5))
    parts.append(_circle(canvas, *burn[-1], 5.0, BURN_IN))
    if result.horizon > 0:
        extrapolated = result.path[result.burn_in - 1:]
        parts.append(_polyline(canvas, extrapolated, EXTRAPOLATED, 2.5))
        parts.append(_circle(canvas, *result.path[-1], 5.0, EXTRAPOLATED))
    # court outline on top
    parts.append(
        f'<rect x="0" y="0" width="{_f(w_px)}" height="{_f(h_px)}" fill="none" '
        f'stroke="{COURT}" stroke-width="2"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_rollouts(
    results: list[RolloutResult],
    sequences: list[TrainingSequence],
    spec: CourtSpec,
    rspec: RenderSpec,
    out_dir: str | Path,
    prefix: str = "rollout",
) -> list[Path]:
    """Write one SVG per rollout; returns the paths in input order."""
    if not results:
        raise DataError("no rollouts to render")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, (result, seq) in enumerate(zip(results, sequences)):
        path = out / f"{prefix}_{i:04d}.svg"
        with atomic_open(path) as fh:
            fh.write(render_rollout_svg(result, seq, spec, rspec))
        paths.append(path)
    return paths
