"""Weak supervision extracted from focal tracks.

Three streams per training sequence: per-step look-ahead velocity actions,
goal boxes from stationary-point segmentation, and straight-line velocity
targets pointing at the current goal box.  Everything here is pure given
the derived per-sequence RNG, so label extraction parallelizes freely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .court import CourtSpec
from .data import TrainingSequence, agent_positions
from .util import rng_for, write_lines

# a raw-frame step shorter than this (ft) is stationary
STATIONARY_SPEED_FT_PER_RAW_FRAME = 0.25
# attention labels draw step sizes uniformly from this range (velocity cells)
MAGNITUDE_MIN = 1
MAGNITUDE_MAX = 7


@dataclass(frozen=True)
class SegmentationConfig:
    min_segment_steps: int = 15
    seed: int = 0

    def __post_init__(self) -> None:
        if self.min_segment_steps < 1:
            raise ValueError("min_segment_steps must be >= 1")

    def validate(self, spec: CourtSpec) -> None:
        if MAGNITUDE_MAX > spec.velocity_radius_cells:
            raise ValueError(
                f"attention step sizes reach {MAGNITUDE_MAX} velocity cells, beyond "
                f"court.velocity_radius_cells ({spec.velocity_radius_cells})"
            )


@dataclass(frozen=True)
class WeakLabels:
    """Aligned label streams for one training sequence (all length T).

    ``macro_target_xy`` keeps the stationary-point position behind each
    macro label and ``attention_magnitudes`` the drawn step sizes, so the
    streams can be recomputed consistently after input translation.
    """

    micro: np.ndarray                 # (T, lookahead) flattened action indices
    micro_padded: np.ndarray          # (T, lookahead) bool, True where end-padded
    macro: np.ndarray                 # (T,) macro box ids
    macro_target_xy: np.ndarray       # (T, 2) stationary-point position per step
    attention: np.ndarray             # (T,) flattened action indices
    attention_magnitudes: np.ndarray  # (T,) drawn magnitudes in velocity cells


@dataclass(frozen=True)
class LabeledSequence:
    sequence: TrainingSequence
    labels: WeakLabels

    @property
    def possession_id(self) -> str:
        return self.sequence.possession_id


def assemble(batch: list[LabeledSequence], spec: CourtSpec | None = None) -> dict:
    """The one batch layout of training and evaluation: model inputs, (N, T,
    11, 2) agent positions, under ``inputs`` and every ``WeakLabels`` field
    under its own name, stacked as new arrays.  Positions are independent
    of ``spec``."""
    arrays = {"inputs": np.stack([agent_positions(it.sequence) for it in batch])}
    for f in fields(WeakLabels):
        arrays[f.name] = np.stack([getattr(it.labels, f.name) for it in batch])
    return arrays


def micro_labels(
    raw_frame_positions: np.ndarray, spec: CourtSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Look-ahead velocity labels per subsampled step.

    Step k labels the displacements at raw frames stride*k .. stride*k+L-1;
    frames past the window repeat the last available displacement and are
    marked in the padded mask.
    """
    pts = np.asarray(raw_frame_positions, dtype=np.float64)
    n_raw = pts.shape[0]
    t_steps = n_raw // spec.subsample_stride
    disp = np.diff(pts, axis=0)  # displacement r is pts[r+1] - pts[r]
    frame = spec.subsample_stride * np.arange(t_steps)[:, None] + np.arange(spec.lookahead_steps)[None, :]
    padded = frame > n_raw - 2
    clipped = np.minimum(frame, n_raw - 2)
    labels = spec.actions_from_displacements(disp[clipped, 0], disp[clipped, 1])
    return labels, padded


def find_stationary(raw_frame_positions: np.ndarray) -> np.ndarray:
    """Frames of near-zero speed: one midpoint per maximal slow run, plus the final frame."""
    pts = np.asarray(raw_frame_positions, dtype=np.float64)
    speeds = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    slow = speeds < STATIONARY_SPEED_FT_PER_RAW_FRAME
    # slow runs over speed indices [start, stop); a one-frame track has no speeds
    points = [(start + stop - 1) // 2 for start, stop in zip(*_runs(slow))
              if stop > start and slow[start]]
    final = pts.shape[0] - 1
    if not points or points[-1] != final:
        points.append(final)
    return np.asarray(points, dtype=np.int64)


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and (exclusive) stops of the maximal runs of equal values."""
    change = np.flatnonzero(values[1:] != values[:-1]) + 1
    return np.r_[0, change], np.r_[change, len(values)]


def macro_labels(
    raw_frame_positions: np.ndarray,
    stationary_frames: np.ndarray,
    spec: CourtSpec,
    cfg: SegmentationConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Goal box per subsampled step: the next stationary point's box.

    "Next" is strict on the raw frame index, so a mid-track dwell starts
    pointing at the following goal once its midpoint passes.  Runs shorter
    than min_segment_steps merge into the following segment; a too-short
    final run is absorbed into the previous one.
    """
    pts = np.asarray(raw_frame_positions, dtype=np.float64)
    sps = np.sort(np.asarray(stationary_frames, dtype=np.int64))
    t_steps = pts.shape[0] // spec.subsample_stride
    frames = spec.subsample_stride * np.arange(t_steps)
    nxt = np.minimum(np.searchsorted(sps, frames, side="right"), len(sps) - 1)
    target_xy = pts[sps[nxt]]
    ids = spec.boxes_from_positions(target_xy)
    ids, target_xy = _merge_short_segments(ids, target_xy, cfg.min_segment_steps)
    return ids, target_xy


def _merge_short_segments(
    ids: np.ndarray, target_xy: np.ndarray, min_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """``macro_labels``' merge in one left-to-right pass: a short run takes
    the next run's first id and target, joining it (and the run before on
    equal ids), and what it forms merges on while still short."""
    ids = ids.copy()
    target_xy = target_xy.copy()
    short = last = None  # first step of the pending short steps, of the last long run
    for start, stop in zip(*_runs(ids)):
        if short is not None:
            ids[short:start] = ids[start]
            target_xy[short:start] = target_xy[start]
            if last is not None and ids[last] == ids[start]:
                short = None  # this run joins the last long run
                continue
            start = short
        if stop - start < min_steps:
            short = start
        else:
            last, short = start, None
    if short is not None and last is not None:
        ids[short:] = ids[last]
        target_xy[short:] = target_xy[last]
    return ids, target_xy


def attention_targets(
    raw_positions: np.ndarray,
    macro_ids: np.ndarray,
    magnitudes: np.ndarray,
    spec: CourtSpec,
) -> np.ndarray:
    """Straight-line action labels given already-drawn magnitudes, for
    (..., 2) positions and matching (...) goal ids and magnitudes.

    Direction is the unit vector from the instantaneous position to the
    current goal box center; steps already inside the goal box label the
    stationary action.
    """
    pos = np.asarray(raw_positions, dtype=np.float64)
    centers = spec.macro_box_centers(np.asarray(macro_ids, dtype=np.int64))
    delta = centers - pos
    inside = spec.boxes_from_positions(pos) == macro_ids
    norm = np.linalg.norm(delta, axis=-1)
    safe = np.where(norm > 0, norm, 1.0)
    unit = delta / safe[..., None]
    v = magnitudes[..., None] * unit * spec.micro_cell_ft  # magnitudes are in cells
    labels = spec.actions_from_displacements(v[..., 0], v[..., 1])
    labels[inside | (norm == 0)] = spec.stationary_action_index
    return labels


def attention_labels(
    raw_positions: np.ndarray,
    macro_ids: np.ndarray,
    spec: CourtSpec,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw per-step magnitudes and build straight-line labels."""
    t_steps = np.asarray(raw_positions).shape[0]
    magnitudes = rng.integers(MAGNITUDE_MIN, MAGNITUDE_MAX + 1, size=t_steps)
    return attention_targets(raw_positions, macro_ids, magnitudes, spec), magnitudes


def label_sequence(seq: TrainingSequence, spec: CourtSpec, cfg: SegmentationConfig) -> WeakLabels:
    """All three weak-label streams for one sequence; RNG derives from
    (config seed, possession id, focal agent, window start)."""
    micro, padded = micro_labels(seq.raw_frame_positions, spec)
    sps = find_stationary(seq.raw_frame_positions)
    macro, target_xy = macro_labels(seq.raw_frame_positions, sps, spec, cfg)
    rng = rng_for(cfg.seed, "labels", seq.possession_id, seq.focal_agent, seq.t0)
    attention, magnitudes = attention_labels(seq.raw_positions, macro, spec, rng)
    for a in (micro, padded, macro, target_xy, attention, magnitudes):
        a.flags.writeable = False
    return WeakLabels(micro, padded, macro, target_xy, attention, magnitudes)


def labels_to_json(seq: TrainingSequence, lab: WeakLabels) -> str:
    """The sequence key, then each label stream in declaration order, the
    bool mask as 0/1."""
    obj = {"possession_id": seq.possession_id, "focal_agent": seq.focal_agent, "t0": seq.t0}
    for f in fields(lab):
        stream = getattr(lab, f.name)
        obj[f.name] = (stream.astype(int) if stream.dtype == bool else stream).tolist()
    return json.dumps(obj, separators=(",", ":"))


def export_labels(
    sequences: list[TrainingSequence], labels: list[WeakLabels], path: str | Path
) -> None:
    """Write the sidecar JSONL keyed by (possession_id, focal_agent, t0)."""
    write_lines(path, map(labels_to_json, sequences, labels))
