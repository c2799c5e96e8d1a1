"""Possession ingest, windowing into training sequences, and synthetic data.

The ingest format is JSONL: one possession per line,
``{"id": str, "tracks": [{"agent_id": str, "role": ..., "points": [[x, y], ...]}]}``
with coordinates in feet at an implied 25 Hz.  The synthetic generator
emits the identical format so both paths share one pipeline; its agent
walks are scalar IEEE float arithmetic, one Python float per coordinate.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .court import CourtSpec
from .errors import DataError
from .util import check_finite, read_lines, rng_for, write_lines

log = logging.getLogger(__name__)

ROLE_BALL = "ball"
ROLE_FOCAL = "focal"
ROLE_TEAMMATE = "teammate"
ROLE_OPPONENT = "opponent"
ROLES = (ROLE_BALL, ROLE_FOCAL, ROLE_TEAMMATE, ROLE_OPPONENT)
OFFENSE_ROLES = (ROLE_FOCAL, ROLE_TEAMMATE)

#: Occupancy channel of each agent in ``agent_positions`` order: ball,
#: focal player, four teammates, five opponents.
AGENT_CHANNELS = (0, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3)

#: Model input length in subsampled steps; a window spans
#: SEQUENCE_STEPS * subsample_stride raw frames (8 s at the defaults).
SEQUENCE_STEPS = 50

LENGTH_BAND = (50, 300)  # typical possession length in raw frames; warn outside


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class RawTrack:
    agent_id: str
    role: str
    points: np.ndarray  # (length_frames, 2), read-only

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise DataError(f"unknown role {self.role!r}")
        if self.points.ndim != 2 or self.points.shape[1] != 2 or self.points.shape[0] == 0:
            raise DataError(f"track {self.agent_id!r} must have a nonempty (n, 2) point array")
        if not np.isfinite(self.points).all():
            raise DataError(f"track {self.agent_id!r} contains non-finite coordinates")


@dataclass(frozen=True)
class Possession:
    id: str
    tracks: tuple[RawTrack, ...]

    @property
    def length_frames(self) -> int:
        return self.tracks[0].points.shape[0]

    def track_by_role(self, role: str) -> list[RawTrack]:
        return [t for t in self.tracks if t.role == role]

    @property
    def offense(self) -> list[RawTrack]:
        return sorted(
            (t for t in self.tracks if t.role in OFFENSE_ROLES), key=lambda t: t.agent_id
        )

    @property
    def defense(self) -> list[RawTrack]:
        return sorted((t for t in self.tracks if t.role == ROLE_OPPONENT), key=lambda t: t.agent_id)

    @property
    def ball(self) -> RawTrack:
        return self.track_by_role(ROLE_BALL)[0]


# the synthetic walk (see _walk, which reads them at call time): dwell
# length and speed ranges in raw frames, heading relaxation, position noise
DWELL_FRAMES_MIN = 40
DWELL_FRAMES_MAX = 90
CURVATURE = 0.15
SPEED_MIN_FT_PER_FRAME = 0.8
SPEED_MAX_FT_PER_FRAME = 1.3
NOISE_STD_FT = 0.04


@dataclass(frozen=True)
class SynthConfig:
    """Waypoint-process generator settings (stand-in for real tracking data)."""

    n_possessions: int = 220
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_possessions < 0:
            raise ValueError("n_possessions must be >= 0")

    def validate(self, spec: CourtSpec) -> None:
        max_ft = spec.velocity_radius_cells * spec.micro_cell_ft
        if SPEED_MAX_FT_PER_FRAME > max_ft:
            raise ValueError(
                f"walk speeds reach {SPEED_MAX_FT_PER_FRAME} ft/frame, beyond the velocity "
                f"grid radius ({max_ft} ft/frame); labels would always clip"
            )


@dataclass(frozen=True)
class DataConfig:
    windows_per_player: int = 2
    holdout_fraction: float = 1.0 / 11.0
    bounds_tolerance_ft: float = 3.0

    def __post_init__(self) -> None:
        check_finite(self)
        if self.windows_per_player < 1:
            raise ValueError("windows_per_player must be >= 1")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in (0, 1)")
        if self.bounds_tolerance_ft < 0:
            raise ValueError("bounds_tolerance_ft must be >= 0")


@dataclass(frozen=True)
class TrainingSequence:
    """One focal player's windowed view of a possession.

    Positions are stored per agent; ``agent_positions`` stacks them into
    the model input.  ``raw_frame_positions`` keeps the focal track at
    the raw 25 Hz rate for look-ahead velocity labels.
    """

    possession_id: str
    focal_agent: str
    t0: int
    raw_positions: np.ndarray        # (T, 2) focal, subsampled
    raw_frame_positions: np.ndarray  # (T * stride, 2) focal, raw rate
    ball_positions: np.ndarray       # (T, 2)
    teammate_positions: np.ndarray   # (T, 4, 2)
    opponent_positions: np.ndarray   # (T, 5, 2)

    @property
    def steps(self) -> int:
        return self.raw_positions.shape[0]


# ingest / save


def possession_to_json(p: Possession) -> str:
    obj = {
        "id": p.id,
        "tracks": [
            {
                "agent_id": t.agent_id,
                "role": t.role,
                "points": t.points.tolist(),
            }
            for t in p.tracks
        ],
    }
    return json.dumps(obj, separators=(",", ":"))


def save_possessions(possessions: list[Possession], path: str | Path) -> None:
    write_lines(path, map(possession_to_json, possessions))


def _validate_possession(p: Possession, spec: CourtSpec, tolerance_ft: float, where: str) -> None:
    ids = [t.agent_id for t in p.tracks]
    for i, agent_id in enumerate(ids):
        if agent_id in ids[:i]:
            raise DataError(f"{where}: duplicate agent id {agent_id!r}")
    n_ball = len(p.track_by_role(ROLE_BALL))
    if n_ball != 1:
        raise DataError(f"{where}: missing ball track" if n_ball == 0 else f"{where}: {n_ball} ball tracks")
    n_off = len(p.offense)
    n_def = len(p.defense)
    if n_off != 5 or n_def != 5:
        raise DataError(f"{where}: need 5 offensive and 5 opponent tracks, got {n_off}/{n_def}")
    lengths = {t.points.shape[0] for t in p.tracks}
    if len(lengths) != 1:
        raise DataError(f"{where}: tracks have unequal lengths {sorted(lengths)}")
    length = lengths.pop()
    if not LENGTH_BAND[0] <= length <= LENGTH_BAND[1]:
        log.warning("%s: possession length %d frames outside typical band %s", where, length, LENGTH_BAND)
    # every track at once; the first offending track in p.tracks order
    # raises, its bounds checked before its jumps
    points = np.stack([t.points for t in p.tracks])
    x, y = points[..., 0], points[..., 1]
    off = ((x < -tolerance_ft) | (x > spec.width_ft + tolerance_ft)
           | (y < -tolerance_ft) | (y > spec.height_ft + tolerance_ft)).any(axis=1)
    jumps = (np.linalg.norm(np.diff(points, axis=1), axis=2)
             >= math.hypot(spec.width_ft, spec.height_ft)).any(axis=1)
    bad = np.flatnonzero(off | jumps)
    if bad.size:
        t = p.tracks[bad[0]]
        if off[bad[0]]:
            raise DataError(f"{where}: track {t.agent_id!r} leaves the court by more than {tolerance_ft} ft")
        raise DataError(f"{where}: track {t.agent_id!r} jumps farther than the court diagonal")


def ingest(path: str | Path, spec: CourtSpec, bounds_tolerance_ft: float) -> list[Possession]:
    """Parse a JSONL possession file, failing fast on the first bad line
    with a DataError that names the file and the line.  A track may leave
    the court by ``bounds_tolerance_ft`` (the config's ``data`` value)."""
    possessions: list[Possession] = []
    ids: set[str] = set()  # windows, the split and label keys all go by id
    for lineno, line in read_lines(path):
        where = f"{path} line {lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{where}: invalid JSON ({exc.msg})") from exc
        try:
            pid = obj["id"]
            raw_tracks = obj["tracks"]
        except (TypeError, KeyError) as exc:
            raise DataError(f"{where}: missing 'id' or 'tracks'") from exc
        if not isinstance(raw_tracks, list):
            raise DataError(f"{where}: 'tracks' must be a list, got {type(raw_tracks).__name__}")
        tracks = []
        for tr in raw_tracks:
            try:
                points = _freeze(np.asarray(tr["points"], dtype=np.float64))
                tracks.append(RawTrack(str(tr["agent_id"]), str(tr["role"]), points))
            except (TypeError, KeyError, ValueError) as exc:
                raise DataError(f"{where}: bad track entry ({exc})") from exc
            except DataError as exc:
                raise DataError(f"{where}: {exc}") from exc
        p = Possession(str(pid), tuple(tracks))
        _validate_possession(p, spec, bounds_tolerance_ft, where)
        if p.id in ids:
            raise DataError(f"{where}: duplicate possession id {p.id!r}")
        ids.add(p.id)
        possessions.append(p)
    return possessions


# windowing


def window(
    possession: Possession,
    spec: CourtSpec,
    rng: np.random.Generator,
    windows_per_player: int,
) -> list[TrainingSequence]:
    """Cut ``windows_per_player`` (the config's ``data`` value) random
    windows of ``SEQUENCE_STEPS`` steps per offensive player.

    Possessions shorter than a full window yield nothing.  Draws are made
    player-by-player in agent-id order so the result is reproducible for
    a given generator state.
    """
    raw_len = SEQUENCE_STEPS * spec.subsample_stride
    length = possession.length_frames
    if length < raw_len:
        return []
    offense = possession.offense
    ball = possession.ball
    defense = possession.defense
    sequences = []
    for focal in offense:
        teammates = [t for t in offense if t.agent_id != focal.agent_id]
        for _ in range(windows_per_player):
            t0 = int(rng.integers(0, length - raw_len + 1))
            sub = t0 + spec.subsample_stride * np.arange(SEQUENCE_STEPS)
            sequences.append(
                TrainingSequence(
                    possession_id=possession.id,
                    focal_agent=focal.agent_id,
                    t0=t0,
                    raw_positions=_freeze(focal.points[sub]),
                    raw_frame_positions=_freeze(focal.points[t0:t0 + raw_len]),
                    ball_positions=_freeze(ball.points[sub]),
                    teammate_positions=_freeze(np.stack([t.points[sub] for t in teammates], axis=1)),
                    opponent_positions=_freeze(np.stack([t.points[sub] for t in defense], axis=1)),
                )
            )
    return sequences


def agent_positions(seq: TrainingSequence) -> np.ndarray:
    """Per-step positions of all eleven agents, shape (T, 11, 2), in the
    model's input order: ball, focal player, four teammates, five
    opponents (see ``AGENT_CHANNELS``)."""
    return np.concatenate(
        [
            seq.ball_positions[:, None],
            seq.raw_positions[:, None],
            seq.teammate_positions,
            seq.opponent_positions,
        ],
        axis=1,
    )


def split(sequences: list, holdout_fraction: float, seed: int):
    """Partition sequences into (train, holdout) keyed on possession id."""
    ids = sorted({s.possession_id for s in sequences})
    n_holdout = round(len(ids) * holdout_fraction)
    if n_holdout < 1 or n_holdout >= len(ids):
        raise DataError(
            f"degenerate split: {n_holdout} of {len(ids)} possessions would be held out"
        )
    perm = rng_for(seed, "split").permutation(len(ids))
    holdout_ids = {ids[i] for i in perm[:n_holdout]}
    train = [s for s in sequences if s.possession_id not in holdout_ids]
    holdout = [s for s in sequences if s.possession_id in holdout_ids]
    return train, holdout


# synthetic generation


def _walk(
    rng: np.random.Generator, spec: CourtSpec, length: int
) -> tuple[np.ndarray, list[tuple[int, int, int, bool]]]:
    """One agent's waypoint walk; returns positions and its goal log.

    Each log entry is (dwell_start, dwell_end, box, reached): the frames
    dwell_start..dwell_end (inclusive) are spent in box.  A possession
    that ends mid-move logs that move's goal as (length, length - 1, box,
    False), a dwell of no frames, so every frame has a logged goal: the
    first entry whose dwell_end is not before it.

    Positions are Python floats, one frame at a time, with math.atan2,
    cos, sin and sqrt (see synthesize); only the noise is an array draw.
    """
    margin = min(2.0, spec.width_ft / 10, spec.height_ft / 10)
    x_max, y_max = spec.far_edge
    box_ft = spec.macro_box_ft
    x = rng.uniform(margin, spec.width_ft - margin)
    y = rng.uniform(margin, spec.height_ft - margin)
    heading = rng.uniform(-math.pi, math.pi)
    # relaxation of heading toward the goal bearing; curvature -> inf turns instantly
    alpha = 1.0 - math.exp(-CURVATURE)
    pi, tau = math.pi, 2.0 * math.pi
    traj = np.empty((length, 2))
    dwells: list[tuple[int, int, int, bool]] = []
    t = 0
    while t < length:
        while True:
            box = int(rng.integers(spec.n_macro_boxes))
            # aim anywhere inside the box, not its center: a single frame
            # must not reveal whether the agent is dwelling there
            jx, jy = rng.uniform(-0.5, 0.5, 2).tolist()
            tx = ((box % spec.macro_cols) + 0.5) * box_ft + jx * (box_ft - 1.0)
            ty = ((box // spec.macro_cols) + 0.5) * box_ft + jy * (box_ft - 1.0)
            if math.sqrt((tx - x) * (tx - x) + (ty - y) * (ty - y)) > box_ft:
                break
        speed = rng.uniform(SPEED_MIN_FT_PER_FRAME, SPEED_MAX_FT_PER_FRAME)
        move = []
        dx, dy = tx - x, ty - y
        while t + len(move) < length and math.sqrt(dx * dx + dy * dy) > speed:
            bearing = math.atan2(dy, dx)
            # angles wrap into [-pi, pi) as (a + pi) % tau - pi, inline for speed
            turn = (bearing - heading + pi) % tau - pi
            heading = (heading + alpha * turn + pi) % tau - pi
            x = min(max(x + speed * math.cos(heading), 0.0), x_max)
            y = min(max(y + speed * math.sin(heading), 0.0), y_max)
            move.append((x, y))
            dx, dy = tx - x, ty - y
        if move:
            traj[t:t + len(move)] = move
            t += len(move)
        if t >= length:
            dwells.append((length, length - 1, box, False))
            break
        x, y = tx, ty
        heading = rng.uniform(-math.pi, math.pi)
        dwell = int(rng.integers(DWELL_FRAMES_MIN, DWELL_FRAMES_MAX + 1))
        start, t = t, min(t + dwell, length)
        traj[start:t] = (x, y)
        dwells.append((start, t - 1, box, True))
    traj = traj + rng.normal(0.0, NOISE_STD_FT, traj.shape)
    np.clip(traj[:, 0], 0.0, x_max, out=traj[:, 0])
    np.clip(traj[:, 1], 0.0, y_max, out=traj[:, 1])
    return traj, dwells


GoalLog = dict[tuple[str, str], list[tuple[int, int, int, bool]]]


def synthesize_with_goals(cfg: SynthConfig, spec: CourtSpec) -> tuple[list[Possession], GoalLog]:
    """Like synthesize() but also returns each agent's ground-truth goal
    log, keyed by (possession id, agent id); see ``_walk`` for its entries.
    The log is not written anywhere, so it leaves the possessions' bytes
    alone."""
    cfg.validate(spec)
    possessions = []
    goals: GoalLog = {}
    ball_lag = 3
    x_max, y_max = spec.far_edge
    for i in range(cfg.n_possessions):
        pid = f"synth-{i:05d}"
        rng = rng_for(cfg.seed, "possession", i)
        raw_len = SEQUENCE_STEPS * spec.subsample_stride
        length = int(rng.integers(raw_len, max(raw_len + 1, LENGTH_BAND[1] + 1)))
        tracks = []
        offense_traj = []
        followed = int(rng.integers(5))
        for j in range(5):
            traj, dwells = _walk(rng, spec, length)
            offense_traj.append(traj)
            role = ROLE_FOCAL if j == followed else ROLE_TEAMMATE
            tracks.append(RawTrack(f"off{j}", role, _freeze(traj)))
            goals[(pid, f"off{j}")] = dwells
        for j in range(5):
            traj, dwells = _walk(rng, spec, length)
            tracks.append(RawTrack(f"def{j}", ROLE_OPPONENT, _freeze(traj)))
            goals[(pid, f"def{j}")] = dwells
        carrier = offense_traj[followed]
        idx = np.maximum(np.arange(length) - ball_lag, 0)
        ball = carrier[idx] + np.array([0.8, 0.0])
        np.clip(ball[:, 0], 0.0, x_max, out=ball[:, 0])
        np.clip(ball[:, 1], 0.0, y_max, out=ball[:, 1])
        tracks.insert(0, RawTrack("ball", ROLE_BALL, _freeze(ball)))
        possessions.append(Possession(pid, tuple(tracks)))
    return possessions, goals


def synthesize(cfg: SynthConfig, spec: CourtSpec) -> list[Possession]:
    """Generate waypoint-process possessions; deterministic in cfg.seed.

    The agents' walks are scalar IEEE float arithmetic, so the bytes of a
    given seed do not depend on the BLAS build, only on the platform's
    libm (atan2, cos, sin, exp).
    """
    possessions, _ = synthesize_with_goals(cfg, spec)
    return possessions
