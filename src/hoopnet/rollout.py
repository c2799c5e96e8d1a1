"""On-policy trajectory extrapolation with a ground-truth burn-in.

The first burn_in steps replay ground truth while the recurrent memory
warms up; afterwards the focal player's position is advanced by the
model's own look-ahead actions (applied as consecutive raw-frame
displacements), while every other agent keeps its recorded track and
freezes once that runs out.

``batch_rollout`` steps N sequences together as one recurrence.  The
burn-in replays ground truth, so it is one teacher-forced
``HPNModel.logits`` call on the (N, burn_in, 11, 2) prefix; each horizon
step depends on the choices before it and is one call on an
(N, 1, 11, 2) batch.  The calls run inside one ``engine.no_grad()``
scope, so the constants derived from the weights are built once per
rollout, not once per call; the results are bit-identical to the same
calls each in a scope of its own.  ``choose_step`` takes the choices of every step
of a call for all N over arrays, on the logits: no probability array is
built in argmax mode.  Each sequence draws from its own RNG, so a
rollout does not depend on the other sequences in its batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .court import CourtSpec
from .data import SEQUENCE_STEPS, TrainingSequence, agent_positions
from .errors import ConfigError, DataError
from .engine import no_grad
from .engine.tensor import softmax_array
from .model import HPNModel, combined_scores
from .util import read_lines, rng_for, write_lines


@dataclass(frozen=True)
class RolloutConfig:
    burn_in_steps: int = 20
    horizon_steps: int = 30
    mode: str = "argmax"  # argmax | sample
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.burn_in_steps <= SEQUENCE_STEPS:
            raise ValueError(f"burn_in_steps must be in [1, {SEQUENCE_STEPS}], the burn-in of one sequence")
        if self.horizon_steps < 0:
            raise ValueError("horizon_steps must be >= 0")
        if self.mode not in ("argmax", "sample"):
            raise ValueError(f"unknown rollout mode {self.mode!r}")


@dataclass(frozen=True)
class RolloutResult:
    possession_id: str
    focal_agent: str
    t0: int
    burn_in: int
    horizon: int
    mode: str
    path: np.ndarray             # (burn_in + horizon, 2)
    macro_goals: np.ndarray      # (burn_in + horizon,), -1 when no macro head
    actions: np.ndarray          # (burn_in + horizon, lookahead) flattened indices
    attention_argmax: np.ndarray # (burn_in + horizon,), -1 when no attention
    clamp_events: int

    @property
    def macro_switches(self) -> int:
        """Number of changes in the predicted goal box along the rollout."""
        g = self.macro_goals
        if g.size < 2 or (g < 0).all():
            return 0
        return int(np.count_nonzero(np.diff(g)))


def choose_step(
    logits: dict, mode: str, rngs: list[np.random.Generator] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rollout's choices at T steps for N sequences.

    ``logits`` holds ``HPNModel.logits`` output: ``raw`` and ``cc``
    (N, T, lookahead, n_actions), ``macro`` (N, T, n_boxes) and
    ``attention`` (N, T, n_actions), each None when the variant lacks it.
    Each look-ahead head chooses on ``model.combined_scores``: argmax mode
    takes its argmax, the lowest index on ties; sample mode draws from its
    float64 softmax, sequence i's heads step by step and in order from
    ``rngs[i]``.  Logits always give a distribution with mass, however
    extreme they are.

    Returns (N, T, lookahead) flattened action indices and the (N, T)
    argmax of the ``macro`` and of the ``attention`` logits (-1 without
    that head).
    """
    scores = combined_scores(logits)
    if mode == "argmax":
        actions = scores.argmax(axis=-1)
    elif mode == "sample":
        if rngs is None or len(rngs) != len(scores):
            raise ValueError("sample mode needs one RNG per sequence")
        # Generator.choice(len(p), p=p) head by head, over arrays: the same
        # cumulative sums and the same uniform draws
        draws = np.stack([rng.random(scores.shape[1:3]) for rng in rngs])
        cdf = softmax_array(scores.astype(np.float64, copy=False)).cumsum(axis=-1)
        cdf /= cdf[..., -1:]
        actions = (cdf <= draws[..., None]).sum(axis=-1)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    macro, attention = (
        np.full(scores.shape[:2], -1, dtype=np.int64) if logits[key] is None
        else logits[key].argmax(axis=-1)
        for key in ("macro", "attention")
    )
    return actions, macro, attention


def batch_rollout(
    model: HPNModel,
    sequences: list[TrainingSequence],
    config: RolloutConfig,
    spec: CourtSpec,
    threads: int = 1,
) -> list[RolloutResult]:
    """Roll out every sequence at once, the burn-in as one batched model
    call and each horizon step as one more; results are in input order
    and each equals that sequence rolled out alone.  ``threads`` is
    ignored (kept for callers that pass it)."""
    if not sequences:
        raise ConfigError("batch_rollout needs at least one sequence")
    burn_in = config.burn_in_steps
    for seq in sequences:
        if burn_in > seq.steps:
            raise ConfigError(f"burn-in {burn_in} exceeds the {seq.steps} ground-truth steps")
    n, total = len(sequences), burn_in + config.horizon_steps
    rngs = [rng_for(config.seed, "rollout", s.possession_id, s.focal_agent, s.t0) for s in sequences]
    # (N, total, 11, 2) recorded positions, frozen past the end of each
    # track; the focal player is agent 1, whose column (``path``, a view)
    # the rollout overwrites
    agents = np.stack(
        [agent_positions(s)[np.minimum(np.arange(total), s.steps - 1)] for s in sequences]
    )
    path = agents[:, :, 1]
    macro_goals = np.empty((n, total), dtype=np.int64)
    actions = np.empty((n, total, spec.lookahead_steps), dtype=np.int64)
    att_argmax = np.empty((n, total), dtype=np.int64)
    clamps = np.zeros(n, dtype=np.int64)
    upper = np.array(spec.far_edge)
    memory = model.reset_memory(n)
    # one teacher-forced call over the whole burn-in, then one call per
    # horizon step, whose input depends on the step before; the weights
    # hold still throughout, so their derived constants are built once
    with no_grad():
        for t, stop in zip([0, *range(burn_in, total)], range(burn_in, total + 1)):
            if t >= burn_in:
                # the last step's look-ahead actions are consecutive
                # displacements of the focal player
                target = path[:, t - 1] + spec.displacements_from_actions(actions[:, t - 1]).sum(axis=1)
                path[:, t] = np.minimum(np.maximum(target, 0.0), upper)
                clamps += (path[:, t] != target).any(axis=1)
            steps = slice(t, stop)
            logits, memory = model.logits(agents[:, steps], memory)
            actions[:, steps], macro_goals[:, steps], att_argmax[:, steps] = choose_step(
                logits, config.mode, rngs
            )
    return [
        RolloutResult(
            possession_id=s.possession_id,
            focal_agent=s.focal_agent,
            t0=s.t0,
            burn_in=burn_in,
            horizon=config.horizon_steps,
            mode=config.mode,
            path=path[i],
            macro_goals=macro_goals[i],
            actions=actions[i],
            attention_argmax=att_argmax[i],
            clamp_events=int(clamps[i]),
        )
        for i, s in enumerate(sequences)
    ]


# the rollout line layout, in order: each field's JSON scalar type, or
# its array's dtype and rank; ``macro_switches`` follows, derived
_ROLLOUT_FIELDS = {
    "possession_id": str, "focal_agent": str, "t0": int, "burn_in": int, "horizon": int,
    "mode": str, "path": (np.float64, 2), "macro_goals": (np.int64, 1),
    "actions": (np.int64, 2), "attention_argmax": (np.int64, 1), "clamp_events": int,
}


def rollout_to_json(r: RolloutResult) -> str:
    """The ``_ROLLOUT_FIELDS`` in order, then ``macro_switches``."""
    obj = {name: getattr(r, name) if isinstance(kind, type) else getattr(r, name).tolist()
           for name, kind in _ROLLOUT_FIELDS.items()}
    obj["macro_switches"] = r.macro_switches
    return json.dumps(obj, separators=(",", ":"))


def save_rollouts(results: list[RolloutResult], path: str | Path) -> None:
    write_lines(path, map(rollout_to_json, results))


def _field(obj: dict, name: str, kind):
    """``obj[name]`` as ``kind``, or a ValueError saying what is wrong."""
    if name not in obj:
        raise ValueError(f"missing field {name!r}")
    if isinstance(kind, type):
        if type(obj[name]) is not kind:
            raise ValueError(f"field {name!r} must be {kind.__name__}")
        return obj[name]
    dtype, rank = kind
    array = np.asarray(obj[name])  # a ragged list raises ValueError
    if array.ndim != rank or not np.can_cast(array.dtype, dtype, "same_kind"):
        raise ValueError(f"field {name!r} must be a rank-{rank} {np.dtype(dtype).name} array")
    return array.astype(dtype)


def load_rollouts(path: str | Path) -> list[RolloutResult]:
    """Read ``save_rollouts`` output.  Keys the result does not hold are
    ignored, so older files with a ``zero_mass_fallbacks`` count load.  A
    line that is not a JSON object, that lacks a field or holds one of the
    wrong type, or whose burn-in is under 1 step, horizon negative,
    per-step fields not burn_in + horizon long or path not (x, y) pairs,
    raises DataError naming the file and the line."""
    results = []
    for lineno, line in read_lines(path):
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("not a JSON object")
            values = {name: _field(obj, name, kind) for name, kind in _ROLLOUT_FIELDS.items()}
            for name, low in (("burn_in", 1), ("horizon", 0)):
                if values[name] < low:
                    raise ValueError(f"field {name!r} must be >= {low}")
            steps = values["burn_in"] + values["horizon"]
            for name in ("path", "macro_goals", "actions", "attention_argmax"):
                if len(values[name]) != steps:
                    raise ValueError(f"field {name!r} must have burn_in + horizon = {steps} entries")
            if values["path"].shape[1] != 2:
                raise ValueError("field 'path' must hold (x, y) pairs")
        except ValueError as exc:  # json.JSONDecodeError is one
            raise DataError(f"{path} line {lineno}: {exc}") from exc
        results.append(RolloutResult(**values))
    return results
