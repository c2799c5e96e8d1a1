"""On-policy trajectory extrapolation with a ground-truth burn-in.

The first burn_in steps replay ground truth while the recurrent memory
warms up; afterwards the focal player's position is advanced by the
model's own look-ahead actions (applied as consecutive raw-frame
displacements), while every other agent keeps its recorded track and
freezes once that runs out.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .court import ClampCounter, CourtSpec
from .data import TrainingSequence, agent_positions
from .errors import ConfigError
from .model import HPNModel, forward_step, predict_action, predict_macro
from .util import atomic_open, rng_for


@dataclass(frozen=True)
class RolloutConfig:
    burn_in_steps: int = 20
    horizon_steps: int = 30
    mode: str = "argmax"  # argmax | sample
    seed: int = 0

    def validate(self) -> None:
        if self.burn_in_steps < 1:
            raise ConfigError("burn_in_steps must be >= 1")
        if self.horizon_steps < 0:
            raise ConfigError("horizon_steps must be >= 0")
        if self.mode not in ("argmax", "sample"):
            raise ConfigError(f"unknown rollout mode {self.mode!r}")


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
    zero_mass_fallbacks: int

    @property
    def macro_switches(self) -> int:
        """Number of changes in the predicted goal box along the rollout."""
        g = self.macro_goals
        if g.size < 2 or (g < 0).all():
            return 0
        return int(np.count_nonzero(np.diff(g)))


def rollout(
    model: HPNModel,
    seq: TrainingSequence,
    config: RolloutConfig,
    spec: CourtSpec,
) -> RolloutResult:
    config.validate()
    if config.burn_in_steps > seq.steps:
        raise ConfigError(
            f"burn-in {config.burn_in_steps} exceeds the {seq.steps} ground-truth steps"
        )
    total = config.burn_in_steps + config.horizon_steps
    lookahead = spec.lookahead_steps
    rng = rng_for(config.seed, "rollout", seq.possession_id, seq.focal_agent, seq.t0)
    clamps = ClampCounter()
    fallbacks = ClampCounter()

    path = np.empty((total, 2))
    macro_goals = np.full(total, -1, dtype=np.int64)
    actions = np.zeros((total, lookahead), dtype=np.int64)
    att_argmax = np.full(total, -1, dtype=np.int64)

    agents = agent_positions(seq)
    memory = model.reset_memory(1)
    pending = np.zeros(2)
    cur = np.zeros(2)
    for t in range(total):
        if t < config.burn_in_steps:
            cur = seq.raw_positions[t].copy()
        else:
            cur = np.array(spec.clamp_position(cur[0] + pending[0], cur[1] + pending[1], clamps))
        path[t] = cur
        # non-focal agents freeze past the end of their track; the focal
        # player is agent 1 in agent_positions order
        x = agents[min(t, seq.steps - 1)].copy()
        x[1] = cur
        out, memory = forward_step(model, x, memory)
        pending[:] = 0.0
        for k in range(lookahead):
            act = predict_action(spec, out, k, config.mode, rng, fallbacks)
            actions[t, k] = spec.action_index(act)
            dx, dy = spec.action_to_displacement(act)
            pending[0] += dx
            pending[1] += dy
        if out.p_macro is not None:
            macro_goals[t] = predict_macro(out).id
        if out.attention is not None:
            att_argmax[t] = int(np.argmax(out.attention))
    return RolloutResult(
        possession_id=seq.possession_id,
        focal_agent=seq.focal_agent,
        t0=seq.t0,
        burn_in=config.burn_in_steps,
        horizon=config.horizon_steps,
        mode=config.mode,
        path=path,
        macro_goals=macro_goals,
        actions=actions,
        attention_argmax=att_argmax,
        clamp_events=clamps.count,
        zero_mass_fallbacks=fallbacks.count,
    )


def batch_rollout(
    model: HPNModel,
    sequences: list[TrainingSequence],
    config: RolloutConfig,
    spec: CourtSpec,
    threads: int = 1,
) -> list[RolloutResult]:
    """Independent rollouts in input order; thread count never changes results."""
    if not sequences:
        raise ConfigError("batch_rollout needs at least one sequence")
    if threads <= 1:
        return [rollout(model, s, config, spec) for s in sequences]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda s: rollout(model, s, config, spec), sequences))


def rollout_to_json(r: RolloutResult) -> str:
    obj = {
        "possession_id": r.possession_id,
        "focal_agent": r.focal_agent,
        "t0": r.t0,
        "burn_in": r.burn_in,
        "horizon": r.horizon,
        "mode": r.mode,
        "path": [[float(x), float(y)] for x, y in r.path],
        "macro_goals": r.macro_goals.tolist(),
        "actions": r.actions.tolist(),
        "attention_argmax": r.attention_argmax.tolist(),
        "clamp_events": r.clamp_events,
        "zero_mass_fallbacks": r.zero_mass_fallbacks,
        "macro_switches": r.macro_switches,
    }
    return json.dumps(obj, separators=(",", ":"))


def save_rollouts(results: list[RolloutResult], path: str | Path) -> None:
    with atomic_open(path) as fh:
        for r in results:
            fh.write(rollout_to_json(r))
            fh.write("\n")


def load_rollouts(path: str | Path) -> list[RolloutResult]:
    results = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            results.append(
                RolloutResult(
                    possession_id=obj["possession_id"],
                    focal_agent=obj["focal_agent"],
                    t0=int(obj["t0"]),
                    burn_in=int(obj["burn_in"]),
                    horizon=int(obj["horizon"]),
                    mode=obj["mode"],
                    path=np.asarray(obj["path"], dtype=np.float64),
                    macro_goals=np.asarray(obj["macro_goals"], dtype=np.int64),
                    actions=np.asarray(obj["actions"], dtype=np.int64),
                    attention_argmax=np.asarray(obj["attention_argmax"], dtype=np.int64),
                    clamp_events=int(obj["clamp_events"]),
                    zero_mass_fallbacks=int(obj["zero_mass_fallbacks"]),
                )
            )
    return results
