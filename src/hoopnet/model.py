"""Hierarchical policy networks and their non-hierarchical baselines.

Every variant maps the positions of the eleven agents to distributions
over look-ahead velocity actions.  Hierarchical variants add a goal-box
head; attention variants turn the goal distribution into a
multiplicative mask over the action space; the concatenation variant
learns the combined output with a fully-connected head instead.  The
one table ``BRANCHES`` names each variant's branches (``micro``,
``macro``, ``attention``, ``combine``); the model builds, runs and
trains by it.

The network sees each step as four occupancy channels (ball, focal
player, teammates, opponents) max-pooled over the input pyramid.
``pooled_occupancy`` builds them straight from the positions, channels
last: agent counts per fine cell, then one k x k max with k the product
of the pyramid kernels (the pyramid's pools do not overlap, so they
compose into one); the counts compare agent pairs' cells, with no sort.

There is one forward implementation, ``HPNModel.run``, over an
(N, T, 11, 2) batch of agent positions and a recurrent memory.  It
works on time-major rows: row ``t * N + i`` holds sequence i at step t
(see ``time_major``).  The occupancy, the encoders, every head, the
transfer net and the combine heads run once over all T*N rows; only the
GRU cells step through time, each inside one engine op
(``engine.nn.gru_sequence``, one tape node per recurrence).  The
encoders a call needs (micro, macro or both) run in one engine op
(``engine.nn.spatial_encoder``, one tape node per encoder), which runs
their first layer over the shared input once.  Training losses,
teacher-forced evaluation (``eval_logits``: ``bench.evaluate`` takes
argmaxes of the logits) and rollouts (``logits`` on all N rollout
sequences: the whole burn-in in one call, then T = 1 per horizon step;
``rollout.choose_step`` picks on ``combined_scores``) all go through it.

Models compute in ``COMPUTE_DTYPE``, float32: the glorot initialisation
is drawn in float64 and rounded once at construction, and the pooled
input, the recurrent memory and the training noise follow the
parameters' dtype.  Scale-setting reductions (batch-norm statistics, the
loss sums) accumulate in float64, and so do ``combined_scores`` and
every probability computed from the logits.  Checkpoints store float64,
so a float32 model's save and load round trip is exact.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .court import CourtSpec
from .data import AGENT_CHANNELS
from .engine import (
    GRUCell,
    Linear,
    Module,
    Tensor,
    concat,
    gru_sequence,
    no_grad,
    relu,
    softmax,
    spatial_encoder,
)
from .engine.nn import BatchNorm, Conv2d
from .engine.tensor import softmax_array
from .util import rng_for

# the dtype every model's parameters, activations and gradients are held in
COMPUTE_DTYPE = np.float32


class Variant(str, Enum):
    CNN = "cnn"
    GRU_CNN = "gru_cnn"
    H_CC = "h_cc"
    H_STACK = "h_stack"
    H_ATT = "h_att"
    H_AUX = "h_aux"


# every branch each variant has, and so runs by default
BRANCHES: dict[Variant, frozenset[str]] = {
    Variant.CNN: frozenset({"micro"}),
    Variant.GRU_CNN: frozenset({"micro"}),
    Variant.H_CC: frozenset({"micro", "macro", "combine"}),
    Variant.H_STACK: frozenset({"micro", "macro", "attention"}),
    Variant.H_ATT: frozenset({"micro", "macro", "attention"}),
    Variant.H_AUX: frozenset({"micro", "macro", "attention"}),
}


# max-pool kernels of the input pyramid, one per level
PYRAMID = (2, 2)
# every encoder conv layer's (odd) kernel size
CONV_KERNEL = 3


@dataclass(frozen=True)
class ArchitectureConfig:
    """Network sizes; output dims always derive from the CourtSpec.

    conv_strides is per layer and must match conv_filters in length.
    """

    conv_filters: tuple[int, ...] = (8, 16)
    conv_strides: tuple[int, ...] = (1, 1)
    gru_cells: int = 128
    transfer_hidden: int = 64

    def __post_init__(self) -> None:
        if not self.conv_filters or any(f < 1 for f in self.conv_filters):
            raise ValueError("conv_filters must list positive filter counts")
        if len(self.conv_strides) != len(self.conv_filters):
            raise ValueError("conv_strides must match conv_filters in length")
        if any(s < 1 for s in self.conv_strides):
            raise ValueError("conv_strides must be >= 1")
        if self.gru_cells < 1 or self.transfer_hidden < 1:
            raise ValueError("gru_cells and transfer_hidden must be >= 1")

    def validate(self, spec: CourtSpec) -> None:
        k = 1
        for level in PYRAMID:
            rows, cols = pooled_grid(spec, k)
            if level > rows or level > cols:
                raise ValueError(f"pyramid kernel {level} exceeds grid {rows}x{cols}")
            k *= level


# the 27 pairs of agents i <= j that share a channel (each agent with
# itself too), and a (27, 11) matrix marking the agents of each pair
_CHANNELS = np.asarray(AGENT_CHANNELS)
_PAIRS = np.nonzero(np.triu(np.equal.outer(_CHANNELS, _CHANNELS)))
# held as float32: its 0/1 entries, and the counts (at most 11) summed over
# them, are exact in every float dtype
_PAIR_AGENTS = np.equal.outer(_PAIRS, np.arange(len(_CHANNELS))).any(axis=0).astype(np.float32)


def pooled_grid(spec: CourtSpec, k: int) -> tuple[int, int]:
    """(rows, cols) of the fine grid max-pooled in k x k blocks; the
    blocks at the far edges cover only the cells that exist."""
    return -(-spec.micro_rows // k), -(-spec.micro_cols // k)


def pooled_occupancy(positions: np.ndarray, spec: CourtSpec, k: int, dtype) -> np.ndarray:
    """(M, 11, 2) agent positions -> (M, ceil(rows/k), ceil(cols/k), 4)
    occupancy in ``dtype``, channels-last: ball, focal, teammates,
    opponents.  The model asks for its float32 compute dtype: positions
    are binned at their own float64 precision, and the counts (at most
    11) are exact in float32.

    Each output cell holds the largest number of agents of its channel in
    any one fine cell of its k x k block (blocks at the far edges cover
    only the cells that exist).  Positions off the court count in the
    nearest edge cell.  Nothing is sorted: each row compares the cells of
    its 27 same-channel agent pairs, which gives every agent the count of
    its channel's agents in its cell, and ``np.maximum.at`` keeps the
    largest count per block and channel.
    """
    m = positions.shape[0]
    cell_cols, cell_rows = spec.cells_from_positions(positions)
    cell = cell_rows * spec.micro_cols + cell_cols
    counts = (cell[:, _PAIRS[0]] == cell[:, _PAIRS[1]]).astype(dtype) @ _PAIR_AGENTS
    out_rows, out_cols = pooled_grid(spec, k)
    out = np.zeros(m * out_rows * out_cols * 4, dtype)
    blocks = ((np.arange(m)[:, None] * out_rows + cell_rows // k) * out_cols + cell_cols // k) * 4
    np.maximum.at(out, (blocks + _CHANNELS).ravel(), counts.ravel())
    return out.reshape(m, out_rows, out_cols, 4)


def time_major(x: np.ndarray) -> np.ndarray:
    """(N, T, ...) -> (T*N, ...): row t*N + i holds sequence i at step t."""
    n, t_steps = x.shape[:2]
    return np.ascontiguousarray(x.swapaxes(0, 1)).reshape(n * t_steps, *x.shape[2:])


def batch_major(x: np.ndarray, n: int) -> np.ndarray:
    """Inverse of time_major: (T*N, ...) -> (N, T, ...)."""
    return x.reshape(-1, n, *x.shape[1:]).swapaxes(0, 1)


class SpatialEncoder(Module):
    """Conv/bn/relu stack over channels-last (M, rows, cols, 4) pooled
    occupancy, then noise and flatten, run by ``engine.nn.spatial_encoder``
    together with the other encoders of the same input (one tape node
    each).  The ``conv{i}``/``bn{i}`` modules hold its weights and
    batch-norm buffers."""

    def __init__(self, spec: CourtSpec, arch: ArchitectureConfig, rng: np.random.Generator):
        super().__init__()
        rows, cols = pooled_grid(spec, math.prod(PYRAMID))
        convs, bns = [], []
        channels = 4
        for i, (f, stride) in enumerate(zip(arch.conv_filters, arch.conv_strides)):
            conv = Conv2d(channels, f, CONV_KERNEL, stride, rng)
            bn = BatchNorm(f)
            setattr(self, f"conv{i}", conv)
            setattr(self, f"bn{i}", bn)
            convs.append(conv)
            bns.append(bn)
            rows, cols = conv.out_size(rows, cols)
            channels = f
        self.convs = convs
        self.bns = bns
        self.out_dim = channels * rows * cols


class HPNModel(Module):
    """One policy network: micro branch, optional macro branch, combiner."""

    def __init__(
        self,
        spec: CourtSpec,
        arch: ArchitectureConfig,
        variant: Variant | str,
        init_seed: int,
    ):
        super().__init__()
        arch.validate(spec)
        self.spec = spec
        self.arch = arch
        self.variant = Variant(variant)
        self.branches = BRANCHES[self.variant]
        n_actions = spec.n_actions
        n_boxes = spec.n_macro_boxes
        lookahead = spec.lookahead_steps
        rng = rng_for(init_seed, "init")

        # micro branch first so its initial weights are identical across
        # variants built from the same seed
        self.micro_encoder = SpatialEncoder(spec, arch, rng)
        feat = self.micro_encoder.out_dim
        if self.variant is Variant.CNN:
            self.micro_core = Linear(feat, arch.gru_cells, rng)
        else:
            self.micro_core = GRUCell(feat, arch.gru_cells, rng)
        heads = []
        for k in range(lookahead):
            extra = n_actions if (self.variant is Variant.H_STACK and k > 0) else 0
            head = Linear(arch.gru_cells + extra, n_actions, rng)
            setattr(self, f"micro_head{k}", head)
            heads.append(head)
        self.micro_heads = heads

        if "macro" in self.branches:
            self.macro_encoder = SpatialEncoder(spec, arch, rng)
            self.macro_core = GRUCell(self.macro_encoder.out_dim, arch.gru_cells, rng)
            self.macro_head = Linear(arch.gru_cells, n_boxes, rng)
        if "attention" in self.branches:
            self.transfer_hidden_layer = Linear(n_boxes, arch.transfer_hidden, rng)
            self.transfer_out_layer = Linear(arch.transfer_hidden, n_actions, rng)
        if "combine" in self.branches:
            cc = []
            for k in range(lookahead):
                head = Linear(n_actions + n_boxes, n_actions, rng)
                setattr(self, f"combine_head{k}", head)
                cc.append(head)
            self.combine_heads = cc
        self.cast(COMPUTE_DTYPE)

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype, which every activation follows."""
        return self.micro_heads[0].weight.data.dtype

    def parameter_groups(self) -> dict[str, list]:
        groups: dict[str, list] = {"micro": [], "macro": [], "attention": [], "combine": []}
        for name, p in self.named_parameters():
            if name.startswith("transfer"):  # the attention branch's transfer net
                groups["attention"].append(p)
            elif name.startswith("combine"):
                groups["combine"].append(p)
            elif name.startswith("macro"):
                groups["macro"].append(p)
            else:
                groups["micro"].append(p)
        return groups

    def set_trainable(self, group_names: set[str]) -> None:
        """Train the listed parameter groups and hold the others fixed."""
        groups = self.parameter_groups()
        if not group_names <= groups.keys():
            raise ValueError(f"unknown parameter groups {sorted(group_names - groups.keys())}")
        for gname, params in groups.items():
            for p in params:
                p.requires_grad = gname in group_names

    def config_hash(self) -> str:
        parts = [self.variant.value]
        for f in fields(self.arch):
            parts.append(f"{f.name}={getattr(self.arch, f.name)}")
        for f in fields(self.spec):
            parts.append(f"{f.name}={getattr(self.spec, f.name)}")
        return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()

    def state_for_checkpoint(self) -> list[tuple[str, np.ndarray]]:
        return list(self.named_state())

    # forward

    def reset_memory(self, batch: int = 1) -> dict:
        """Fresh recurrent state: an all-zero (batch, gru_cells) array in
        the parameters' dtype per GRU branch (none for the memoryless CNN)."""
        mem: dict = {"_owner": id(self), "_batch": batch}
        if self.variant is not Variant.CNN:
            mem["micro"] = np.zeros((batch, self.arch.gru_cells), self.dtype)
        if "macro" in self.branches:
            mem["macro"] = np.zeros((batch, self.arch.gru_cells), self.dtype)
        return mem

    def _check_memory(self, mem: dict, batch: int) -> None:
        if mem.get("_owner") != id(self):
            raise ValueError("memory object belongs to a different model instance")
        if mem.get("_batch") != batch:
            raise ValueError(f"memory batch {mem.get('_batch')} != input batch {batch}")

    def run(
        self,
        inputs: np.ndarray,
        memory: dict,
        *,
        rng=None,
        noise_sigma: float = 0.0,
        branches: frozenset[str] | None = None,
    ) -> tuple[dict, dict]:
        """Forward over an (N, T, 11, 2) batch of agent positions (see
        ``data.agent_positions``) starting from ``memory``.

        Returns graph tensors over the T*N time-major rows for the
        requested branches (``raw_logits`` and ``cc_logits`` as one tensor
        per look-ahead head, ``macro_logits``, ``attention_logits``) and
        the memory after step T: each GRU's last N state rows.

        The tape sets the mode.  With it on, the call trains: the encoders
        normalize by batch statistics, advance their running buffers and
        add ``noise_sigma`` noise drawn from ``rng``, even when none of
        their parameters trains.  Under ``engine.no_grad()`` it infers:
        batch norm is folded into the convolutions and no noise is drawn.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 4 or inputs.shape[2:] != (len(AGENT_CHANNELS), 2):
            raise ValueError(
                f"input {inputs.shape} is not an (N, T, {len(AGENT_CHANNELS)}, 2) "
                "array of agent positions"
            )
        n = inputs.shape[0]
        self._check_memory(memory, n)
        branches = self.branches if branches is None else branches & self.branches
        k = math.prod(PYRAMID)
        pooled = pooled_occupancy(time_major(inputs), self.spec, k, self.dtype)
        new_mem = dict(memory)
        outs: dict = {}
        run_micro = bool(branches & {"micro", "combine"})
        run_macro = bool(branches & {"macro", "attention", "combine"})
        # one call for both encoders, micro first (its noise is drawn first)
        encoders = [self.micro_encoder] if run_micro else []
        if run_macro:
            encoders.append(self.macro_encoder)
        features = spatial_encoder(pooled, encoders, rng, noise_sigma)

        if run_micro:
            if self.variant is Variant.CNN:
                h = relu(self.micro_core(features[0]))
            else:
                h = gru_sequence(self.micro_core, features[0], memory["micro"])
                new_mem["micro"] = h.data[-n:]
            outs["raw_logits"] = self._raw_logits(h)

        if run_macro:
            hm = gru_sequence(self.macro_core, features[-1], memory["macro"])
            new_mem["macro"] = hm.data[-n:]
            macro_logits = self.macro_head(hm)
            outs["macro_logits"] = macro_logits
            if "attention" in branches:
                outs["attention_logits"] = self._attention_logits(macro_logits)
            if "combine" in branches:
                outs["cc_logits"] = self._cc_logits(outs["raw_logits"], macro_logits)
        return outs, new_mem

    def _raw_logits(self, h: Tensor) -> list[Tensor]:
        logits = []
        prev = None
        for head in self.micro_heads:
            inp = h if prev is None else concat([h, prev], axis=-1)
            out = head(inp)
            logits.append(out)
            if self.variant is Variant.H_STACK:
                prev = softmax(out)
        return logits

    def _attention_logits(self, macro_logits: Tensor) -> Tensor:
        p_macro = softmax(macro_logits)
        return self.transfer_out_layer(relu(self.transfer_hidden_layer(p_macro)))

    def _cc_logits(self, raw_logits: list[Tensor], macro_logits: Tensor) -> list[Tensor]:
        p_macro = softmax(macro_logits)
        return [
            head(concat([softmax(raw_logits[k]), p_macro], axis=-1))
            for k, head in enumerate(self.combine_heads)
        ]

    def logits(self, inputs: np.ndarray, memory: dict) -> tuple[dict, dict]:
        """Inference over (N, T, ...) from ``memory``, a ``run`` under
        ``engine.no_grad()``; returns the logits as plain batch-major
        arrays in the compute dtype and the memory after step T.

        The keys are ``raw`` and ``cc``, (N, T, lookahead, n_actions),
        ``macro``, (N, T, n_boxes), and ``attention``, (N, T, n_actions);
        a head the variant lacks is None.  Raises FloatingPointError
        naming the first head with a non-finite logit.
        """
        with no_grad():
            outs, memory = self.run(inputs, memory)
        n = memory["_batch"]
        result: dict = {}
        for key in ("raw", "macro", "attention", "cc"):
            value = outs.get(f"{key}_logits")
            if isinstance(value, list):  # look-ahead heads: (T*N, lookahead, n_actions)
                # one concatenate: np.stack's Python wrapper costs more
                # than the copy at T = 1
                rows = len(value[0].data)
                value = np.concatenate([t.data for t in value], axis=1).reshape(rows, len(value), -1)
            elif value is not None:
                value = value.data
            if value is not None and not np.isfinite(value).all():
                raise FloatingPointError(f"non-finite values in the {key} logits")
            result[key] = None if value is None else batch_major(value, n)
        return result, memory

    def eval_logits(self, inputs: np.ndarray) -> dict:
        """Teacher-forced ``logits`` over (N, T, ...) from fresh memory."""
        return self.logits(inputs, self.reset_memory(len(inputs)))[0]

    def eval_sequence(self, inputs: np.ndarray) -> dict:
        """Teacher-forced probabilities over (N, T, ...) from fresh memory,
        each the softmax of an ``eval_logits`` head widened to float64:
        ``p_raw``, ``p_macro``, ``attention`` (None where the variant lacks
        the head) and ``p_combined``, the combine heads' softmax for h_cc,
        ``p_raw`` masked by ``attention`` for attention variants and
        ``p_raw`` otherwise.  The package chooses on logits and never needs
        these; the benchmark's checkpoint and probability checks
        (``perfbench/workloads.py``) still call it."""
        logits = self.eval_logits(inputs)

        def probs(key: str) -> np.ndarray | None:
            value = logits[key]
            return None if value is None else softmax_array(value.astype(np.float64))

        p_raw, attention = probs("raw"), probs("attention")
        if logits["cc"] is not None:
            p_combined = probs("cc")
        elif attention is not None:
            p_combined = p_raw * attention[:, :, None, :]
        else:
            p_combined = p_raw
        return {"p_raw": p_raw, "p_macro": probs("macro"), "attention": attention,
                "p_combined": p_combined}


def combined_scores(logits: dict) -> np.ndarray:
    """(N, T, lookahead, n_actions) scores from ``HPNModel.logits`` whose
    softmax is the combined policy: the ``cc`` logits for h_cc, ``raw``
    plus ``attention`` summed in float64 for attention variants (the raw
    softmax masked by the attention softmax, renormalised, up to
    rounding), ``raw`` otherwise.  Softmax is monotone, so the argmaxes
    agree with the probabilities' except where two actions' scores tie
    exactly; there ``argmax`` takes the lower index.
    """
    if logits["cc"] is not None:
        return logits["cc"]
    if logits["attention"] is not None:
        return np.add(logits["raw"], logits["attention"][:, :, None, :], dtype=np.float64)
    return logits["raw"]
