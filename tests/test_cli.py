import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hoopnet import cli
from hoopnet import data as data_mod
from hoopnet import train as train_mod
from hoopnet.cli import main
from hoopnet.config import (
    RunConfig,
    dump_run_config,
    load_run_config,
    parse_document,
)
from hoopnet.court import CourtSpec
from hoopnet.errors import ConfigError
from hoopnet.labels import MAGNITUDE_MAX, MAGNITUDE_MIN, STATIONARY_SPEED_FT_PER_RAW_FRAME
from hoopnet.model import CONV_KERNEL, PYRAMID, HPNModel
from hoopnet.train import DECAY, GRAD_CLIP_NORM, L2_ACTIVATION_WEIGHT, MOMENTUM, RHO, Stage

REPO = Path(__file__).resolve().parent.parent

QUICK = """
# quick desk-scale config for tests
synth.n_possessions = 3
data.windows_per_player = 1
data.holdout_fraction = 0.34
arch.conv_filters = 4,6
arch.conv_strides = 2,1
arch.gru_cells = 12
arch.transfer_hidden = 8
train.batch_size = 4
train.epochs_pretrain = 1
train.epochs_finetune = 1
train.translate_max_cells = 0
train.noise_sigma = 0.0
train.holdout_eval_max = 4
train.early_stop_patience = 0
rollout.burn_in_steps = 10
rollout.horizon_steps = 5
run.n_rollouts = 2
"""


def write_config(tmp_path, extra=""):
    path = tmp_path / "test.cfg"
    path.write_text(QUICK + f"paths.out_dir = {tmp_path / 'out'}\n" + extra)
    return path


# config document


def test_parse_document_basics():
    entries = parse_document("court.width_ft = 50\n# comment\n\nsynth.seed_x = 1")
    assert entries[("court", "width_ft")] == "50"


def test_load_run_config_defaults_and_overrides():
    cfg = load_run_config(None, ["train.batch_size=8", "arch.conv_strides=2,1"])
    assert cfg.train.batch_size == 8
    assert cfg.arch.conv_strides == (2, 1)
    assert cfg.court.width_ft == 50.0


# an 8 x 8 ft court of 2 ft cells and boxes: each key alone leaves a court
# that fails its own checks (8 ft is no multiple of the default 5 ft box)
SMALL_COURT = {"width_ft": "8", "height_ft": "8", "micro_cell_ft": "2", "macro_box_ft": "2"}
SMALL_COURT_FLAGS = [f"court.{key}={value}" for key, value in SMALL_COURT.items()]


def test_overrides_apply_as_one_update():
    document = "".join(f"court.{key} = {value}\n" for key, value in SMALL_COURT.items())
    cfg = load_run_config(None, SMALL_COURT_FLAGS)
    assert cfg == load_run_config(document)
    assert (cfg.court.width_ft, cfg.court.macro_box_ft) == (8.0, 2.0)
    # overrides replace the document's values, and a later flag wins
    assert load_run_config("court.width_ft = 10", SMALL_COURT_FLAGS) == cfg
    assert load_run_config(None, ["court.width_ft=9", *SMALL_COURT_FLAGS]) == cfg


def test_invalid_final_court_names_the_court():
    with pytest.raises(ConfigError, match=r"^court: court extents \(9.0 x 8.0\)"):
        load_run_config(None, [*SMALL_COURT_FLAGS, "court.width_ft=9"])


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        load_run_config("court.depth = 3")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_run_config("nosuch.key = 1")
    with pytest.raises(ConfigError, match="--seed"):
        load_run_config("synth.seed = 4")
    with pytest.raises(ConfigError, match="duplicate"):
        load_run_config("train.batch_size = 4\ntrain.batch_size = 8")
    with pytest.raises(ConfigError):
        load_run_config("train.batch_size = soup")


# keys that became module constants, with the constant that holds each one's
# value; a per-layer key holds a scalar constant in every layer
FIXED_KEYS = {
    "labels.stationary_speed_ft_per_raw_frame": STATIONARY_SPEED_FT_PER_RAW_FRAME,
    "labels.magnitude_min": MAGNITUDE_MIN,
    "labels.magnitude_max": MAGNITUDE_MAX,
    "arch.pyramid": PYRAMID,
    "arch.conv_kernels": CONV_KERNEL,
    "train.decay": DECAY,
    "train.momentum": MOMENTUM,
    "train.rho": RHO,
    "train.grad_clip_norm": GRAD_CLIP_NORM,
    "train.l2_activation_weight": L2_ACTIVATION_WEIGHT,
    "synth.dwell_frames_min": data_mod.DWELL_FRAMES_MIN,
    "synth.dwell_frames_max": data_mod.DWELL_FRAMES_MAX,
    "synth.curvature": data_mod.CURVATURE,
    "synth.speed_min_ft_per_frame": data_mod.SPEED_MIN_FT_PER_FRAME,
    "synth.speed_max_ft_per_frame": data_mod.SPEED_MAX_FT_PER_FRAME,
    "synth.noise_std_ft": data_mod.NOISE_STD_FT,
}

REMOVED_KEYS = [
    *FIXED_KEYS,
    "train.checkpoint_every_epochs",
    "train.microbatch_size",
    "run.threads",
    "arch.shared_encoder",
    "train.attention_label_fraction",
    "render.trail_policy",
    "render.box_max_opacity",
    *(f"render.color_{name}" for name in ("background", "court", "grid", "ball", "teammate",
                                          "opponent", "burn_in", "extrapolated", "macro_box")),
]


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_keys_rejected(key):
    with pytest.raises(ConfigError, match=f"unknown config key {key}"):
        load_run_config(f"{key} = 1")


def _holds(value: str, constant) -> bool:
    if isinstance(constant, tuple):
        return tuple(int(v) for v in value.split(",")) == constant
    return all(type(constant)(v) == constant for v in value.split(","))


@pytest.mark.parametrize("name", ["desk", "quick"])
def test_benchmark_workloads_hold_the_fixed_values(name):
    # the benchmark's configs still name removed keys; dropping them must
    # leave its workloads as they ran
    text = (REPO / "perfbench" / "configs" / f"{name}.cfg").read_text(encoding="utf-8")
    entries = parse_document(text)
    for (section, key), value in entries.items():
        try:
            load_run_config(f"{section}.{key} = {value}")
        except ConfigError as exc:
            assert "unknown config key" in str(exc), exc
            assert f"{section}.{key}" in REMOVED_KEYS
    for dotted, constant in FIXED_KEYS.items():
        value = entries[tuple(dotted.split("."))]
        assert _holds(value, constant), f"{dotted} = {value}, the program fixes {constant}"


# every key that no configs/*.cfg sets away from its default, and why it
# stays a key: a key with one value in use and no reason to vary becomes a
# module constant (ROADMAP aim 2)
COURT_DATA = "the court of the ingested data; test_court runs a paper-scale 0.25 ft court"
PERFBENCH = "perfbench/workloads.py reads it"
KEPT_AT_DEFAULT = {
    **{f"court.{key}": COURT_DATA for key in (
        "width_ft", "height_ft", "micro_cell_ft", "macro_box_ft", "velocity_radius_cells",
        "lookahead_steps", "subsample_stride")},
    "data.bounds_tolerance_ft": PERFBENCH,
    "rollout.burn_in_steps": PERFBENCH,
    "render.scale_px_per_ft": PERFBENCH,
    "labels.min_segment_steps": "ROADMAP item 7 audits labels at min_segment_steps=1",
    "train.lr_pretrain": "ROADMAP item 8's learning-rate runs",
    "train.lr_finetune": "ROADMAP item 8's learning-rate runs",
    "train.translate_max_cells": "ROADMAP item 8's clamping suspect",
    "train.noise_sigma": "ROADMAP item 14 runs noise_sigma=0",
    "rollout.mode": "ROADMAP item 6 rolls out in argmax and sample mode",
}


def test_every_key_at_its_default_has_a_reason_to_stay():
    defaults = parse_document(dump_run_config(RunConfig()))
    moved = set()
    for path in sorted((REPO / "configs").glob("*.cfg")):
        values = parse_document(dump_run_config(load_run_config(path.read_text(encoding="utf-8"))))
        moved |= {key for key, value in values.items() if value != defaults[key]}
    at_default = {".".join(key) for key in defaults.keys() - moved}
    assert sorted(at_default - KEPT_AT_DEFAULT.keys()) == [], "make these module constants"
    assert sorted(KEPT_AT_DEFAULT.keys() - at_default) == [], "a config moves these; drop them"


def test_readme_states_the_key_count():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    n_keys = len(parse_document(dump_run_config(RunConfig())))
    assert re.findall(r"all\s+(\d+)\s+keys", readme) == [str(n_keys)]


def test_dump_round_trips():
    cfg = load_run_config(None, ["render.scale_px_per_ft=7.5"])
    text = dump_run_config(cfg)
    again = load_run_config(text)
    assert again == cfg


def test_repository_configs_load():
    # every config document shipped in configs/ names only existing keys
    paths = sorted((REPO / "configs").glob("*.cfg"))
    assert paths
    for path in paths:
        load_run_config(path.read_text(encoding="utf-8"))


def test_desk_config_sets_every_key():
    # the desk document is complete: it names every key the program has
    desk = REPO / "configs" / "desk.cfg"
    keys = parse_document(desk.read_text(encoding="utf-8")).keys()
    assert keys == parse_document(dump_run_config(RunConfig())).keys()


BAD_VALUES = [
    "court.micro_cell_ft=0.3",  # does not divide the court
    "data.holdout_fraction=0",  # no holdout split
    "data.windows_per_player=0",  # no training sequences
    "train.holdout_eval_max=-1",  # would drop the last holdout sequence
    "train.noise_sigma=-1",  # would fail mid-training
    "train.early_stop_patience=-1",
    "rollout.burn_in_steps=51",  # longer than a sequence
    "run.n_rollouts=0",  # would fail only after training
    "run.n_rollouts=-2",  # would drop the last two rollouts
    "paths.out_dir=",  # would write every output into the working directory
    # nan and infinity pass every range check, since no comparison with nan holds
    "court.width_ft=inf",  # would overflow in the grid shapes
    "court.micro_cell_ft=nan",
    "data.bounds_tolerance_ft=inf",  # would let any track through
    "data.bounds_tolerance_ft=-1",  # would refuse tracks inside the court
    "train.lr_pretrain=nan",
    "train.noise_sigma=inf",
    "render.scale_px_per_ft=inf",
]


def _typed(section: str, key: str, value: str):
    """``value`` as the type of the key's default."""
    return type(getattr(getattr(RunConfig(), section), key))(value)


@pytest.mark.parametrize("override", BAD_VALUES)
def test_bad_config_values_stop_at_load(tmp_path, capsys, override):
    path = write_config(tmp_path)
    assert main(["--config", str(path), "--seed", "1", "--set", override, "synth"]) == 1
    err = capsys.readouterr().err
    section, key = override.split("=")[0].split(".")
    assert err.startswith(f"error: {section}: ") and key in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override", BAD_VALUES)
def test_bad_config_values_stop_when_the_section_is_built(override):
    # a library caller that builds a section gets the same refusal
    dotted, value = override.split("=")
    section, key = dotted.split(".")
    with pytest.raises(ValueError, match=key):
        replace(getattr(RunConfig(), section), **{key: _typed(section, key, value)})


COURT_TOO_SMALL = [
    # a velocity radius below MAGNITUDE_MAX
    ([f"court.velocity_radius_cells={MAGNITUDE_MAX - 1}"], "labels"),
    # a 1x1 fine grid, smaller than the first kernel of PYRAMID
    ([f"court.{key}=5" for key in ("width_ft", "height_ft", "micro_cell_ft", "macro_box_ft")],
     "arch"),
    # a velocity radius of 1 ft/frame, below the walk's top speed
    (["court.velocity_radius_cells=1"], "synth"),
]


@pytest.mark.parametrize("overrides, section", COURT_TOO_SMALL)
def test_court_too_small_for_a_constant_stops_at_load(tmp_path, capsys, overrides, section):
    path = write_config(tmp_path)
    args = [arg for override in overrides for arg in ("--set", override)]
    assert main(["--config", str(path), "--seed", "1", *args, "synth"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {section}: ")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, section", COURT_TOO_SMALL)
def test_run_config_refuses_a_court_too_small_for_a_constant(overrides, section):
    keys = dict(override.removeprefix("court.").split("=") for override in overrides)
    court = CourtSpec(**{key: _typed("court", key, value) for key, value in keys.items()})
    with pytest.raises(ConfigError, match=f"^{section}: "):
        RunConfig(court=court)


@pytest.mark.parametrize("override", [
    "# train.batch_size=8",  # a comment: would set nothing
    "train.batch_size=8\ntrain.epochs_pretrain=0",  # two lines: would set two keys
    "train.batch_size=8\n# more",
    "   ",
])
def test_set_item_must_give_one_key(tmp_path, capsys, override):
    path = write_config(tmp_path)
    assert main(["--config", str(path), "--seed", "1", "--set", override, "synth"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --set {override!r}: expected one section.key=value\n"
    assert not (tmp_path / "out").exists()


# CLI plumbing


def test_seed_required(tmp_path, capsys):
    path = write_config(tmp_path)
    code = main(["--config", str(path), "synth"])
    assert code == 1
    assert "--seed" in capsys.readouterr().err


def test_synth_deterministic_and_reingests(tmp_path):
    path = write_config(tmp_path)
    assert main(["--config", str(path), "--seed", "7", "synth"]) == 0
    out = tmp_path / "out" / "possessions.jsonl"
    first = out.read_bytes()
    assert main(["--config", str(path), "--seed", "7", "synth"]) == 0
    assert out.read_bytes() == first
    lines = [l for l in first.decode().splitlines() if l]
    assert len(lines) == 3
    json.loads(lines[0])


def test_synth_zero_possessions(tmp_path):
    path = write_config(tmp_path, extra="")
    assert main(["--config", str(path), "--seed", "3", "--set",
                 "synth.n_possessions=0", "synth"]) == 0
    out = tmp_path / "out" / "possessions.jsonl"
    assert out.read_text() == ""


def test_label_sidecar_matches_in_process(tmp_path):
    path = write_config(tmp_path)
    assert main(["--config", str(path), "--seed", "5", "synth"]) == 0
    assert main(["--config", str(path), "--seed", "5", "label"]) == 0
    sidecar = (tmp_path / "out" / "labels.jsonl").read_text().splitlines()
    rows = [json.loads(l) for l in sidecar if l]
    assert rows

    # recompute in-process with the same derivations
    from hoopnet import data as data_mod
    from hoopnet import labels as labels_mod
    from hoopnet.config import load_run_config
    from hoopnet.util import derive_seed, rng_for
    from dataclasses import replace

    cfg = load_run_config(path.read_text())
    seg = replace(cfg.labels, seed=derive_seed(5, "labels"))
    possessions = data_mod.ingest(tmp_path / "out" / "possessions.jsonl", cfg.court,
                                   cfg.data.bounds_tolerance_ft)
    recomputed = {}
    for p in sorted(possessions, key=lambda p: p.id):
        rng = rng_for(5, "window", p.id)
        for seq in data_mod.window(p, cfg.court, rng, cfg.data.windows_per_player):
            lab = labels_mod.label_sequence(seq, cfg.court, seg)
            recomputed[(seq.possession_id, seq.focal_agent, seq.t0)] = lab
    assert len(recomputed) == len(rows)
    for row in rows:
        lab = recomputed[(row["possession_id"], row["focal_agent"], row["t0"])]
        assert row["micro"] == lab.micro.tolist()
        assert row["macro"] == lab.macro.tolist()
        assert row["attention"] == lab.attention.tolist()


def test_label_determinism(tmp_path):
    path = write_config(tmp_path)
    main(["--config", str(path), "--seed", "5", "synth"])
    main(["--config", str(path), "--seed", "5", "label"])
    first = (tmp_path / "out" / "labels.jsonl").read_bytes()
    main(["--config", str(path), "--seed", "5", "label"])
    assert (tmp_path / "out" / "labels.jsonl").read_bytes() == first


def test_missing_possessions_is_data_error(tmp_path, capsys):
    path = write_config(tmp_path)
    code = main(["--config", str(path), "--seed", "5", "label"])
    assert code == 2


def test_bad_possession_line_error_names_the_file(tmp_path, capsys):
    path = write_config(tmp_path)
    possessions = tmp_path / "out" / "possessions.jsonl"
    possessions.parent.mkdir()
    possessions.write_text('{"id":"p1","tracks":[]}\n', encoding="utf-8")
    assert main(["--config", str(path), "--seed", "5", "label"]) == 2
    assert capsys.readouterr().err == f"data error: {possessions} line 1: missing ball track\n"


def test_possessions_that_are_not_utf8_are_a_data_error(tmp_path, capsys):
    path = write_config(tmp_path)
    possessions = tmp_path / "out" / "possessions.jsonl"
    possessions.parent.mkdir()
    possessions.write_bytes(b"\xff" + b'{"id":"p1","tracks":[]}\n')
    assert main(["--config", str(path), "--seed", "5", "label"]) == 2
    assert capsys.readouterr().err == f"data error: {possessions}: not UTF-8 text (invalid start byte)\n"


def test_train_epochs_zero_equals_initialization(tmp_path):
    path = write_config(tmp_path)
    main(["--config", str(path), "--seed", "9", "synth"])
    code = main([
        "--config", str(path), "--seed", "9",
        "--set", "train.epochs_pretrain=0", "--set", "train.epochs_finetune=0",
        "train", "--variant", "gru_cnn",
    ])
    assert code == 0
    ckpt = tmp_path / "out" / "checkpoints" / "gru_cnn.ckpt"
    assert ckpt.exists()

    from hoopnet.config import load_run_config
    from hoopnet.engine.checkpoint import load_checkpoint
    from hoopnet.model import HPNModel, Variant
    from hoopnet.util import derive_seed

    cfg = load_run_config(path.read_text())
    model = HPNModel(cfg.court, cfg.arch, Variant.GRU_CNN, derive_seed(9, "init", "gru_cnn"))
    fresh = [a.copy() for _, a in model.state_for_checkpoint()]
    load_checkpoint(ckpt, model.state_for_checkpoint(), model.config_hash())
    for loaded, init in zip(model.state_for_checkpoint(), fresh):
        np.testing.assert_array_equal(loaded[1], init)


def test_resume_of_a_finished_variant_keeps_its_report(tmp_path, capsys):
    path = write_config(tmp_path)
    base = ["--config", str(path), "--seed", "3"]
    assert main(base + ["synth"]) == 0
    assert main(base + ["train", "--variant", "cnn"]) == 0
    report = tmp_path / "out" / "reports" / "cnn.csv"
    ckpt = tmp_path / "out" / "checkpoints" / "cnn.ckpt"
    before, ckpt_before = report.read_bytes(), ckpt.read_bytes()
    assert len(before.splitlines()) > 1
    capsys.readouterr()
    assert main(base + ["train", "--variant", "cnn", "--resume"]) == 0
    assert capsys.readouterr().out == f"trained cnn: every stage was already done in {ckpt}\n"
    assert report.read_bytes() == before and ckpt.read_bytes() == ckpt_before


def test_train_line_says_how_many_holdout_sequences_it_scores(tmp_path, capsys, monkeypatch):
    # the holdout score printed after training covers the first
    # train.holdout_eval_max sequences, bench all of them
    path = write_config(tmp_path)
    splits = []
    prepare = cli._prepare_sequences
    monkeypatch.setattr(cli, "_prepare_sequences", lambda *a: splits.append(prepare(*a)) or splits[-1])
    base = ["--config", str(path), "--seed", "9"]
    assert main(base + ["synth"]) == 0
    assert main(base + ["train", "--variant", "cnn"]) == 0
    assert main(base + ["--set", "train.holdout_eval_max=0", "train", "--variant", "cnn"]) == 0
    total = len(splits[0][1])
    assert total > 4 and total == len(splits[1][1])
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("trained cnn")]
    covered = [re.search(r"holdout acc_delta0 \d\.\d{3} over (\d+) of (\d+) holdout sequences$", line)
               for line in lines]
    assert [m.groups() for m in covered] == [("4", str(total)), (str(total), str(total))]


def test_repro_without_variant_names_is_a_usage_error(tmp_path):
    # an empty list would benchmark whatever checkpoints sit in the output
    # directory, then fail on its last name
    path = write_config(tmp_path)
    with pytest.raises(SystemExit):
        main(["--config", str(path), "--seed", "1", "repro", "--variants"])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["repro", "bench"])
def test_repeated_variant_is_a_usage_error(tmp_path, capsys, command):
    # repro would train cnn twice and write its checkpoint twice; bench
    # would score it twice.  Both stop before any work
    path = write_config(tmp_path)
    argv = ["--config", str(path), "--seed", "1", command, "--variants", "cnn", "h_att", "cnn"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --variants names cnn more than once\n"
    assert not (tmp_path / "out").exists()


def test_render_of_a_cut_rollout_file_is_a_data_error(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["--config", str(path), "--seed", "4", "synth"]) == 0
    rollouts = tmp_path / "out" / "rollouts" / "h_att.jsonl"
    rollouts.parent.mkdir()
    rollouts.write_text('{"possession_id":"synth-00000","focal_ag')
    assert main(["--config", str(path), "--seed", "4", "render", "--variant", "h_att"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and f"{rollouts} line 1: " in err
    assert len(err.strip().splitlines()) == 1


def test_render_of_a_rollout_file_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["--config", str(path), "--seed", "4", "synth"]) == 0
    rollouts = tmp_path / "out" / "rollouts" / "h_att.jsonl"
    rollouts.parent.mkdir()
    rollouts.write_bytes(b"\xff" + b'{"possession_id":"synth-00000"}\n')
    assert main(["--config", str(path), "--seed", "4", "render", "--variant", "h_att"]) == 2
    assert capsys.readouterr().err == f"data error: {rollouts}: not UTF-8 text (invalid start byte)\n"


@pytest.mark.parametrize("change, message", [
    ({"burn_in": 0}, "field 'burn_in' must be >= 1"),
    ({"horizon": 2}, "field 'path' must have burn_in + horizon = 3 entries"),
])
def test_render_of_a_rollout_out_of_range_is_a_data_error(tmp_path, capsys, change, message):
    # a line keyed to a holdout sequence, so only its range can fail it:
    # no burn-in step to draw from, or a path shorter than its steps
    path = write_config(tmp_path)
    assert main(["--config", str(path), "--seed", "4", "synth"]) == 0
    seq = cli.Run(load_run_config(path.read_text(encoding="utf-8")), 4).split[1][0].sequence
    line = {"possession_id": seq.possession_id, "focal_agent": seq.focal_agent, "t0": seq.t0,
            "burn_in": 1, "horizon": 1, "mode": "argmax", "path": [[1.5, 2.0], [5.5, 2.0]],
            "macro_goals": [3, 3], "actions": [[170] * 4] * 2, "attention_argmax": [9, 9],
            "clamp_events": 0, **change}
    rollouts = tmp_path / "out" / "rollouts" / "h_att.jsonl"
    rollouts.parent.mkdir()
    rollouts.write_text(json.dumps(line) + "\n")
    assert main(["--config", str(path), "--seed", "4", "render", "--variant", "h_att"]) == 2
    err = capsys.readouterr().err
    assert err == f"data error: {rollouts} line 1: {message}\n"


def test_invalid_variant_usage_error(tmp_path):
    path = write_config(tmp_path)
    with pytest.raises(SystemExit):
        main(["--config", str(path), "--seed", "1", "train", "--variant", "bogus"])


def test_bench_requires_checkpoints(tmp_path):
    path = write_config(tmp_path)
    main(["--config", str(path), "--seed", "4", "synth"])
    code = main(["--config", str(path), "--seed", "4", "bench"])
    assert code == 2  # nothing trained yet


class _Interrupted(Exception):
    pass


def test_an_unfinished_checkpoint_is_not_scored(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path)
    base = ["--config", str(path), "--seed", "4"]
    out = tmp_path / "out"
    assert main(base + ["synth"]) == 0
    run_stage = train_mod.run_stage

    def interrupt_finetune(model, train_data, holdout_data, stage, *args):
        if stage is Stage.FINETUNE:
            raise _Interrupted
        return run_stage(model, train_data, holdout_data, stage, *args)

    with monkeypatch.context() as patch:
        patch.setattr(train_mod, "run_stage", interrupt_finetune)
        with pytest.raises(_Interrupted):
            main(base + ["train", "--variant", "h_att"])
    assert (out / "checkpoints" / "h_att.ckpt").exists()
    capsys.readouterr()
    for command in (["bench", "--variants", "h_att"], ["bench"], ["rollout", "--variant", "h_att"]):
        assert main(base + command) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "finetune" in err and "--resume" in err
    assert not (out / "bench.csv").exists() and not (out / "claim.txt").exists()
    assert not (out / "rollouts").exists()
    assert main(base + ["train", "--variant", "h_att", "--resume"]) == 0
    assert main(base + ["bench", "--variants", "h_att"]) == 0
    assert (out / "bench.csv").exists()


def test_corrupt_checkpoint_is_an_error_line(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["--config", str(path), "--seed", "4", "synth"]) == 0
    ckpt = tmp_path / "out" / "checkpoints" / "cnn.ckpt"
    ckpt.parent.mkdir()
    ckpt.write_bytes(b"HPNCKPT\x00\x01\x00")  # header cut short
    assert main(["--config", str(path), "--seed", "4", "bench", "--variants", "cnn"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cnn.ckpt" in err


def test_readme_commands_parse_and_load():
    # every documented command parses and names only existing config keys
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.S | re.M)
    commands = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("hoopnet ")]
    assert any(" repro --variants cnn gru_cnn h_att" in c for c in commands)
    for command in commands:
        args = cli.build_parser().parse_args(shlex.split(command)[1:])
        assert args.seed is not None, command
        text = (REPO / args.config).read_text(encoding="utf-8") if args.config else None
        load_run_config(text, args.set or [])


def test_readme_names_exist():
    # every backticked HPNModel.<attr> and hoopnet.<module>[.<name>] in the
    # README names something in the tree, so a removed name cannot stay
    # documented
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    names = sorted(set(re.findall(r"`(HPNModel(?:\.\w+)+|hoopnet(?:\.\w+)+)`", readme)))
    assert "HPNModel.logits" in names and "hoopnet.rollout" in names
    for name in names:
        parts = name.split(".")
        if parts[0] == "HPNModel":
            obj, depth = HPNModel, 1
        else:
            # the longest importable module prefix, then attributes
            depth = len(parts)
            while True:
                try:
                    obj = importlib.import_module(".".join(parts[:depth]))
                    break
                except ModuleNotFoundError:
                    depth -= 1
                    assert depth > 1, f"README names no module: {name}"
        for attr in parts[depth:]:
            assert hasattr(obj, attr), f"README names a missing attribute: {name}"
            obj = getattr(obj, attr)


def test_defaults_command_prints_document(tmp_path, capsys):
    assert main(["defaults"]) == 0
    out = capsys.readouterr().out
    assert "court.width_ft = 50.0" in out
    assert "train.batch_size = 16" in out
    cfg = load_run_config(out)
    assert cfg == RunConfig()


def test_a_config_that_is_not_utf8_is_an_error_line(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xff" + b"synth.n_possessions = 3\n")
    assert main(["--config", str(path), "defaults"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {path}: ") and "invalid start byte" in err
    assert len(err.splitlines()) == 1


def test_repro_prepares_sequences_once(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    calls = []
    prepare = cli._prepare_sequences
    monkeypatch.setattr(cli, "_prepare_sequences", lambda *a: calls.append(a) or prepare(*a))
    # one epoch of fine-tuning, so the report has rows and the checkpoint
    # moved from its initial weights
    base = ["--config", str(path), "--seed", "6", "--set", "train.epochs_pretrain=0"]
    assert main(base + ["repro", "--variants", "gru_cnn", "h_att"]) == 0
    assert len(calls) == 1
    # the standalone commands prepare their own split and write the same
    # bytes; a training report differs only in its seconds column
    out = tmp_path / "out"
    svgs = sorted((out / "svg").glob("*.svg"))
    assert svgs
    files = [out / "labels.jsonl", out / "bench.csv", out / "rollouts" / "h_att.jsonl",
             out / "checkpoints" / "h_att.ckpt", *svgs]
    report = out / "reports" / "h_att.csv"

    def without_seconds(path):
        rows = [line.split(",") for line in path.read_text().splitlines()]
        column = rows[0].index("seconds")
        return [row[:column] + row[column + 1:] for row in rows]

    before = [f.read_bytes() for f in files]
    report_before = without_seconds(report)
    assert len(report_before) > 1
    assert main(base + ["label"]) == 0
    assert main(base + ["train", "--variant", "h_att"]) == 0
    assert main(base + ["bench", "--variants", "gru_cnn", "h_att"]) == 0
    assert main(base + ["rollout", "--variant", "h_att"]) == 0
    assert main(base + ["render", "--variant", "h_att"]) == 0
    assert len(calls) == 6
    assert [f.read_bytes() for f in files] == before
    assert sorted((out / "svg").glob("*.svg")) == svgs
    assert without_seconds(report) == report_before


def test_claim_describes_the_bench_csv_beside_it(tmp_path, capsys):
    path = write_config(tmp_path)
    base = ["--config", str(path), "--seed", "6", "--set", "train.epochs_pretrain=0",
            "--set", "train.epochs_finetune=0"]
    assert main(base + ["repro", "--variants", "cnn", "gru_cnn", "h_att"]) == 0
    out = tmp_path / "out"
    header, *lines = (out / "bench.csv").read_text().splitlines()
    bench = {line.split(",")[0]: dict(zip(header.split(","), line.split(","))) for line in lines}
    d0 = {v: bench[v]["acc_delta0"] for v in ("cnn", "gru_cnn", "h_att")}
    claim = (out / "claim.txt").read_text().splitlines()
    numbers = [re.findall(r"[-+]?\d+\.\d{6}", line) for line in claim]
    assert numbers[0][:2] + numbers[0][3:] == [d0["h_att"], d0["cnn"], "0.050000"]
    # the margin is taken before rounding, so it may differ in the last digit
    assert abs(float(numbers[0][2]) - (float(d0["h_att"]) - float(d0["cnn"]))) < 1.5e-6
    assert numbers[1] == [bench["h_att"]["macro_acc_excl_burnin"], f"{10 / 90:.6f}"]
    assert numbers[2] == [d0["h_att"], d0["gru_cnn"], d0["cnn"]]
    assert all(line.endswith((": pass", ": fail")) for line in claim)
    assert "\n".join(claim) in capsys.readouterr().out
    # a bench without all three variants leaves no stale claim behind
    assert main(base + ["bench", "--variants", "h_att"]) == 0
    assert not (out / "claim.txt").exists()


def test_bench_excludes_the_configured_burn_in(tmp_path, monkeypatch):
    # bench.csv's late macro accuracy skips rollout.burn_in_steps steps
    path = write_config(tmp_path)
    base = ["--config", str(path), "--seed", "6", "--set", "train.epochs_pretrain=0",
            "--set", "train.epochs_finetune=0"]
    assert main(base + ["synth"]) == 0
    assert main(base + ["train", "--variant", "h_att"]) == 0
    seen = []
    evaluate = cli.bench_mod.evaluate
    monkeypatch.setattr(cli.bench_mod, "evaluate",
                        lambda *a, **kw: seen.append(kw["burn_in"]) or evaluate(*a, **kw))
    assert main(base + ["bench"]) == 0
    assert main(base + ["--set", "rollout.burn_in_steps=7", "bench"]) == 0
    assert seen == [10, 7]


@pytest.mark.parametrize("heads", [2, 6])
def test_csv_columns_follow_lookahead_steps(tmp_path, monkeypatch, heads):
    # one acc_delta column per look-ahead head in bench.csv and the
    # training reports, so macro_acc stays under its own name
    path = write_config(tmp_path)
    seen = []
    evaluate = cli.bench_mod.evaluate
    monkeypatch.setattr(cli.bench_mod, "evaluate",
                        lambda *a, **kw: seen.append(evaluate(*a, **kw)) or seen[-1])
    assert main(["--config", str(path), "--seed", "3", "--set", f"court.lookahead_steps={heads}",
                 "--set", "train.epochs_finetune=0", "repro", "--variants", "cnn", "h_att"]) == 0
    out = tmp_path / "out"
    tables = [out / "reports" / "cnn.csv", out / "reports" / "h_att.csv", out / "bench.csv"]
    rows = []
    for table in tables:
        header, *lines = table.read_text().splitlines()
        names = header.split(",")
        assert [n for n in names if n.startswith("acc_delta")] == \
            [f"acc_delta{k}" for k in range(heads)]
        for line in lines:
            fields = line.split(",")
            assert len(fields) == len(names), (table.name, line)
            rows.append(dict(zip(names, fields)))
    # every evaluation, in order: one per training epoch, then one per
    # benchmarked variant
    assert len(rows) == len(seen) == 5
    for row, metrics in zip(rows, seen):
        macro = "" if metrics.macro_acc is None else f"{metrics.macro_acc:.6f}"
        assert row["macro_acc"] == macro
    assert rows[-1]["macro_acc"] != ""  # h_att has a macro head


def test_checkpoint_bytes_independent_of_blas_threads(tmp_path):
    path = write_config(tmp_path)
    assert main(["--config", str(path), "--seed", "3", "synth"]) == 0
    src = str(REPO / "src")
    ckpt = tmp_path / "out" / "checkpoints" / "h_att.ckpt"
    saved = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run(
            [sys.executable, "-m", "hoopnet.cli", "--config", str(path), "--seed", "3",
             "train", "--variant", "h_att"],
            env=env, check=True, capture_output=True,
        )
        saved.append(ckpt.read_bytes())
        ckpt.unlink()
    assert saved[0] == saved[1]
