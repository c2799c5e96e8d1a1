import json
import math
import re
from bisect import bisect_left
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hoopnet import data as data_mod
from hoopnet.config import load_run_config
from hoopnet.court import CourtSpec
from hoopnet.data import (
    SEQUENCE_STEPS,
    Possession,
    RawTrack,
    SynthConfig,
    ingest,
    possession_to_json,
    save_possessions,
    split,
    synthesize,
    synthesize_with_goals,
    window,
)
from hoopnet.errors import DataError
from hoopnet.labels import label_sequence, labels_to_json
from hoopnet.util import rng_for

from _oracles import (
    cell_of,
    oracle_channelize,
    oracle_labels_to_json,
    oracle_possession_to_json,
    oracle_track_checks,
    oracle_walk,
)

SPEC = CourtSpec()


def _track(agent_id, role, points):
    return RawTrack(agent_id, role, np.asarray(points, dtype=np.float64))


def make_possession(pid="p0", length=220, offset=0.0):
    rng = np.random.default_rng(17)
    tracks = [_track("ball", "ball", rng.uniform(5, 40, (length, 2)) * 0 + 25.0 + offset)]
    for j in range(5):
        base = np.array([10.0 + 5 * j, 20.0 + offset])
        walk = np.cumsum(rng.uniform(-0.2, 0.2, (length, 2)), axis=0)
        role = "focal" if j == 0 else "teammate"
        tracks.append(_track(f"off{j}", role, base + walk))
    for j in range(5):
        base = np.array([12.0 + 5 * j, 30.0])
        walk = np.cumsum(rng.uniform(-0.2, 0.2, (length, 2)), axis=0)
        tracks.append(_track(f"def{j}", "opponent", base + walk))
    return Possession(pid, tuple(tracks))


def test_ingest_valid_line(tmp_path):
    path = tmp_path / "poss.jsonl"
    save_possessions([make_possession(length=120)], path)
    loaded = ingest(path, SPEC)
    assert len(loaded) == 1
    assert loaded[0].length_frames == 120
    assert len(loaded[0].tracks) == 11


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert ingest(path, SPEC) == []


def test_ingest_missing_ball(tmp_path):
    p = make_possession(length=120)
    stripped = Possession(p.id, tuple(t for t in p.tracks if t.role != "ball"))
    path = tmp_path / "nob.jsonl"
    path.write_text(possession_to_json(stripped) + "\n")
    with pytest.raises(DataError, match="missing ball"):
        ingest(path, SPEC)


def test_ingest_bad_json_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(possession_to_json(make_possession(length=120)) + "\n{oops\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))} line 2: invalid JSON"):
        ingest(path, SPEC)


@pytest.mark.parametrize("tracks", [None, 7])
def test_ingest_tracks_not_a_list_reports_line(tmp_path, tracks):
    path = tmp_path / "tracks.jsonl"
    bad = json.dumps({"id": "p1", "tracks": tracks})
    path.write_text(possession_to_json(make_possession(length=120)) + "\n" + bad + "\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))} line 2: 'tracks' must be a list"):
        ingest(path, SPEC)


def test_ingest_duplicate_agent_id_reports_line(tmp_path):
    # two 'off0' tracks would window into inputs of two shapes and collide
    # in the label sidecar's keys
    p = make_possession(length=120)
    dup = Possession(p.id, tuple(replace(t, agent_id="off0") if t.agent_id == "off1" else t
                                 for t in p.tracks))
    path = tmp_path / "dup.jsonl"
    path.write_text(possession_to_json(p) + "\n" + possession_to_json(dup) + "\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))} line 2: duplicate agent id 'off0'$"):
        ingest(path, SPEC)


def test_ingest_duplicate_possession_id_reports_line(tmp_path):
    # windows are seeded, the split is made and label keys are built by
    # possession id, so two possessions with one id would collide
    path = tmp_path / "dup.jsonl"
    path.write_text(possession_to_json(make_possession("p1", length=120)) + "\n"
                    + possession_to_json(make_possession("p1", length=130)) + "\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))} line 2: duplicate possession id 'p1'$"):
        ingest(path, SPEC)


def test_ingest_geometry_error(tmp_path):
    p = make_possession(length=120, offset=500.0)
    path = tmp_path / "far.jsonl"
    path.write_text(possession_to_json(p) + "\n")
    with pytest.raises(DataError, match="leaves the court"):
        ingest(path, SPEC, bounds_tolerance_ft=3.0)


def test_validation_names_the_first_bad_track_like_the_track_loop():
    # tracks that leave the court, jump a court diagonal in one frame, or
    # both, at random frames of random tracks: the same DataError text as
    # checking one track at a time
    w, h = SPEC.width_ft, SPEC.height_ft
    rng = np.random.default_rng(5)
    kinds = {"off": 0, "jump": 0, "both": 0}
    for _ in range(60):
        p = make_possession(length=int(rng.integers(2, 40)))
        points = [t.points.copy() for t in p.tracks]
        for k in rng.choice(len(points), size=int(rng.integers(1, 4)), replace=False):
            kind = rng.choice(list(kinds))
            kinds[kind] += 1
            f = int(rng.integers(0, len(points[k]) - 1))
            if kind in ("off", "both"):
                points[k][int(rng.integers(0, len(points[k])))] = (w + 3.5, h / 2)
            if kind in ("jump", "both"):
                points[k][f:f + 2] = (-2.0, -2.0), (w + 2.0, h + 2.0)
        bad = Possession(p.id, tuple(RawTrack(t.agent_id, t.role, q) for t, q in zip(p.tracks, points)))
        messages = []
        for check in (data_mod._validate_possession, oracle_track_checks):
            with pytest.raises(DataError) as exc:
                check(bad, SPEC, 3.0, "line 9")
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
    assert min(kinds.values()) > 0
    data_mod._validate_possession(make_possession(length=40), SPEC, 3.0, "line 9")


def test_round_trip_lossless(tmp_path):
    p = make_possession(length=211)
    path = tmp_path / "rt.jsonl"
    save_possessions([p], path)
    again = ingest(path, SPEC)[0]
    assert again.id == p.id
    for a, b in zip(again.tracks, p.tracks):
        assert a.agent_id == b.agent_id and a.role == b.role
        np.testing.assert_array_equal(a.points, b.points)


def test_window_counts():
    p = make_possession(length=200)
    seqs = window(p, SPEC, rng_for(0, "w"), windows_per_player=1)
    assert len(seqs) == 5  # one per offensive player
    assert all(s.steps == 50 for s in seqs)
    assert all(s.raw_frame_positions.shape == (200, 2) for s in seqs)
    assert {s.focal_agent for s in seqs} == {f"off{j}" for j in range(5)}


def test_window_too_short():
    p = make_possession(length=199)
    assert window(p, SPEC, rng_for(0, "w")) == []


def test_window_start_range():
    p = make_possession(length=240)
    starts = set()
    for trial in range(200):
        for s in window(p, SPEC, rng_for(trial, "w"), windows_per_player=1):
            starts.add(s.t0)
    assert min(starts) >= 0 and max(starts) <= 40


def test_window_subsampling_alignment():
    p = make_possession(length=260)
    for s in window(p, SPEC, rng_for(3, "w"), windows_per_player=2):
        for k in range(s.steps):
            np.testing.assert_array_equal(s.raw_positions[k], s.raw_frame_positions[4 * k])


def test_channelize_counts():
    p = make_possession(length=200)
    seq = window(p, SPEC, rng_for(0, "w"))[0]
    grid = oracle_channelize(seq, SPEC)
    assert grid.shape == (50, 4, 45, 50)
    sums = grid.sum(axis=(2, 3))
    np.testing.assert_array_equal(sums, np.tile([1, 1, 4, 5], (50, 1)))
    # total mass across channels is all 11 agents
    assert grid.sum() == 50 * 11


def test_channelize_coincident_agents_keep_mass():
    length = 200
    pts = np.full((length, 2), 20.0)
    tracks = [_track("ball", "ball", pts)]
    tracks += [_track(f"off{j}", "teammate" if j else "focal", pts.copy()) for j in range(5)]
    tracks += [_track(f"def{j}", "opponent", pts.copy()) for j in range(5)]
    p = Possession("stack", tuple(tracks))
    seq = window(p, SPEC, rng_for(0, "w"))[0]
    grid = oracle_channelize(seq, SPEC)
    col, row = cell_of(SPEC, 20.0, 20.0)
    assert grid[0, 2, row, col] == 4.0  # occupancy is a count
    assert grid[0, 0, row, col] == 1.0
    assert grid[0, 1, row, col] == 1.0


def test_split_examples():
    seqs = []
    for i in range(10):
        p = make_possession(pid=f"p{i}", length=200)
        seqs.extend(window(p, SPEC, rng_for(i, "w")))
    train, holdout = split(seqs, 0.1, seed=5)
    holdout_ids = {s.possession_id for s in holdout}
    train_ids = {s.possession_id for s in train}
    assert len(holdout_ids) == 1
    assert holdout_ids.isdisjoint(train_ids)
    assert len(train) + len(holdout) == len(seqs)
    # deterministic
    train2, holdout2 = split(seqs, 0.1, seed=5)
    assert [s.t0 for s in holdout2] == [s.t0 for s in holdout]


def test_split_degenerate():
    seqs = window(make_possession(length=200), SPEC, rng_for(0, "w"))
    with pytest.raises(DataError, match="degenerate"):
        split(seqs, 0.2, seed=1)  # single possession cannot split


def test_synthesize_deterministic_bytes(tmp_path):
    cfg = SynthConfig(n_possessions=3, seed=11)
    a = "\n".join(possession_to_json(p) for p in synthesize(cfg, SPEC))
    b = "\n".join(possession_to_json(p) for p in synthesize(cfg, SPEC))
    assert a == b


def test_synthesize_validates():
    # a bad count is refused when the config is built
    with pytest.raises(ValueError, match="n_possessions"):
        SynthConfig(n_possessions=-1)
    # a velocity grid of radius 1 ft/frame, below the walk's top speed: the
    # court comes with the call, so synthesize checks the pair
    with pytest.raises(ValueError, match=f"walk speeds reach {data_mod.SPEED_MAX_FT_PER_FRAME} ft/frame"):
        synthesize(SynthConfig(n_possessions=2, seed=1), CourtSpec(velocity_radius_cells=1))


def test_synthesize_shape_and_reingest(tmp_path):
    cfg = SynthConfig(n_possessions=2, seed=4)
    possessions = synthesize(cfg, SPEC)
    assert len(possessions) == 2
    for p in possessions:
        assert len(p.tracks) == 11
        assert 200 <= p.length_frames <= 300
    path = tmp_path / "synth.jsonl"
    save_possessions(possessions, path)
    again = ingest(path, SPEC)
    assert [p.id for p in again] == [p.id for p in possessions]
    for pa, pb in zip(again, possessions):
        for ta, tb in zip(pa.tracks, pb.tracks):
            np.testing.assert_array_equal(ta.points, tb.points)


# instant turning and no noise
STRAIGHT = dict(CURVATURE=1e9, NOISE_STD_FT=0.0)


def test_synthesize_straight_line_limit(monkeypatch):
    # between dwells the track is a straight line pointing at the goal box
    for name, value in dict(STRAIGHT, SPEED_MIN_FT_PER_FRAME=0.9, SPEED_MAX_FT_PER_FRAME=1.1).items():
        monkeypatch.setattr(data_mod, name, value)
    possessions, goals = synthesize_with_goals(SynthConfig(n_possessions=1, seed=9), SPEC)
    p = possessions[0]
    for track in p.tracks:
        if track.role == "ball":
            continue
        dwells = goals[(p.id, track.agent_id)]
        prev_end = 0
        for start, end, box, reached in dwells:
            leg = track.points[prev_end:start + 1]
            if len(leg) >= 3:
                v = np.diff(leg, axis=0)
                v = v / np.linalg.norm(v, axis=1, keepdims=True)
                # all unit headings in the leg agree (straight line)
                assert np.allclose(v, v[0], atol=1e-9)
            if not reached:  # the possession ended on this leg
                continue
            # the dwell point lies inside the goal box (not necessarily at
            # its center: dwell spots are jittered within the box)
            assert SPEC.boxes_from_positions(track.points[end][None])[0] == box
            np.testing.assert_array_equal(track.points[start], track.points[end])
            prev_end = end + 1


REPO = Path(__file__).resolve().parent.parent


def _run_config(name: str, **synth):
    cfg = load_run_config((REPO / "configs" / f"{name}.cfg").read_text())
    return replace(cfg, synth=replace(cfg.synth, **synth))


# (config, synth keys, walk constants) of each world
SYNTH_CASES = {
    "desk": ("desk", dict(n_possessions=3), {}),
    "quick": ("quick", {}, {}),
    "straight": ("desk", dict(n_possessions=3), STRAIGHT),
}


def _label_rows(cfg, possessions, seed, to_json):
    labels_cfg = replace(cfg.labels, seed=seed)
    rows = []
    for p in possessions:
        rng = rng_for(seed, "window", p.id)
        for seq in window(p, cfg.court, rng, cfg.data.windows_per_player):
            rows.append(to_json(seq, label_sequence(seq, cfg.court, labels_cfg)))
    return rows


@pytest.mark.parametrize("seed", [1, 7, 2026])
@pytest.mark.parametrize("case", sorted(SYNTH_CASES))
def test_synthesis_and_writers_match_numpy_oracles(case, seed, monkeypatch):
    # the scalar walk and the .tolist() writers give the bytes of the
    # per-frame numpy walk and the per-coordinate float() writers
    name, synth, walk = SYNTH_CASES[case]
    for constant, value in walk.items():
        monkeypatch.setattr(data_mod, constant, value)
    cfg = _run_config(name, **synth, seed=seed)
    possessions, goals = synthesize_with_goals(cfg.synth, cfg.court)
    with monkeypatch.context() as m:
        m.setattr(data_mod, "_walk", oracle_walk)
        expected, expected_goals = synthesize_with_goals(cfg.synth, cfg.court)
    assert [possession_to_json(p) for p in possessions] == [
        oracle_possession_to_json(p) for p in expected
    ]
    assert _label_rows(cfg, possessions, seed, labels_to_json) == _label_rows(
        cfg, expected, seed, oracle_labels_to_json
    )
    # the reached goals are the oracle's log; only a final move may be unfinished
    assert goals.keys() == expected_goals.keys()
    for key, log in goals.items():
        assert [entry[:3] for entry in log if entry[3]] == expected_goals[key]
        assert all(reached for *_, reached in log[:-1])


@pytest.mark.parametrize("seed", [3, 5, 8])
def test_every_window_step_has_a_logged_goal(seed):
    cfg = _run_config("desk", n_possessions=6, seed=seed)
    possessions, goals = synthesize_with_goals(cfg.synth, cfg.court)
    raw_len = SEQUENCE_STEPS * cfg.court.subsample_stride
    unfinished = 0
    steps = 0
    for p in possessions:
        for seq in window(p, cfg.court, rng_for(seed, "window", p.id), cfg.data.windows_per_player):
            log = goals[(p.id, seq.focal_agent)]
            ends = [end for _, end, _, _ in log]
            assert ends == sorted(ends) and ends[-1] == p.length_frames - 1
            focal = seq.raw_frame_positions
            for k in range(0, raw_len, cfg.court.subsample_stride):
                t = seq.t0 + k
                i = bisect_left(ends, t)  # the goal the agent is at or heading to
                assert i < len(log), (p.id, seq.focal_agent, t)
                start, _, box, reached = log[i]
                unfinished += not reached
                steps += 1
                if start <= t:  # dwelling: the agent stands in its goal box
                    assert cfg.court.boxes_from_positions(focal[k]) == box
    # the unfinished final moves are a real share of the steps
    assert steps >= 3000 and unfinished > steps // 10


def test_synthesis_norm_calls_do_not_grow_with_length(monkeypatch):
    # the walk must not return to a numpy distance per frame
    calls = []
    norm = np.linalg.norm

    def counting_norm(*args, **kwargs):
        calls.append(None)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    counts = {}
    for stride in (1, 6):  # 50-300 raw frames per possession, then 300
        calls.clear()
        possessions = synthesize(SynthConfig(n_possessions=4, seed=3), CourtSpec(subsample_stride=stride))
        counts[sum(p.length_frames for p in possessions)] = len(calls)
    (short, short_calls), (long, long_calls) = sorted(counts.items())
    assert long >= 1.5 * short
    assert long_calls == short_calls
