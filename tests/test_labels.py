import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hoopnet import data as data_mod
from hoopnet import labels as labels_mod
from hoopnet.court import CourtSpec
from hoopnet.data import SynthConfig, synthesize_with_goals, window
from hoopnet.labels import (
    MAGNITUDE_MAX,
    MAGNITUDE_MIN,
    STATIONARY_SPEED_FT_PER_RAW_FRAME,
    SegmentationConfig,
    attention_labels,
    attention_targets,
    find_stationary,
    label_sequence,
    macro_labels,
    micro_labels,
)
from hoopnet.util import rng_for

from _oracles import (
    action_index_of,
    brute_macro_labels,
    brute_micro_labels,
    displacements_from_action_indices,
    brute_stationary,
    make_track,
    oracle_merge_short_segments,
)

SPEC = CourtSpec()
CFG = SegmentationConfig(seed=101)


# micro labels


def test_micro_constant_position():
    pts = np.full((200, 2), 20.0)
    labels, padded = micro_labels(pts, SPEC)
    assert labels.shape == (50, 4)
    assert (labels == SPEC.stationary_action_index).all()
    assert padded.sum() == 1 and padded[49, 3]


def test_micro_uniform_motion():
    pts = make_track([(1.0, 0.0, 200)], start=(1.0, 20.0))[:200]
    labels, _ = micro_labels(pts, SPEC)
    assert (labels == action_index_of(SPEC, 1.0, 0.0)).all()


def test_micro_matches_brute_force_on_wander():
    rng = np.random.default_rng(5)
    pts = np.cumsum(rng.uniform(-0.6, 0.6, (200, 2)), axis=0) + 25.0
    labels, padded = micro_labels(pts, SPEC)
    expect, expect_pad = brute_micro_labels(pts, SPEC)
    np.testing.assert_array_equal(labels, expect)
    np.testing.assert_array_equal(padded, expect_pad)


def test_micro_lookahead_consistency_bound():
    # summed decoded look-ahead displacements track the true 4-frame motion
    rng = np.random.default_rng(6)
    pts = np.cumsum(rng.uniform(-0.4, 0.4, (200, 2)), axis=0) + 25.0
    labels, padded = micro_labels(pts, SPEC)
    for k in range(49):
        if padded[k].any():
            continue
        disp = displacements_from_action_indices(SPEC, labels[k]).sum(axis=0)
        true = pts[4 * k + 4] - pts[4 * k]
        assert np.all(np.abs(disp - true) <= 4 * 0.5 * SPEC.micro_cell_ft + 1e-9)


# stationary points


def test_stationary_fully_still():
    pts = np.full((200, 2), 10.0)
    points = find_stationary(pts)
    assert points.tolist() == [99, 199]


def test_stationary_always_fast():
    pts = make_track([(1.0, 0.0, 40)], start=(1.0, 1.0))
    points = find_stationary(pts)
    assert points.tolist() == [len(pts) - 1]


def test_stationary_two_dwells():
    track = make_track(
        [(0.0, 0.0, 30), (1.0, 0.0, 20), (0.0, 0.0, 30), (1.0, 0.0, 10)],
        start=(2.0, 10.0),
    )
    points = find_stationary(track)
    expect = brute_stationary(track, STATIONARY_SPEED_FT_PER_RAW_FRAME)
    assert points.tolist() == expect
    assert len(points) == 3  # two dwell midpoints plus the final frame


def test_stationary_matches_brute_force_random():
    rng = np.random.default_rng(7)
    segs = []
    for _ in range(6):
        if rng.random() < 0.5:
            segs.append((0.0, 0.0, int(rng.integers(5, 40))))
        else:
            segs.append((rng.uniform(0.3, 1.0), rng.uniform(-0.5, 0.5), int(rng.integers(5, 40))))
    track = make_track(segs, start=(5.0, 20.0))
    assert find_stationary(track).tolist() == brute_stationary(
        track, STATIONARY_SPEED_FT_PER_RAW_FRAME
    )


# macro labels


def test_macro_single_dwell_labels_whole_window():
    target = SPEC.macro_box_centers(42)
    pts = np.tile(target, (200, 1))
    sps = find_stationary(pts)
    ids, target_xy = macro_labels(pts, sps, SPEC, CFG)
    assert (ids == 42).all()
    np.testing.assert_allclose(target_xy, np.tile(target, (50, 1)))


def test_macro_two_goal_switch():
    c10 = SPEC.macro_box_centers(10)
    c42 = SPEC.macro_box_centers(42)
    direction = c42 - c10
    n_travel = int(np.ceil(np.linalg.norm(direction) / 1.0))
    unit = direction / np.linalg.norm(direction)
    # first dwell long enough that its pre-midpoint half survives merging
    track = make_track(
        [(0.0, 0.0, 140), (unit[0], unit[1], n_travel), (0.0, 0.0, 200)],
        start=c10,
    )[:280]
    sps = find_stationary(track)
    ids, _ = macro_labels(track, sps, SPEC, CFG)
    expect = brute_macro_labels(track, list(sps), SPEC, CFG.min_segment_steps)
    np.testing.assert_array_equal(ids, expect)
    distinct = [ids[0]] + [b for a, b in zip(ids, ids[1:]) if a != b]
    assert distinct == [10, 42]
    # switch happens at the first dwell midpoint, before arrival at 42
    switch_step = int(np.argmax(ids == 42))
    assert switch_step * SPEC.subsample_stride <= sps[0] + SPEC.subsample_stride


def test_macro_short_final_segment_absorbed():
    # a brief dwell near the window end followed by a dash into another
    # box leaves a degenerate 2-step final segment, which merges into the
    # previous label
    track = make_track([(0.25, 0.0, 188), (0.0, 0.0, 8), (0.0, 1.0, 3)], start=(1.0, 22.0))
    assert len(track) == 200
    sps = find_stationary(track)
    assert len(sps) == 2  # late dwell midpoint plus final frame
    raw_targets = SPEC.boxes_from_positions(track[sps])
    assert raw_targets[0] != raw_targets[1]
    ids, _ = macro_labels(track, sps, SPEC, CFG)
    assert (ids == raw_targets[0]).all()
    expect = brute_macro_labels(track, list(sps), SPEC, CFG.min_segment_steps)
    np.testing.assert_array_equal(ids, expect)


def test_macro_piecewise_segments_bounded_by_stationary_points():
    rng = np.random.default_rng(9)
    segs = []
    for _ in range(5):
        segs.append((rng.uniform(0.4, 0.9), rng.uniform(-0.4, 0.4), int(rng.integers(20, 50))))
        segs.append((0.0, 0.0, int(rng.integers(40, 80))))
    track = make_track(segs, start=(4.0, 4.0))[:400]
    track = np.clip(track, 0.1, 44.9)
    sps = find_stationary(track)
    ids, _ = macro_labels(track, sps, SPEC, CFG)
    n_segments = 1 + int(np.count_nonzero(np.diff(ids)))
    assert n_segments <= len(sps)


# attention labels


def test_attention_inside_goal_box_is_stationary():
    pos = np.tile(SPEC.macro_box_centers(33), (50, 1))
    ids = np.full(50, 33)
    rng = rng_for(1, "att")
    labels, mags = attention_labels(pos, ids, SPEC, rng)
    assert (labels == SPEC.stationary_action_index).all()
    assert mags.shape == (50,)


def test_attention_due_west_geometry():
    # player sits due west of the goal center: action points east (+x)
    center = SPEC.macro_box_centers(44)
    pos = np.tile(center - np.array([10.0, 0.0]), (50, 1))
    ids = np.full(50, 44)
    labels = attention_targets(pos, ids, magnitudes=np.full(50, 3), spec=SPEC)
    assert (labels == action_index_of(SPEC, 3.0, 0.0)).all()


def test_attention_magnitudes_uniform_chi_square():
    pos = np.tile([2.0, 2.0], (10_000, 1))
    ids = np.full(10_000, 89)
    rng = rng_for(2, "att")
    _, mags = attention_labels(pos, ids, SPEC, rng)
    counts = np.bincount(mags, minlength=MAGNITUDE_MAX + 1)[MAGNITUDE_MIN:]
    assert counts.sum() == 10_000
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_attention_dot_product_nonnegative():
    rng = np.random.default_rng(12)
    pos = rng.uniform(1, 44, (200, 2))
    ids = rng.integers(0, 90, 200)
    labels, _ = attention_labels(pos, ids, SPEC, rng_for(3, "att"))
    centers = SPEC.macro_box_centers(ids)
    outside = SPEC.boxes_from_positions(pos) != ids
    vec = centers - pos
    disp = displacements_from_action_indices(SPEC, labels)
    dots = (vec * disp).sum(axis=1)
    assert (dots[outside] >= -1e-12).all()


# whole-sequence labeling


def _labeled_synthetic(monkeypatch, n=2, dwell=(60, 80), seed=31):
    # a noise-free, instantly turning walk with long dwells
    walk = dict(DWELL_FRAMES_MIN=dwell[0], DWELL_FRAMES_MAX=dwell[1], CURVATURE=1e9,
                NOISE_STD_FT=0.0, SPEED_MIN_FT_PER_FRAME=0.9, SPEED_MAX_FT_PER_FRAME=1.2)
    for name, value in walk.items():
        monkeypatch.setattr(data_mod, name, value)
    return synthesize_with_goals(SynthConfig(n_possessions=n, seed=seed), SPEC)


def test_label_sequence_alignment_and_determinism(monkeypatch):
    possessions, _ = _labeled_synthetic(monkeypatch)
    seq = window(possessions[0], SPEC, rng_for(0, "w"))[0]
    lab1 = label_sequence(seq, SPEC, CFG)
    lab2 = label_sequence(seq, SPEC, CFG)
    for name in ("micro", "macro", "attention", "attention_magnitudes"):
        np.testing.assert_array_equal(getattr(lab1, name), getattr(lab2, name))
    assert lab1.micro.shape == (50, 4)
    assert lab1.macro.shape == (50,)
    assert lab1.attention.shape == (50,)


def test_macro_recovers_generator_waypoints(monkeypatch):
    # noise-free generator with long dwells: the label stream's distinct
    # boxes are exactly the generator's dwell boxes seen inside the window
    possessions, goals = _labeled_synthetic(monkeypatch, n=3, dwell=(60, 90))
    margin = 4 * CFG.min_segment_steps  # a label segment must span this many raw frames
    checked = 0
    asserted = 0
    for p in possessions:
        for seq in window(p, SPEC, rng_for(7, "w"), windows_per_player=1):
            lab = label_sequence(seq, SPEC, CFG)
            dwells = goals[(p.id, seq.focal_agent)]
            w0, w1 = seq.t0, seq.t0 + 200
            # a dwell's box labels the stretch from the previous dwell's
            # midpoint to its own; it survives windowing and merging only
            # if that stretch overlaps the window by >= min_segment_steps
            expected = []
            prev_mid = None
            for start, end, box, reached in dwells:
                if not reached:  # the possession ended on the way there
                    continue
                mid = (start + end) // 2
                seg_start = w0 if prev_mid is None else max(prev_mid, w0)
                if min(mid, w1) - seg_start >= margin and mid < w1 and (
                    not expected or expected[-1] != box
                ):
                    expected.append(box)
                prev_mid = mid
            stream = lab.macro
            distinct = [stream[0]] + [b for a, b in zip(stream, stream[1:]) if a != b]
            # every surviving dwell box appears, in order, within the stream
            it = iter(distinct)
            assert all(box in it for box in expected), (distinct, expected)
            checked += 1
            asserted += len(expected)
    assert checked >= 15 and asserted >= 20


def test_label_oracle_suite_hand_tracks():
    # >= 20 hand-built tracks: dwells, motion, clipping, boundaries
    cases = []
    for speed in (0.3, 0.6, 1.0, 2.0):
        cases.append(make_track([(speed, 0.0, 199)], start=(1.0, 22.0)))
        cases.append(make_track([(0.0, speed * 0.4, 199)], start=(25.0, 2.0)))
    for dwell in (30, 60, 90):
        cases.append(make_track([(0.0, 0.0, dwell), (0.8, 0.3, 199 - dwell)], start=(3.0, 3.0)))
        cases.append(make_track([(0.7, 0.0, 199 - dwell), (0.0, 0.0, dwell)], start=(2.0, 30.0)))
    cases.append(make_track([(9.0, 0.0, 10), (0.0, 0.0, 189)], start=(1.0, 1.0)))  # clipped
    cases.append(make_track([(0.0, -9.0, 10), (0.0, 0.0, 189)], start=(25.0, 44.0)))
    cases.append(np.full((200, 2), 0.0))            # at the origin corner
    cases.append(np.full((200, 2), [49.99, 44.99]))  # far corner
    cases.append(make_track([(0.24, 0.0, 199)], start=(1.0, 10.0)))  # under threshold
    cases.append(make_track([(0.26, 0.0, 199)], start=(1.0, 10.0)))  # over threshold
    for jitter_seed in (1, 2, 3):
        rng = np.random.default_rng(jitter_seed)
        cases.append(np.cumsum(rng.uniform(-0.5, 0.5, (200, 2)), axis=0) + 25.0)
    assert len(cases) >= 20
    for i, pts in enumerate(cases):
        pts = np.clip(pts[:200], 0.0, [SPEC.width_ft - 1e-6, SPEC.height_ft - 1e-6])
        labels, padded = micro_labels(pts, SPEC)
        expect, expect_pad = brute_micro_labels(pts, SPEC)
        np.testing.assert_array_equal(labels, expect, err_msg=f"case {i}")
        np.testing.assert_array_equal(padded, expect_pad, err_msg=f"case {i}")
        sps = find_stationary(pts)
        assert sps.tolist() == brute_stationary(pts, STATIONARY_SPEED_FT_PER_RAW_FRAME)
        ids, _ = macro_labels(pts, sps, SPEC, CFG)
        np.testing.assert_array_equal(
            ids, brute_macro_labels(pts, list(sps), SPEC, CFG.min_segment_steps),
            err_msg=f"case {i}",
        )


@settings(max_examples=400, deadline=None)
@given(
    runs=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 25)), max_size=12),
    min_steps=st.integers(1, 40),
)
def test_merge_short_segments_in_one_pass_matches_the_rescanning_merge(runs, min_steps):
    # runs of box ids, adjacent equal ones joining into longer runs; every
    # step's target distinct, so each merged step shows whose it took
    ids = np.repeat([box for box, _ in runs], [n for _, n in runs]).astype(np.int64)
    target_xy = np.arange(2.0 * len(ids)).reshape(-1, 2)
    got_ids, got_xy = labels_mod._merge_short_segments(ids, target_xy, min_steps)
    want_ids, want_xy = oracle_merge_short_segments(ids, target_xy, min_steps)
    np.testing.assert_array_equal(got_ids, want_ids)
    np.testing.assert_array_equal(got_xy, want_xy)


def test_segmentation_config_validation():
    with pytest.raises(ValueError, match="min_segment_steps"):
        SegmentationConfig(min_segment_steps=0).validate(SPEC)
    with pytest.raises(ValueError, match="velocity_radius_cells"):
        SegmentationConfig().validate(CourtSpec(velocity_radius_cells=MAGNITUDE_MAX - 1))
    SegmentationConfig().validate(CourtSpec(velocity_radius_cells=MAGNITUDE_MAX))
