"""Task generators: shapes, corruption semantics, pair purity, dataset files."""

import numpy as np
import pytest
from scipy.linalg import orthogonal_procrustes

from micas.errors import FormatError
from micas.geometry import PointCloud
from micas.tasks import (
    DENOISE_OUTLIER_FRACTION,
    PART_ANCHORS,
    PARTSEG_PARTS,
    RECONSTRUCTION_RADIUS,
    REGISTRATION_MAX_ANGLE_DEG,
    REGISTRATION_MAX_SHIFT_PER_LEVEL,
    SHAPE_KINDS,
    TASKS,
    PromptBank,
    TaskPair,
    collapse_region,
    decode_part_labels,
    encode_part_targets,
    gen_pair,
    gen_shape,
    load_dataset,
    save_dataset,
)


# ---- shapes ----

def test_shapes_fill_unit_cube():
    rng = np.random.default_rng(0)
    for kind in SHAPE_KINDS:
        cloud = gen_shape(kind, 200, rng)
        assert cloud.points.shape == (200, 3)
        assert cloud.points.min() >= -1e-12 and cloud.points.max() <= 1.0 + 1e-12
        assert cloud.labels is None


def test_sphere_maps_to_exact_half_radius():
    cloud = gen_shape("sphere", 500, np.random.default_rng(1))
    radii = np.linalg.norm(cloud.points - 0.5, axis=1)
    assert np.abs(radii - 0.5).max() <= 1e-9


def test_gen_shape_argument_checks():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        gen_shape("pyramid", 10, rng)
    with pytest.raises(ValueError):
        gen_shape("sphere", 0, rng)


def test_composite_part_counts_and_labels():
    rng = np.random.default_rng(3)
    cloud = gen_shape("composite", 103, rng, parts=3)
    assert cloud.points.shape == (103, 3)
    assert cloud.points.min() >= -1e-12 and cloud.points.max() <= 1.0 + 1e-12
    counts = np.bincount(cloud.labels, minlength=3)
    assert np.array_equal(counts, [35, 34, 34])  # n//parts plus one for the remainder
    assert set(np.unique(cloud.labels)) == {0, 1, 2}
    with pytest.raises(ValueError):
        gen_shape("composite", 10, rng, parts=1)
    with pytest.raises(ValueError):
        gen_shape("composite", 10, rng, parts=5)


# ---- reconstruction primitive ----

def test_collapse_region_geometry():
    rng = np.random.default_rng(4)
    cloud = PointCloud(rng.uniform(size=(80, 3)))
    radius = 0.25
    out = collapse_region(cloud, 7, radius)
    pivot = cloud.points[7]
    dist = np.linalg.norm(cloud.points - pivot, axis=1)
    inside = (dist > 0.0) & (dist < radius)
    assert inside.any()
    moved = np.linalg.norm(out.points[inside] - pivot, axis=1)
    assert np.abs(moved - radius).max() <= 1e-12
    assert np.array_equal(out.points[~inside], cloud.points[~inside])
    assert np.array_equal(out.points[7], pivot)
    # direction from the pivot is preserved
    unit_before = (cloud.points[inside] - pivot) / dist[inside, None]
    unit_after = (out.points[inside] - pivot) / radius
    assert np.abs(unit_before - unit_after).max() <= 1e-12


def test_collapse_region_argument_checks():
    cloud = PointCloud(np.random.default_rng(5).uniform(size=(10, 3)))
    with pytest.raises(ValueError):
        collapse_region(cloud, 10, 0.1)
    with pytest.raises(ValueError):
        collapse_region(cloud, -1, 0.1)
    with pytest.raises(ValueError):
        collapse_region(cloud, 0, 0.0)


# ---- part labels ----

def test_part_anchor_round_trip():
    labels = np.array([0, 3, 1, 2, 2, 0])
    targets = encode_part_targets(labels)
    assert np.array_equal(targets, PART_ANCHORS[labels])
    assert np.array_equal(decode_part_labels(targets, 4), labels)
    with pytest.raises(ValueError):
        encode_part_targets([4])
    with pytest.raises(ValueError):
        encode_part_targets([-1])


def test_decode_nearest_anchor_with_noise_and_ties():
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 3, size=50)
    targets = encode_part_targets(labels)
    edge = np.linalg.norm(PART_ANCHORS[0] - PART_ANCHORS[1])
    noisy = targets + rng.normal(0.0, edge / 10.0, size=targets.shape)
    correct = (decode_part_labels(noisy, 3) == labels).mean()
    assert correct > 0.9
    midpoint = (PART_ANCHORS[0] + PART_ANCHORS[1]) / 2.0  # tie resolves to the lowest index
    assert decode_part_labels(midpoint[None, :], 2)[0] == 0
    with pytest.raises(ValueError):
        decode_part_labels(targets, 5)
    with pytest.raises(ValueError):
        decode_part_labels(targets, 0)


# ---- pair generation ----

def test_gen_pair_is_pure():
    for task in TASKS:
        a = gen_pair(task, 3, 40, 77)
        b = gen_pair(task, 3, 40, 77)
        for ca, cb in ((a.input, b.input), (a.target, b.target)):
            assert np.array_equal(ca.points, cb.points)
            assert (ca.labels is None) == (cb.labels is None)
            if ca.labels is not None:
                assert np.array_equal(ca.labels, cb.labels)
            assert (ca.noise_mask is None) == (cb.noise_mask is None)
            if ca.noise_mask is not None:
                assert np.array_equal(ca.noise_mask, cb.noise_mask)


def test_gen_pair_argument_checks():
    with pytest.raises(ValueError):
        gen_pair("upsampling", 1, 16, 0)
    with pytest.raises(ValueError):
        gen_pair("denoising", 0, 16, 0)
    with pytest.raises(ValueError):
        gen_pair("denoising", 6, 16, 0)


def test_denoising_flag_counts_per_level():
    for level, frac in DENOISE_OUTLIER_FRACTION.items():
        pair = gen_pair("denoising", level, 100, level)
        assert pair.input.noise_mask is not None
        assert pair.input.noise_mask.sum() == round(frac * 100)
        inliers = ~pair.input.noise_mask
        drift = np.linalg.norm(pair.input.points[inliers] - pair.target.points[inliers], axis=1)
        assert drift.max() < 0.2  # jitter, not outliers
        assert pair.target.noise_mask is None


def test_registration_target_is_exact_rigid_image():
    for seed in (0, 5, 9):
        pair = gen_pair("registration", 2, 60, seed)
        src, dst = pair.input.points, pair.target.points
        mu_s, mu_d = src.mean(axis=0), dst.mean(axis=0)
        m, _ = orthogonal_procrustes(src - mu_s, dst - mu_d)
        rot = m.T
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-9)
        residual = np.abs((src - mu_s) @ m + mu_d - dst).max()
        assert residual <= 1e-9
        angle = np.degrees(np.arccos(np.clip((np.trace(rot) - 1.0) / 2.0, -1.0, 1.0)))
        assert angle <= REGISTRATION_MAX_ANGLE_DEG[2] + 1e-9
        center = np.full(3, 0.5)
        shift = mu_d - center - rot @ (mu_s - center)
        assert np.linalg.norm(shift) <= REGISTRATION_MAX_SHIFT_PER_LEVEL * 2 + 1e-9


def test_reconstruction_collapse_matches_target():
    pair = gen_pair("reconstruction", 4, 64, 11)
    radius = RECONSTRUCTION_RADIUS[4]
    changed = np.any(pair.input.points != pair.target.points, axis=1)
    assert changed.any()
    unchanged_rows = np.flatnonzero(~changed)
    hits = 0
    for row in unchanged_rows:  # exactly one pivot explains every moved point
        pivot = pair.target.points[row]
        dist = np.linalg.norm(pair.input.points[changed] - pivot, axis=1)
        if np.abs(dist - radius).max() <= 1e-9:
            hits += 1
            was = np.linalg.norm(pair.target.points[changed] - pivot, axis=1)
            assert was.max() < radius
    assert hits == 1


def test_partseg_pair_targets_are_anchors():
    for level in (1, 3, 5):
        pair = gen_pair("partseg", level, 48, level + 20)
        parts = PARTSEG_PARTS[level]
        assert pair.input.labels is not None
        assert np.array_equal(pair.input.labels, pair.target.labels)
        assert len(np.unique(pair.input.labels)) == parts
        assert np.array_equal(pair.target.points, PART_ANCHORS[pair.input.labels])


def test_difficulty_tables_are_monotone():
    for table in (DENOISE_OUTLIER_FRACTION, RECONSTRUCTION_RADIUS, REGISTRATION_MAX_ANGLE_DEG):
        values = [table[level] for level in range(1, 6)]
        assert values == sorted(values) and values[0] < values[-1]
    assert [PARTSEG_PARTS[i] for i in range(1, 6)] == sorted(PARTSEG_PARTS[i] for i in range(1, 6))


def test_task_pair_validation():
    good = gen_pair("denoising", 1, 8, 0)
    with pytest.raises(ValueError):
        TaskPair(good.input, PointCloud(np.zeros((9, 3))), "denoising", 1, 0)
    with pytest.raises(ValueError):
        TaskPair(good.input, good.target, "denoising", 0, 0)
    with pytest.raises(ValueError):
        TaskPair(good.input, good.target, "denoising", 1, -1)


# ---- dataset files ----

def test_dataset_round_trip(tmp_path):
    pairs = [gen_pair(task, 1 + i % 5, 24, 50 + i) for i, task in enumerate(TASKS)]
    path = tmp_path / "pairs.micasds"
    save_dataset(pairs, path)
    back = load_dataset(path)
    assert len(back) == len(pairs)
    for orig, copy in zip(pairs, back):
        assert (copy.task, copy.level, copy.seed) == (orig.task, orig.level, orig.seed)
        for co, cc in ((orig.input, copy.input), (orig.target, copy.target)):
            assert np.array_equal(co.points, cc.points)
            if co.labels is not None:
                assert np.array_equal(co.labels, cc.labels)
            if co.noise_mask is not None:
                assert np.array_equal(co.noise_mask, cc.noise_mask)
    save_dataset([], path)
    assert load_dataset(path) == []


def test_dataset_format_errors(tmp_path):
    path = tmp_path / "pairs.micasds"
    save_dataset([gen_pair("denoising", 2, 16, 3)], path)
    blob = path.read_bytes()
    (tmp_path / "magic").write_bytes(b"NOTADATA" + blob[8:])
    with pytest.raises(FormatError):
        load_dataset(tmp_path / "magic")
    (tmp_path / "short").write_bytes(blob[:20])
    with pytest.raises(FormatError):
        load_dataset(tmp_path / "short")
    (tmp_path / "trailing").write_bytes(blob + b"\x00\x01")
    with pytest.raises(FormatError):
        load_dataset(tmp_path / "trailing")
    bad_task = bytearray(blob)
    bad_task[12] = 200  # first record's task id
    (tmp_path / "task").write_bytes(bytes(bad_task))
    with pytest.raises(FormatError):
        load_dataset(tmp_path / "task")
    # corrupt second record: a level byte out of [1, 5], or an input and a
    # target of different point counts
    second = len(blob)  # the one-record file ends where a second record would start
    save_dataset([gen_pair("denoising", 2, 16, 3), gen_pair("partseg", 1, 16, 4)], path)
    blob = path.read_bytes()
    assert blob[second + 1] == 1
    for level in (0, 9):
        bad_level = bytearray(blob)
        bad_level[second + 1] = level
        (tmp_path / "level").write_bytes(bytes(bad_level))
        with pytest.raises(FormatError, match="record 1"):
            load_dataset(tmp_path / "level")
    short_target = gen_pair("partseg", 1, 16, 4)
    short_target.target.points = short_target.target.points[:15]
    short_target.target.labels = short_target.target.labels[:15]
    save_dataset([gen_pair("denoising", 2, 16, 3), short_target], tmp_path / "counts")
    with pytest.raises(FormatError, match="record 1"):
        load_dataset(tmp_path / "counts")


def test_dataset_refuses_a_noise_mask_byte_other_than_0_or_1(tmp_path):
    pair = gen_pair("denoising", 2, 16, 3)
    path = tmp_path / "pairs.micasds"
    save_dataset([pair], path)
    blob = bytearray(path.read_bytes())
    mask_start = 12 + 10 + 14 + 16 * 24  # file header, record header, cloud header, points
    assert blob[mask_start + 3] == pair.input.noise_mask[3]
    blob[mask_start + 3] = 2
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="record 0: noise-mask byte of point 3"):
        load_dataset(path)


def test_prompt_bank_grouping_and_errors():
    pairs = [gen_pair("denoising", 1, 8, i) for i in range(3)]
    pairs += [gen_pair("partseg", 2, 8, i) for i in range(2)]
    bank = PromptBank.from_pairs(pairs)
    assert len(bank.for_task("denoising")) == 3
    assert len(bank.for_task("partseg")) == 2
    with pytest.raises(ValueError):
        bank.for_task("registration")
    with pytest.raises(ValueError):
        PromptBank().for_task("denoising")
