"""Geometry primitives against brute-force oracles and exact edge cases."""

import numpy as np
import pytest

from micas.errors import FormatError
from micas.geometry import (
    PointCloud,
    RecordReader,
    TABLE_NEIGHBOURS,
    chamfer_distance,
    chamfer_distance_stack,
    chamfer_nearest,
    chamfer_nearest_patches,
    cloud_to_bytes,
    corrupt,
    fps_select,
    knn_patches,
    miou,
    read_cloud,
    rigid_transform,
    rotation_about_axis,
)


def chamfer_brute(a, b):
    """O(|a| |b|) reference: mean squared NN distance, both directions."""
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    return d2.min(axis=1).mean() + d2.min(axis=0).mean()


def random_cloud(rng, max_s=128):
    s = int(rng.integers(1, max_s + 1))
    return rng.uniform(-2.0, 2.0, size=(s, 3))


def test_chamfer_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = random_cloud(rng), random_cloud(rng)
        assert chamfer_distance(a, b) == pytest.approx(chamfer_brute(a, b), abs=1e-9)


def test_chamfer_zero_iff_equal_sets():
    rng = np.random.default_rng(1)
    a = rng.uniform(size=(40, 3))
    assert chamfer_distance(a, a) == 0.0
    assert chamfer_distance(a, a[::-1]) == 0.0  # order does not matter
    assert chamfer_distance(a, a + 0.01) > 0.0


def test_chamfer_scales_quadratically():
    rng = np.random.default_rng(2)
    a, b = rng.uniform(size=(30, 3)), rng.uniform(size=(25, 3))
    assert chamfer_distance(3.0 * a, 3.0 * b) == pytest.approx(9.0 * chamfer_distance(a, b), rel=1e-12)


def test_chamfer_nearest_tie_index_attains_the_minimum_and_repeats():
    # every point three times over, shuffled: most queries tie among three indices
    rng = np.random.default_rng(4)
    base = rng.uniform(size=(40, 3))
    cloud = np.tile(base, (3, 1))[rng.permutation(120)]
    queries = np.vstack([base, rng.uniform(size=(160, 3))])
    d2_ab, idx_ab, d2_ba, idx_ba = chamfer_nearest(queries, cloud)
    brute = ((queries[:, None, :] - cloud[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(brute[np.arange(200), idx_ab], brute.min(axis=1))
    assert np.allclose(d2_ab, brute.min(axis=1), rtol=0.0, atol=1e-12)
    assert np.array_equal(brute[idx_ba, np.arange(120)], brute.min(axis=0))
    again = chamfer_nearest(queries, cloud)
    assert np.array_equal(again[1], idx_ab) and np.array_equal(again[3], idx_ba)


def test_chamfer_rejects_bad_shapes():
    with pytest.raises(ValueError):
        chamfer_distance(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        chamfer_distance(np.zeros((0, 3)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        chamfer_distance(np.array([[np.nan, 0.0, 0.0]]), np.zeros((3, 3)))


def test_chamfer_nearest_patches_matches_per_patch_trees():
    rng = np.random.default_rng(5)
    for p, m, l in ((1, 1, 1), (10, 16, 16), (3, 5, 9), (4, 16, 2)):
        a, b = rng.uniform(-0.2, 1.2, size=(p, m, 3)), rng.uniform(-0.2, 1.2, size=(p, l, 3))
        d2_ab, idx_ab, d2_ba, idx_ba = chamfer_nearest_patches(a, b)
        assert d2_ab.shape == idx_ab.shape == (p, m) and d2_ba.shape == idx_ba.shape == (p, l)
        for i in range(p):
            ref_ab, ref_idx_ab, ref_ba, ref_idx_ba = chamfer_nearest(a[i], b[i])
            assert np.abs(d2_ab[i] - ref_ab).max() <= 1e-15
            assert np.abs(d2_ba[i] - ref_ba).max() <= 1e-15
            assert np.array_equal(idx_ab[i], ref_idx_ab) and np.array_equal(idx_ba[i], ref_idx_ba)


def test_chamfer_nearest_patches_ties_go_to_the_lowest_index():
    # each patch holds every point three times over, shuffled: every query ties
    rng = np.random.default_rng(6)
    base = rng.uniform(size=(4, 6, 3))
    tripled = np.stack([np.tile(patch, (3, 1))[rng.permutation(18)] for patch in base])
    d2_ab, idx_ab, d2_ba, idx_ba = chamfer_nearest_patches(base, tripled)
    d2_self, idx_self, _, _ = chamfer_nearest_patches(tripled, tripled)
    assert (d2_ab == 0.0).all() and (d2_self == 0.0).all()
    for p in range(4):
        brute = ((base[p][:, None, :] - tripled[p][None, :, :]) ** 2).sum(axis=2)
        lowest = np.array([np.flatnonzero(row == row.min())[0] for row in brute])
        assert np.array_equal(idx_ab[p], lowest)
        assert np.array_equal(idx_ba[p], [np.flatnonzero(col == col.min())[0] for col in brute.T])
        same = (tripled[p][:, None, :] == tripled[p][None, :, :]).all(axis=2)
        assert np.array_equal(idx_self[p], same.argmax(axis=1))
        assert ((brute == brute.min(axis=1, keepdims=True)).sum(axis=1) == 3).all()


def test_chamfer_nearest_patches_rejects_bad_shapes():
    good = np.zeros((2, 4, 3))
    for a, b in ((np.zeros((0, 4, 3)), np.zeros((0, 4, 3))),  # no patches
                 (np.zeros((2, 0, 3)), good),  # empty patches
                 (good, np.zeros((2, 0, 3))),
                 (good, np.zeros((3, 4, 3))),  # patch counts differ
                 (np.zeros((4, 3)), np.zeros((4, 3))),  # clouds, not stacks
                 (good, np.full((2, 4, 3), np.nan))):
        with pytest.raises(ValueError):
            chamfer_nearest_patches(a, b)


def test_chamfer_distance_stack_equals_chamfer_distance_per_set():
    rng = np.random.default_rng(6)
    target = rng.uniform(size=(40, 3))
    doubled = np.tile(target[:20], (2, 1))  # every point twice
    stacks = [
        (rng.uniform(size=(5, 30, 3)), target),
        (np.stack([doubled, doubled[::-1], target + 0.01]), target),  # duplicated points
        (np.stack([target, target[rng.permutation(40)]]), doubled),
        (rng.uniform(size=(4, 1, 3)), target),  # single-point sets
        (rng.uniform(size=(3, 25, 3)), target[:1]),  # a single-point shared set
        (np.full((2, 1, 3), 0.5), np.full((1, 3), 0.5)),
    ]
    # Noisy copies of b go through b's neighbour table when there are several: all ties at sigma 0, points
    # the triangle bound leaves to the fallback (mostly, at sigma 2), more than TABLE_NEIGHBOURS copies of
    # one point, and sets with fewer points than the table.
    cloud = rng.uniform(size=(200, 3))
    piled = cloud.copy()
    piled[1 : 3 * TABLE_NEIGHBOURS] = piled[0]
    stacks += [(b + rng.normal(0.0, sigma, size=(draws, *b.shape)), b)
               for b in (cloud, piled, cloud[:TABLE_NEIGHBOURS], cloud[:3])
               for sigma in (0.0, 1e-4, 0.01, 0.03, 0.05, 0.3, 2.0) for draws in (1, 16)]
    for stack, b in stacks:
        values = chamfer_distance_stack(stack, b)
        assert values.shape == (len(stack),)
        for d, pts in enumerate(stack):
            assert values[d] == chamfer_distance(pts, b)


def test_chamfer_distance_stack_rejects_bad_shapes():
    for stack, b in ((np.zeros((0, 4, 3)), np.zeros((4, 3))),  # no sets
                     (np.zeros((2, 0, 3)), np.zeros((4, 3))),  # empty sets
                     (np.zeros((4, 3)), np.zeros((4, 3))),  # a cloud, not a stack
                     (np.zeros((2, 4, 3)), np.zeros((0, 3))),
                     (np.full((2, 4, 3), np.nan), np.zeros((4, 3)))):
        with pytest.raises(ValueError):
            chamfer_distance_stack(stack, b)


def test_fps_each_pick_maximizes_min_distance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = int(rng.integers(2, 65))
        n = int(rng.integers(1, min(s, 16) + 1))
        pts = rng.uniform(size=(s, 3))
        chosen = fps_select(pts, n)
        assert chosen[0] == 0
        assert len(np.unique(chosen)) == n
        for k in range(1, n):
            d2 = np.sum((pts[:, None, :] - pts[chosen[:k]][None, :, :]) ** 2, axis=2)
            min_d2 = d2.min(axis=1)
            best = min_d2.max()
            assert min_d2[chosen[k]] == pytest.approx(best, abs=0.0)
            # lowest index wins among exact maximizers
            assert chosen[k] == np.flatnonzero(min_d2 == best)[0]


def test_fps_full_selection_is_a_permutation():
    rng = np.random.default_rng(4)
    pts = rng.uniform(size=(12, 3))
    assert sorted(fps_select(pts, 12)) == list(range(12))


def test_fps_seed_and_range_errors():
    pts = np.random.default_rng(5).uniform(size=(8, 3))
    assert list(fps_select(pts, 1)) == [0]
    with pytest.raises(ValueError):
        fps_select(pts, 0)
    with pytest.raises(ValueError):
        fps_select(pts, 9)


def test_knn_patches_match_brute_force_order():
    rng = np.random.default_rng(6)
    pts = rng.uniform(size=(50, 3))
    centers = rng.uniform(size=(7, 3))
    patches = knn_patches(pts, centers, 9)
    assert patches.shape == (7, 9, 3)
    d2 = np.sum((centers[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    for i in range(7):
        expect = np.argsort(d2[i], kind="stable")[:9]
        assert np.array_equal(patches[i], pts[expect])


def test_knn_patches_center_on_cloud_is_own_first_neighbor():
    pts = np.random.default_rng(7).uniform(size=(20, 3))
    patches = knn_patches(pts, pts[[4]], 3)
    assert np.array_equal(patches[0, 0], pts[4])


def test_knn_patches_m_bounds():
    pts = np.random.default_rng(8).uniform(size=(5, 3))
    with pytest.raises(ValueError):
        knn_patches(pts, pts[:2], 0)
    with pytest.raises(ValueError):
        knn_patches(pts, pts[:2], 6)


def test_miou_hand_case():
    true = np.array([0, 0, 1, 1])
    pred = np.array([0, 1, 1, 1])
    # part 0: inter 1, union 2; part 1: inter 2, union 3
    assert miou(pred, true, 2) == pytest.approx(0.5 * (0.5 + 2.0 / 3.0))


def test_miou_ignores_parts_absent_from_truth():
    true = np.array([0, 0, 0])
    pred = np.array([0, 0, 1])
    assert miou(pred, true, 2) == pytest.approx(2.0 / 3.0)


def test_miou_validates_labels():
    with pytest.raises(ValueError):
        miou(np.array([0, 2]), np.array([0, 1]), 2)
    with pytest.raises(ValueError):
        miou(np.array([0]), np.array([0, 1]), 2)


def test_rotation_matrix_is_special_orthogonal():
    rng = np.random.default_rng(12)
    for _ in range(10):
        rot = rotation_about_axis(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
        assert np.abs(rot @ rot.T - np.eye(3)).max() < 1e-12
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(rotation_about_axis([0, 0, 1], 0.0) - np.eye(3)).max() < 1e-15
    with pytest.raises(ValueError):
        rotation_about_axis([0.0, 0.0, 0.0], 1.0)


def test_rigid_transform_applies_and_validates():
    rng = np.random.default_rng(13)
    cloud = PointCloud(rng.uniform(size=(15, 3)), labels=np.zeros(15, dtype=np.int64))
    rot = rotation_about_axis([1.0, 2.0, 0.5], 0.7)
    t = np.array([0.1, -0.2, 0.3])
    moved = rigid_transform(cloud, rot, t)
    assert np.abs(moved.points - (cloud.points @ rot.T + t)).max() < 1e-15
    assert np.array_equal(moved.labels, cloud.labels)
    with pytest.raises(ValueError):
        rigid_transform(cloud, np.eye(3) * 2.0, t)


def test_corrupt_flags_exact_outlier_count():
    rng = np.random.default_rng(14)
    cloud = PointCloud(rng.uniform(size=(100, 3)))
    for frac, expect in ((0.0, 0), (0.05, 5), (0.17, 17), (1.0, 100)):
        noisy = corrupt(cloud, frac, 0.01, np.random.default_rng(1))
        assert int(noisy.noise_mask.sum()) == expect
        assert noisy.size == 100


def test_corrupt_sigma_zero_leaves_inliers_untouched():
    rng = np.random.default_rng(15)
    cloud = PointCloud(rng.uniform(size=(40, 3)))
    noisy = corrupt(cloud, 0.25, 0.0, np.random.default_rng(2))
    keep = ~noisy.noise_mask
    assert np.array_equal(noisy.points[keep], cloud.points[keep])
    assert not np.array_equal(noisy.points[~keep], cloud.points[~keep])


def test_corrupt_validates_arguments():
    cloud = PointCloud(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        corrupt(cloud, -0.1, 0.01, np.random.default_rng(0))
    with pytest.raises(ValueError):
        corrupt(cloud, 0.5, -1.0, np.random.default_rng(0))


def test_pointcloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        PointCloud(np.array([[np.inf, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((4, 3)), labels=np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((4, 3)), labels=np.full(4, -1))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((4, 3)), noise_mask=np.zeros(5, dtype=bool))


def test_cloud_bytes_round_trip():
    rng = np.random.default_rng(16)
    cloud = PointCloud(
        rng.uniform(size=(9, 3)),
        labels=rng.integers(0, 4, size=9),
        noise_mask=rng.random(9) < 0.3,
    )
    blob = b"prefix" + cloud_to_bytes(cloud)
    reader = RecordReader(blob, b"prefix", "test file")
    back = read_cloud(reader)
    reader.finish()
    assert np.array_equal(back.points, cloud.points)
    assert np.array_equal(back.labels, cloud.labels)
    assert np.array_equal(back.noise_mask, cloud.noise_mask)
    assert cloud_to_bytes(back) == cloud_to_bytes(cloud)


def test_cloud_decode_errors():
    cloud = PointCloud(np.random.default_rng(17).uniform(size=(5, 3)))
    blob = cloud_to_bytes(cloud)
    for buf, message in ((b"WRONGMAG" + blob[8:], "bad point-cloud magic"),
                         (blob[:-4], "truncated dataset point-cloud record body"),
                         (blob[:10], "truncated dataset point-cloud record header")):
        with pytest.raises(FormatError, match=message):
            read_cloud(RecordReader(buf, b"", "dataset"))
    reader = RecordReader(blob + b"\x00", b"", "dataset")
    read_cloud(reader)
    assert reader.offset == len(blob)  # trailing bytes are left for the next record
    with pytest.raises(FormatError, match="1 unexpected trailing bytes"):
        reader.finish()
