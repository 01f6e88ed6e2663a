"""Point-cloud primitives: the cloud container, distances, sampling, and the framing of every file.

Coordinates are float64 arrays of shape (S, 3) throughout. Identical
inputs always produce identical outputs. Farthest-point and k-nearest
queries break exact ties toward the lowest point index.

Chamfer nearest-neighbor queries follow one kernel policy, chosen by
what is being matched:

* patch sets, a (P, M, 3) stack against a (P, L, 3) stack of small
  sets (chamfer_nearest_patches): brute force over every pair of one
  patch, all patches in one array pass; exact ties go to the lowest
  index;
* clouds, one (n, 3) set against another (chamfer_nearest): a cKDTree
  per direction; exact ties go to an index attaining the minimum, not
  necessarily the lowest one;
* a stack of clouds against one shared cloud, a (D, S, 3) stack against
  an (n, 3) set (chamfer_distance_stack): one cKDTree for the shared set.
  Several sets of its size, such as a label's oracle draws, are matched
  through its table of TABLE_NEIGHBOURS nearest neighbours per point
  (_matched_nearest); one set, or sets of another size, query the tree
  with every set's points in one call and build one tree per set for
  the reverse direction. Each value equals chamfer_distance's bit for
  bit.

The two trees of a cloud query cost about as much as brute force at
16 x 256 points and three to four times more at 16 x 16, while brute
force is about seven times slower at 256 x 256. So only patch stacks
are brute-forced: a whole stack of them costs one array pass. Every
differentiable Chamfer is one (the sampler's 16 x 256 center coverage
is a one-patch stack), so chamfer_nearest's tie choice reaches no
gradient: the trees serve only the oracle's and the labels' values.
For a label's 16 draws of 256 points, the neighbour table took about
2 ms against 4.3 to 4.7 ms for a tree per set (one core, scipy 1.17).
For a single draw the table query alone took 0.40 ms against 0.36 ms
for both trees, so one set keeps the trees.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import FormatError

CLOUD_MAGIC = b"MICASPC1"


@dataclass
class PointCloud:
    """A point set with optional per-point part labels and noise flags.

    Attributes:
        points: (S, 3) float64 coordinates, S >= 1, all finite.
        labels: optional (S,) integer part ids.
        noise_mask: optional (S,) bool, True marks an injected outlier.
    """

    points: np.ndarray
    labels: np.ndarray | None = None
    noise_mask: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise ValueError(f"points must have shape (S, 3) with S >= 1, got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points contain non-finite values")
        self.points = pts
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=np.int64)
            if lab.shape != (len(pts),):
                raise ValueError("labels length must match point count")
            if (lab < 0).any() or (lab > 0xFFFF).any():
                raise ValueError("labels must fit in uint16")
            self.labels = lab
        if self.noise_mask is not None:
            mask = np.asarray(self.noise_mask, dtype=bool)
            if mask.shape != (len(pts),):
                raise ValueError("noise_mask length must match point count")
            self.noise_mask = mask

    @property
    def size(self) -> int:
        return self.points.shape[0]


def as_points(obj) -> np.ndarray:
    """Return the (n, 3) float64 coordinate array behind a cloud or array."""
    pts = obj.points if isinstance(obj, PointCloud) else np.asarray(obj, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
        raise ValueError(f"expected an (n, 3) point array with n >= 1, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("point array contains non-finite values")
    return pts


def chamfer_nearest(a, b):
    """Nearest-neighbor squared distances and indices in both directions.

    Returns:
        (d2_ab, idx_ab, d2_ba, idx_ba) where d2_ab[i] is the squared
        distance from a[i] to its nearest point in b and idx_ab[i] is that
        point's index (on exact ties, an index attaining the minimum,
        identical for identical inputs), and symmetrically for the b-to-a
        direction.
    """
    pa, pb = as_points(a), as_points(b)
    d_ab, idx_ab = cKDTree(pb).query(pa)
    d_ba, idx_ba = cKDTree(pa).query(pb)
    return d_ab**2, idx_ab, d_ba**2, idx_ba


def _as_patch_stack(obj) -> np.ndarray:
    pts = np.asarray(obj, dtype=np.float64)
    if pts.ndim != 3 or pts.shape[2] != 3 or pts.shape[0] < 1 or pts.shape[1] < 1:
        raise ValueError(f"expected a (P, M, 3) patch stack with P, M >= 1, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("patch stack contains non-finite values")
    return pts


def chamfer_nearest_patches(a, b):
    """chamfer_nearest for each patch of two equally long patch stacks.

    a is (P, M, 3) and b is (P, L, 3); patch p of a is matched only
    against patch p of b. Brute force: all (P, M, L) squared distances
    are formed at once, and exact ties go to the lowest index.

    Returns:
        (d2_ab, idx_ab, d2_ba, idx_ba) of shapes (P, M), (P, M), (P, L)
        and (P, L), where d2_ab[p, i] is the squared distance from
        a[p, i] to its nearest point in b[p] and idx_ab[p, i] that
        point's index in b[p], and symmetrically for b into a.
    """
    pa, pb = _as_patch_stack(a), _as_patch_stack(b)
    if pa.shape[0] != pb.shape[0]:
        raise ValueError(f"patch counts differ: {pa.shape[0]} vs {pb.shape[0]}")
    d2 = np.sum((pa[:, :, None, :] - pb[:, None, :, :]) ** 2, axis=3)
    idx_ab = np.argmin(d2, axis=2)  # argmin returns the first (lowest) minimizer
    idx_ba = np.argmin(d2, axis=1)
    return d2.min(axis=2), idx_ab, d2.min(axis=1), idx_ba


def chamfer_distance(a, b) -> float:
    """Symmetric squared-distance Chamfer divergence between two point sets.

    Averages the squared nearest-neighbor distance from each point of `a`
    into `b`, plus the same from `b` into `a`. Zero iff the two sets are
    equal as sets; invariant to point order; scales quadratically under
    uniform scaling of both inputs.
    """
    d2_ab, _, d2_ba, _ = chamfer_nearest(a, b)
    return float(d2_ab.mean() + d2_ba.mean())


def chamfer_distance_stack(stack, b) -> np.ndarray:
    """chamfer_distance of every set of a (D, S, 3) stack against one set b.

    Returns the D divergences; entry d equals chamfer_distance(stack[d], b)
    bit for bit. The tree over b is built once. Several sets of b's size,
    such as noisy copies of b, are matched through b's neighbour table;
    one set, or sets of another size, through one more tree per set.
    """
    pa, pb = _as_patch_stack(stack), as_points(b)
    tree = cKDTree(pb)
    if len(pa) > 1 and pa.shape[1] == len(pb):
        d2_ab, d2_ba = _matched_nearest(pa, pb, tree)
    else:
        d2_ab = (tree.query(pa.reshape(-1, 3))[0] ** 2).reshape(pa.shape[:2])
        d2_ba = np.stack([cKDTree(pts).query(pb)[0] ** 2 for pts in pa])
    return d2_ab.mean(axis=1) + d2_ba.mean(axis=1)


TABLE_NEIGHBOURS = 8  # neighbours per point of b's table in _matched_nearest, besides the point itself


def _sq_dist(u, v) -> np.ndarray:
    """Squared distances between broadcast (3, ...) coordinate arrays, summed as cKDTree sums them."""
    diff = u - v
    return (diff[0] ** 2 + diff[1] ** 2) + diff[2] ** 2


def _matched_nearest(pa, pb, tree):
    """Squared nearest distances of a (D, S, 3) stack against b, S = len(b): (D, S) arrays, set to b and b to set.

    x = pa[d, i] is matched among the table's neighbours of b[i], and b[j]
    among the points pa[d, i] whose i is a table neighbour of j. Every b[m]
    outside the table of i lies at least i's reach R_i from b[i], so by the
    triangle inequality the candidate minimum is the true one when it is
    at most R_i - |x - b[i]| (set to b) or R_j - max_i |pa[d, i] - b[i]|
    (b to set), less a margin of 1e-9 R for rounding. Points that fail
    the test are matched by the tree (set to b) or against the whole set
    (b to set). Distances are summed as cKDTree sums them, rooted and
    squared as the trees' are, and returned C-contiguous, so each row's
    mean sums in chamfer_distance's order.
    """
    reach, near = tree.query(pb, TABLE_NEIGHBOURS + 1)
    # A b smaller than the table pads each row with index len(b) at infinite reach: every point is a
    # candidate, and the infinite slack clears them all.
    near = np.where(near < len(pb), near, near[:, :1]).T  # (k + 1, S)
    slack = reach[:, -1] * (1.0 - 1e-9)
    xt, bt = np.ascontiguousarray(pa.transpose(2, 0, 1)), pb.T  # coordinates first: (3, D, S) and (3, S)
    offset = np.sqrt(_sq_dist(xt, bt[:, None, :]))  # |pa[d, i] - b[i]|
    d_ab = np.sqrt(_sq_dist(xt[:, :, None, :], bt[:, None, near]).min(axis=1))
    uncleared = d_ab > slack - offset
    d_ab[uncleared] = tree.query(pa[uncleared])[0]
    d_ba = np.sqrt(_sq_dist(bt[:, None, None, :], np.take(xt, near, axis=2)).min(axis=1))
    uncleared = d_ba > slack - offset.max(axis=1, keepdims=True)
    for d in np.flatnonzero(uncleared.any(axis=1)):
        d_ba[d, uncleared[d]] = np.sqrt(_sq_dist(bt[:, uncleared[d], None], xt[:, d, None, :]).min(axis=1))
    return np.ascontiguousarray(d_ab**2), np.ascontiguousarray(d_ba**2)


def fps_select(cloud, n: int) -> np.ndarray:
    """Greedy farthest-point subset of size n, starting at index 0.

    Each step picks the point maximizing the minimum squared distance to
    the already chosen set; ties go to the lowest index.
    """
    pts = as_points(cloud)
    s = len(pts)
    if not 1 <= n <= s:
        raise ValueError(f"n must be in [1, {s}], got {n}")
    chosen = np.zeros(n, dtype=np.int64)
    min_d2 = np.sum((pts - pts[0]) ** 2, axis=1)
    for k in range(1, n):
        nxt = int(np.argmax(min_d2))  # argmax returns the first (lowest) maximizer
        chosen[k] = nxt
        np.minimum(min_d2, np.sum((pts - pts[nxt]) ** 2, axis=1), out=min_d2)
    return chosen


def knn_patches(cloud, centers, m: int) -> np.ndarray:
    """Gather the m nearest cloud points around each center, as an (N, m, 3) array.

    Neighbors are ordered by increasing distance, lowest index first on
    ties, and may repeat across patches. A center that is itself a cloud
    point contributes itself as its own first neighbor.
    """
    pts = as_points(cloud)
    ctr = as_points(centers)
    if not 1 <= m <= len(pts):
        raise ValueError(f"m must be in [1, {len(pts)}], got {m}")
    d2 = np.sum((ctr[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    order = np.argsort(d2, axis=1, kind="stable")[:, :m]
    return pts[order]


def miou(pred_labels, true_labels, num_parts: int) -> float:
    """Mean intersection-over-union across the parts present in true_labels."""
    pred = np.asarray(pred_labels, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    if pred.shape != true.shape or pred.ndim != 1 or len(pred) < 1:
        raise ValueError("label arrays must be equal-length non-empty vectors")
    if num_parts < 1:
        raise ValueError("num_parts must be positive")
    for arr in (pred, true):
        if (arr < 0).any() or (arr >= num_parts).any():
            raise ValueError(f"labels must lie in [0, {num_parts})")
    ious = []
    for part in range(num_parts):
        in_true = true == part
        if not in_true.any():
            continue  # parts absent from the ground truth do not count
        in_pred = pred == part
        union = np.logical_or(in_pred, in_true).sum()
        inter = np.logical_and(in_pred, in_true).sum()
        ious.append(inter / union)
    return float(np.mean(ious))


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rotation matrix for a right-handed turn of `angle` radians about `axis`."""
    ax = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(ax)
    if not norm > 0:
        raise ValueError("rotation axis must be nonzero")
    x, y, z = ax / norm
    c, s = np.cos(angle), np.sin(angle)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + s * k + (1.0 - c) * (k @ k)


def rigid_transform(cloud: PointCloud, rotation, translation) -> PointCloud:
    """Apply p -> R p + t to every point, carrying labels and flags along."""
    rot = np.asarray(rotation, dtype=np.float64)
    t = np.asarray(translation, dtype=np.float64).reshape(3)
    if rot.shape != (3, 3):
        raise ValueError("rotation must be a 3x3 matrix")
    if np.abs(rot @ rot.T - np.eye(3)).max() > 1e-9:
        raise ValueError("rotation must be orthonormal within 1e-9")
    if abs(np.linalg.det(rot) - 1.0) > 1e-9:
        raise ValueError("rotation determinant must be +1")
    moved = cloud.points @ rot.T + t
    return PointCloud(moved, cloud.labels, cloud.noise_mask)


def corrupt(cloud: PointCloud, outlier_fraction: float, sigma: float, rng) -> PointCloud:
    """Replace a fraction of points with unit-cube outliers and jitter the rest.

    round(outlier_fraction * S) points, chosen without replacement, are
    redrawn uniformly in [0, 1]^3 and flagged in the returned noise_mask;
    every other point receives iid Gaussian noise of scale sigma. Point
    order is preserved.
    """
    if not 0.0 <= outlier_fraction <= 1.0:
        raise ValueError("outlier_fraction must be in [0, 1]")
    if sigma < 0.0:
        raise ValueError("sigma must be non-negative")
    s = cloud.size
    n_out = int(np.rint(outlier_fraction * s))
    out_idx = rng.choice(s, size=n_out, replace=False) if n_out > 0 else np.empty(0, np.int64)
    mask = np.zeros(s, dtype=bool)
    mask[out_idx] = True
    pts = cloud.points.copy()
    pts[~mask] += rng.normal(0.0, sigma, size=(int((~mask).sum()), 3)) if sigma > 0 else 0.0
    if n_out > 0:
        pts[mask] = rng.uniform(0.0, 1.0, size=(n_out, 3))
    return PointCloud(pts, cloud.labels, mask)


def cloud_to_bytes(cloud: PointCloud) -> bytes:
    """Encode a cloud in the binary MICASPC1 layout (little-endian)."""
    parts = [
        CLOUD_MAGIC,
        struct.pack("<IBB", cloud.size, cloud.labels is not None, cloud.noise_mask is not None),
        np.ascontiguousarray(cloud.points, dtype="<f8").tobytes(),
    ]
    if cloud.labels is not None:
        parts.append(cloud.labels.astype("<u2").tobytes())
    if cloud.noise_mask is not None:
        parts.append(cloud.noise_mask.astype("u1").tobytes())
    return b"".join(parts)


class RecordReader:
    """A cursor over a binary file's bytes, past its magic; a read past the end raises FormatError.
    Sizes are exact Python ints, so a size that overflows int64 is merely longer than the file."""

    def __init__(self, buf: bytes, magic: bytes, what: str):
        self.buf, self.what, self.offset = buf, what, 0
        if self.take(len(magic), "magic") != magic:
            raise FormatError(f"bad {what} magic")

    def _advance(self, n: int, part: str) -> int:
        """Move the cursor n bytes on and return where it was."""
        start = self.offset
        if start + n > len(self.buf):
            raise FormatError(f"truncated {self.what} {part}")
        self.offset += n
        return start

    def take(self, n: int, part: str) -> bytes:
        return self.buf[self._advance(n, part) : self.offset]

    def unpack(self, fmt: str, part: str) -> tuple:
        return struct.unpack_from(fmt, self.buf, self._advance(struct.calcsize(fmt), part))

    def array(self, dtype, count: int, part: str) -> np.ndarray:
        """A read-only view of the buffer, not a copy."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self.buf, dtype, count, self._advance(dtype.itemsize * count, part))

    def finish(self) -> None:
        if self.offset != len(self.buf):
            raise FormatError(f"{len(self.buf) - self.offset} unexpected trailing bytes")


def read_cloud(reader: RecordReader) -> PointCloud:
    """Decode the MICASPC1 record at the reader's cursor and move the cursor past it."""
    magic, s, has_labels, has_mask = reader.unpack(f"<{len(CLOUD_MAGIC)}sIBB", "point-cloud record header")
    if magic != CLOUD_MAGIC:
        raise FormatError("bad point-cloud magic")
    if s < 1:
        raise FormatError("point count must be >= 1")
    if has_labels not in (0, 1) or has_mask not in (0, 1):
        raise FormatError("invalid presence flags")
    # PointCloud would keep the points as a view of the file, but converts, so copies, labels and mask
    pts = reader.array("<f8", s * 3, "point-cloud record body").reshape(s, 3).copy()
    labels = reader.array("<u2", s, "point-cloud record body") if has_labels else None
    mask = reader.array("u1", s, "point-cloud record body") if has_mask else None
    if mask is not None and (mask > 1).any():
        raise FormatError(f"noise-mask byte of point {np.argmax(mask > 1)} is neither 0 nor 1")
    if not np.isfinite(pts).all():
        raise FormatError("point-cloud record contains non-finite coordinates")
    return PointCloud(pts, labels, mask)


def write_json(path, obj) -> None:
    """Write obj to path as JSON with sorted keys, a two-space indent and a closing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path, what: str) -> dict:
    """The JSON object in file `path`; FormatError naming `what` if the file holds anything else."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise FormatError(f"{what} is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj
