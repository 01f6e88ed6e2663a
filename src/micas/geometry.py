"""Point-cloud primitives: the cloud container, distances, sampling, and the framing of every file.

Coordinates are float64 arrays of shape (S, 3) throughout. Identical
inputs always produce identical outputs. Farthest-point and k-nearest
queries break exact ties toward the lowest point index.

Every nearest-neighbour search is exact brute force, and exact ties go
to the lowest index. How the pairs are formed depends on what is matched:

* patch sets, a (P, M, 3) stack against a (P, L, 3) stack of small
  sets (chamfer_nearest_patches): every pair of one patch, all patches
  in one array pass;
* clouds, one (n, 3) set against another (chamfer_nearest): _nearest
  per direction, which screens all pairs by one matrix product and
  computes exactly only the pick of each row and the rows the screen
  cannot decide;
* a stack of clouds against one shared cloud, a (D, S, 3) stack against
  an (n, 3) set (chamfer_distance_stack). Several sets of its size, such
  as a label's oracle draws, are matched through its table of
  TABLE_NEIGHBOURS nearest neighbours per point (_matched_nearest); one
  set, or sets of another size, go through _nearest both ways. Each
  value equals chamfer_distance's bit for bit.

Every distance is summed coordinates first, (dx² + dy²) + dz², so the
same pair gives the same bits on every path. Every differentiable
Chamfer is a patch stack (the sampler's 16 x 256 center coverage is a
one-patch stack). The cost of _nearest is quadratic in the point count.
Per chamfer_nearest on uniform random clouds (one core of a 2-core x86
machine, numpy 2.4, one OpenBLAS thread) it took 0.20 ms against 0.27 to
0.29 ms for scipy 1.17's KD-trees, one per direction, at 256 points;
0.74 against 0.61 ms at 512, 3.1 to 3.6 against 1.4 ms at 1,024 and 17.6
against 3.1 to 3.4 ms at 2,048. So above about 500 points the trees
would be faster. Every desk run and benchmark workload uses 256. A cloud
of exactly repeated points, such as a partseg target (its points encode
part labels), leaves every row to the exact fallback: 2.3 ms against
0.23 ms for 64 points four times over. No stage matches such clouds by
Chamfer.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

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
        point's index (the lowest one on exact ties), and symmetrically for
        the b-to-a direction.
    """
    pa, pb = as_points(a), as_points(b)
    return (*_nearest(pa, pb), *_nearest(pb, pa))


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
    d2 = _sq_dist(pa.transpose(2, 0, 1)[:, :, :, None], pb.transpose(2, 0, 1)[:, :, None, :])
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
    bit for bit. Several sets of b's size, such as noisy copies of b, are
    matched through b's neighbour table; one set, or sets of another size,
    by the exact kernel in both directions.
    """
    pa, pb = _as_patch_stack(stack), as_points(b)
    if len(pa) > 1 and pa.shape[1] == len(pb) > TABLE_NEIGHBOURS:
        d2_ab, d2_ba = _matched_nearest(pa, pb)
    else:
        d2_ab = _nearest(pa.reshape(-1, 3), pb)[0].reshape(pa.shape[:2])
        d2_ba = np.stack([_nearest(pb, pts)[0] for pts in pa])
    return d2_ab.mean(axis=1) + d2_ba.mean(axis=1)


TABLE_NEIGHBOURS = 8  # neighbours per point of b's table in _matched_nearest, besides the point itself
BLOCK_ROWS = 1024  # rows of x screened at once by _nearest


def _sq_dist(u, v) -> np.ndarray:
    """Squared distances between broadcast (3, ...) coordinate arrays, coordinates first: (dx² + dy²) + dz²."""
    return _sq_sum(u - v)


def _sq_sum(diff) -> np.ndarray:
    """(dx² + dy²) + dz² of a (3, ...) array of coordinate differences, summed in place in `diff`.

    A fresh array per term made the label pass's (3, 16, 9, 256) call about
    four times slower (0.9 against 0.2 ms).
    """
    diff *= diff
    diff[0] += diff[1]
    diff[0] += diff[2]
    return diff[0]


def _screen(x, y):
    """Augmented coordinates xa (n, 5) and ya (m, 5), and a bound tol on the rounding of their product.

    (xa @ ya.T)[i, j] = |x[i]|² - 2 x[i]·y[j] + |y[j]|² is the squared distance
    from x[i] to y[j], expanded into one matrix product. Its terms add up to
    at most 2 (max|x|² + max|y|²) in magnitude, so in any summation order it
    differs from the distance _sq_dist computes by less than about 1e-14
    times that scale, far inside tol = 1e-12 (1 + max|x|² + max|y|²).
    """
    sx, sy = np.einsum("ij,ij->i", x, x), np.einsum("ij,ij->i", y, y)
    xa = np.column_stack([-2.0 * x, sx, np.ones(len(x))])
    ya = np.column_stack([y, np.ones(len(y)), sy])
    return xa, ya, 1e-12 * (1.0 + sx.max(initial=0.0) + sy.max(initial=0.0))  # x may have no rows


def _nearest(x, y):
    """For each row of x, the squared distance to its nearest row of y and that row's index: ((n,), (n,)).

    Exact brute force, ties to the lowest index. Blocks of BLOCK_ROWS rows
    are screened by _screen's product, so scratch memory is linear in
    len(y). A row's argmin is certain when every other entry of its row is
    more than 2 tol above it, since no entry is off by more than tol; the
    other rows are redone over all of y with _sq_dist, vectorised over
    those rows. The distance to the pick is _sq_dist's, rooted and squared:
    the stored labels and reports were computed in that form, and the
    square of a root can differ from the raw sum in the last bit.
    """
    xa, ya, tol = _screen(x, y)
    xt, yt = x.T, y.T
    idx = np.empty(len(x), dtype=np.intp)
    for start in range(0, len(x), BLOCK_ROWS):
        screen = xa[start : start + BLOCK_ROWS] @ ya.T
        rows = np.arange(len(screen))
        pick = screen.argmin(axis=1)  # argmin returns the first (lowest) minimizer
        low = screen[rows, pick]
        screen[rows, pick] = np.inf  # leaves each row's second smallest entry as its minimum
        unsure = np.flatnonzero(screen[rows, screen.argmin(axis=1)] <= low + 2.0 * tol)
        if len(unsure):
            pick[unsure] = _sq_dist(xt[:, start + unsure, None], yt[:, None, :]).argmin(axis=1)
        idx[start : start + len(pick)] = pick
    return np.sqrt(_sq_dist(xt, yt[:, idx])) ** 2, idx


def _matched_nearest(pa, pb):
    """Squared nearest distances of a (D, S, 3) stack against b, S = len(b) > TABLE_NEIGHBOURS: (D, S) arrays, set to
    b and b to set.

    b's table holds, per point, the TABLE_NEIGHBOURS + 1 smallest entries of
    its _screen row against b. Every b[m] outside the table of i screens at
    least the largest kept entry, so it lies at least i's reach R_i = sqrt(
    max(largest kept - tol, 0)) from b[i], a bound that holds also for a
    point left out of its own table by duplicates. x = pa[d, i] is matched
    among the table's neighbours of b[i], and b[j] among the points pa[d, i]
    whose i is a table neighbour of j. By the triangle inequality the
    candidate minimum is the true one when it is at most R_i - |x - b[i]|
    (set to b) or R_j - max_i |pa[d, i] - b[i]| (b to set), less a margin of
    1e-9 R for rounding. Points that fail the test are matched by _nearest
    (set to b) or against the whole set (b to set). Distances are _sq_dist's,
    rooted and squared as _nearest's are, and returned C-contiguous, so each
    row's mean sums in chamfer_distance's order.
    """
    xa, ya, tol = _screen(pb, pb)
    screen = xa @ ya.T
    near = np.argpartition(screen, TABLE_NEIGHBOURS, axis=1)[:, : TABLE_NEIGHBOURS + 1]
    largest = np.take_along_axis(screen, near[:, -1:], axis=1)[:, 0]  # the partition's pivot, position k
    slack = np.sqrt(np.maximum(largest - tol, 0.0)) * (1.0 - 1e-9)
    near = near.T  # (k + 1, S)
    xt, bt = np.ascontiguousarray(pa.transpose(2, 0, 1)), pb.T  # coordinates first: (3, D, S) and (3, S)
    offset = np.sqrt(_sq_dist(xt, bt[:, None, :]))  # |pa[d, i] - b[i]|
    d_ab = np.sqrt(_sq_dist(xt[:, :, None, :], bt[:, None, near]).min(axis=1))
    uncleared = d_ab > slack - offset
    d2_ab = d_ab**2
    d2_ab[uncleared] = _nearest(pa[uncleared], pb)[0]
    candidates = np.take(xt, near, axis=2)  # (3, D, k + 1, S): the points pa[d, i] whose i is a neighbour of j
    candidates -= bt[:, None, None, :]
    d_ba = np.sqrt(_sq_sum(candidates).min(axis=1))
    uncleared = d_ba > slack - offset.max(axis=1, keepdims=True)
    for d in np.flatnonzero(uncleared.any(axis=1)):
        d_ba[d, uncleared[d]] = np.sqrt(_sq_dist(bt[:, uncleared[d], None], xt[:, d, None, :]).min(axis=1))
    return d2_ab, np.ascontiguousarray(d_ba**2)


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
    pt = np.ascontiguousarray(pts.T)
    min_d2 = _sq_dist(pt, pt[:, :1])
    for k in range(1, n):
        nxt = int(np.argmax(min_d2))  # argmax returns the first (lowest) maximizer
        chosen[k] = nxt
        np.minimum(min_d2, _sq_dist(pt, pt[:, nxt, None]), out=min_d2)
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
    d2 = _sq_dist(ctr.T[:, :, None], pts.T[:, None, :])
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
