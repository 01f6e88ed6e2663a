"""Synthetic shapes, task pair generation, and dataset files.

Every pair is a pure function of (task, level, point count, seed): the
same four arguments always rebuild byte-identical clouds. Inputs and
targets correspond point-by-point, which is what lets one soft selection
matrix sample both sides of a pair jointly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError
from .geometry import (
    PointCloud,
    cloud_from_buffer,
    cloud_to_bytes,
    corrupt,
    rigid_transform,
    rotation_about_axis,
)

DATASET_MAGIC = b"MICASDS1"

TASKS = ("reconstruction", "denoising", "registration", "partseg")
SHAPE_KINDS = ("sphere", "box", "cylinder", "torus")

# Difficulty tables, indexed by level 1..5.
DENOISE_OUTLIER_FRACTION = {1: 0.05, 2: 0.10, 3: 0.15, 4: 0.20, 5: 0.25}
DENOISE_SIGMA = {1: 0.005, 2: 0.010, 3: 0.015, 4: 0.020, 5: 0.025}
REGISTRATION_MAX_ANGLE_DEG = {1: 15.0, 2: 30.0, 3: 60.0, 4: 90.0, 5: 180.0}
REGISTRATION_MAX_SHIFT_PER_LEVEL = 0.1
RECONSTRUCTION_RADIUS = {1: 0.10, 2: 0.15, 3: 0.20, 4: 0.25, 5: 0.30}
PARTSEG_PARTS = {1: 2, 2: 2, 3: 3, 4: 3, 5: 4}

# Per-part target anchors: a regular tetrahedron around the cube center.
# The edge is small so part identity is a fine-grained signal: prediction
# noise comparable to the edge flips decoded labels.
PART_ANCHOR_EDGE = 0.06
_TETRA = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]) / np.sqrt(3.0)
PART_ANCHORS = 0.5 + _TETRA * (PART_ANCHOR_EDGE / (2.0 * np.sqrt(2.0 / 3.0)))


def _unit_vector(rng) -> np.ndarray:
    v = rng.normal(size=3)
    n = np.linalg.norm(v)
    while n == 0.0:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
    return v / n


def _sphere(n: int, rng):
    dirs = rng.normal(size=(n, 3))
    norms = np.linalg.norm(dirs, axis=1)
    while (norms == 0.0).any():
        bad = norms == 0.0
        dirs[bad] = rng.normal(size=(int(bad.sum()), 3))
        norms = np.linalg.norm(dirs, axis=1)
    pts = dirs / norms[:, None]
    return pts, np.full(3, -1.0), np.full(3, 1.0)


def _box(n: int, rng):
    half = rng.uniform(0.5, 1.0, size=3)
    areas = np.array([half[1] * half[2], half[1] * half[2],
                      half[0] * half[2], half[0] * half[2],
                      half[0] * half[1], half[0] * half[1]])
    faces = rng.choice(6, size=n, p=areas / areas.sum())
    pts = rng.uniform(-half, half, size=(n, 3))
    for face in range(6):
        rows = faces == face
        pts[rows, face // 2] = half[face // 2] * (1.0 if face % 2 == 0 else -1.0)
    return pts, -half, half


def _cylinder(n: int, rng):
    radius = rng.uniform(0.4, 0.8)
    half_h = rng.uniform(0.5, 1.0)
    lateral = 2.0 * np.pi * radius * 2.0 * half_h
    cap = np.pi * radius**2
    areas = np.array([lateral, cap, cap])
    region = rng.choice(3, size=n, p=areas / areas.sum())
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    pts = np.empty((n, 3))
    side = region == 0
    pts[side, 0] = radius * np.cos(theta[side])
    pts[side, 1] = radius * np.sin(theta[side])
    pts[side, 2] = rng.uniform(-half_h, half_h, size=int(side.sum()))
    for cap_id, z in ((1, half_h), (2, -half_h)):
        rows = region == cap_id
        r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=int(rows.sum())))
        pts[rows, 0] = r * np.cos(theta[rows])
        pts[rows, 1] = r * np.sin(theta[rows])
        pts[rows, 2] = z
    lo = np.array([-radius, -radius, -half_h])
    return pts, lo, -lo


def _torus(n: int, rng):
    major, minor = 1.0, rng.uniform(0.2, 0.4)
    u = rng.uniform(0.0, 2.0 * np.pi, size=n)
    v = np.empty(n)
    filled = 0
    while filled < n:  # rejection keeps the sampling uniform in surface area
        cand = rng.uniform(0.0, 2.0 * np.pi, size=n - filled)
        accept = rng.uniform(0.0, 1.0, size=n - filled) < (major + minor * np.cos(cand)) / (major + minor)
        kept = cand[accept]
        v[filled : filled + len(kept)] = kept
        filled += len(kept)
    ring = major + minor * np.cos(v)
    pts = np.stack([ring * np.cos(u), ring * np.sin(u), minor * np.sin(v)], axis=1)
    lo = np.array([-(major + minor), -(major + minor), -minor])
    return pts, lo, -lo


_PRIMITIVES = {"sphere": _sphere, "box": _box, "cylinder": _cylinder, "torus": _torus}


def _normalize(pts, lo, hi):
    """Map the nominal bbox [lo, hi] into the unit cube, preserving aspect."""
    center = (lo + hi) / 2.0
    scale = 1.0 / (hi - lo).max()
    return (pts - center) * scale + 0.5


def gen_shape(kind: str, n_points: int, rng, parts: int = 2) -> PointCloud:
    """Sample a surface uniformly and normalize it into the unit cube.

    The normalization uses the shape's nominal bounding box, not the
    empirical one, so geometric facts survive it exactly: a sphere maps to
    radius 0.5 about the cube center, and so on. "composite" builds
    `parts` separated primitives and attaches part labels.
    """
    if n_points < 1:
        raise ValueError("n_points must be positive")
    if kind == "composite":
        return _composite(n_points, rng, parts)
    if kind not in _PRIMITIVES:
        raise ValueError(f"unknown shape kind {kind!r}")
    pts, lo, hi = _PRIMITIVES[kind](n_points, rng)
    return PointCloud(_normalize(pts, lo, hi))


def _composite(n_points: int, rng, parts: int) -> PointCloud:
    if not 2 <= parts <= len(PART_ANCHORS):
        raise ValueError(f"parts must be in [2, {len(PART_ANCHORS)}]")
    kinds = [("sphere", "box", "cylinder", "torus")[i % 4] for i in range(parts)]
    counts = [n_points // parts + (1 if i < n_points % parts else 0) for i in range(parts)]
    all_pts, all_labels = [], []
    union_lo = np.full(3, np.inf)
    union_hi = np.full(3, -np.inf)
    for i, (kind, count) in enumerate(zip(kinds, counts)):
        pts, lo, hi = _PRIMITIVES[kind](max(count, 1), rng)
        fit = 0.45 / np.abs(np.stack([lo, hi])).max()
        offset = np.array([1.1 * i, 0.0, 0.0]) + np.concatenate([[0.0], rng.uniform(-0.15, 0.15, 2)])
        pts = pts * fit + offset
        union_lo = np.minimum(union_lo, lo * fit + offset)
        union_hi = np.maximum(union_hi, hi * fit + offset)
        all_pts.append(pts[:count])
        all_labels.append(np.full(count, i, dtype=np.int64))
    pts = np.vstack(all_pts)
    return PointCloud(_normalize(pts, union_lo, union_hi), np.concatenate(all_labels))


def collapse_region(cloud: PointCloud, center_index: int, radius: float) -> PointCloud:
    """Push every point within `radius` of a pivot onto the boundary sphere.

    x maps to p + radius * (x - p) / |x - p|; the pivot itself stays put.
    Points outside the ball are untouched and order is preserved.
    """
    if not 0 <= center_index < cloud.size:
        raise ValueError("center_index out of range")
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    pivot = cloud.points[center_index]
    delta = cloud.points - pivot
    dist = np.linalg.norm(delta, axis=1)
    inside = (dist > 0.0) & (dist < radius)
    pts = cloud.points.copy()
    pts[inside] = pivot + radius * delta[inside] / dist[inside, None]
    return PointCloud(pts, cloud.labels, cloud.noise_mask)


def encode_part_targets(labels) -> np.ndarray:
    """Anchor coordinates for each part label, shape (S, 3)."""
    lab = np.asarray(labels, dtype=np.int64)
    if (lab < 0).any() or (lab >= len(PART_ANCHORS)).any():
        raise ValueError(f"part labels must lie in [0, {len(PART_ANCHORS)})")
    return PART_ANCHORS[lab].copy()


def decode_part_labels(points, num_parts: int) -> np.ndarray:
    """Nearest-anchor decoding (lowest index on ties) back to part labels."""
    if not 1 <= num_parts <= len(PART_ANCHORS):
        raise ValueError(f"num_parts must be in [1, {len(PART_ANCHORS)}]")
    pts = np.asarray(points, dtype=np.float64)
    d2 = np.sum((pts[:, None, :] - PART_ANCHORS[None, :num_parts, :]) ** 2, axis=2)
    return np.argmin(d2, axis=1).astype(np.int64)


@dataclass
class TaskPair:
    """One in-context example: an input cloud and its ground-truth target."""

    input: PointCloud
    target: PointCloud
    task: str
    level: int
    seed: int

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if not 1 <= self.level <= 5:
            raise ValueError("level must be in [1, 5]")
        if self.input.size != self.target.size:
            raise ValueError("input and target must have the same point count")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in u64")


def gen_pair(task: str, level: int, n_points: int, seed: int) -> TaskPair:
    """Build one input/target pair; a pure function of its arguments."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if not 1 <= level <= 5:
        raise ValueError("level must be in [1, 5]")
    rng = np.random.default_rng(seed)
    if task == "partseg":
        parts = PARTSEG_PARTS[level]
        shape = gen_shape("composite", n_points, rng, parts)
        target = PointCloud(encode_part_targets(shape.labels), shape.labels.copy())
        return TaskPair(shape, target, task, level, seed)
    kind = SHAPE_KINDS[int(rng.integers(len(SHAPE_KINDS)))]
    clean = gen_shape(kind, n_points, rng)
    if task == "reconstruction":
        pivot = int(rng.integers(n_points))
        damaged = collapse_region(clean, pivot, RECONSTRUCTION_RADIUS[level])
        return TaskPair(damaged, clean, task, level, seed)
    if task == "denoising":
        noisy = corrupt(clean, DENOISE_OUTLIER_FRACTION[level], DENOISE_SIGMA[level], rng)
        return TaskPair(noisy, clean, task, level, seed)
    # registration: rotate about the cube center, then shift
    angle = np.radians(rng.uniform(-REGISTRATION_MAX_ANGLE_DEG[level], REGISTRATION_MAX_ANGLE_DEG[level]))
    rot = rotation_about_axis(_unit_vector(rng), angle)
    shift = _unit_vector(rng) * rng.uniform(0.0, REGISTRATION_MAX_SHIFT_PER_LEVEL * level)
    center = np.full(3, 0.5)
    moved = rigid_transform(clean, rot, center - rot @ center + shift)
    return TaskPair(clean, moved, task, level, seed)


def save_dataset(pairs, path) -> None:
    """Write pairs in the binary MICASDS1 layout (little-endian)."""
    pairs = list(pairs)
    parts = [DATASET_MAGIC, struct.pack("<I", len(pairs))]
    for pair in pairs:
        parts.append(struct.pack("<BBQ", TASKS.index(pair.task), pair.level, pair.seed))
        parts.append(cloud_to_bytes(pair.input))
        parts.append(cloud_to_bytes(pair.target))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_dataset(path) -> list[TaskPair]:
    """Read a MICASDS1 file; a truncated or corrupt file raises FormatError with no partial result."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 12 or buf[:8] != DATASET_MAGIC:
        raise FormatError("bad dataset magic")
    (count,) = struct.unpack_from("<I", buf, 8)
    offset = 12
    pairs = []
    for record in range(count):
        if len(buf) - offset < 10:
            raise FormatError("truncated dataset record")
        task_id, level, seed = struct.unpack_from("<BBQ", buf, offset)
        offset += 10
        if task_id >= len(TASKS):
            raise FormatError(f"unknown task id {task_id}")
        cloud_in, offset = cloud_from_buffer(buf, offset)
        cloud_out, offset = cloud_from_buffer(buf, offset)
        try:
            pairs.append(TaskPair(cloud_in, cloud_out, TASKS[task_id], level, seed))
        except ValueError as err:  # a level out of range or unequal point counts
            raise FormatError(f"dataset record {record}: {err}") from err
    if offset != len(buf):
        raise FormatError(f"{len(buf) - offset} unexpected trailing bytes")
    return pairs


@dataclass
class PromptBank:
    """Per-task lists of prompt pairs in split order; the package draws prompts by split index instead."""

    prompts: dict[str, list[TaskPair]] = field(default_factory=dict)

    @classmethod
    def from_pairs(cls, pairs) -> "PromptBank":
        bank = cls()
        for pair in pairs:
            bank.prompts.setdefault(pair.task, []).append(pair)
        return bank

    def for_task(self, task: str) -> list[TaskPair]:
        if task not in self.prompts or not self.prompts[task]:
            raise ValueError(f"prompt bank has no prompts for task {task!r}")
        return self.prompts[task]
