"""Correctness checks on what the pipeline stages produce.

Every check is a pure function of outputs and inputs that raises
CheckFailed when a property of the method does not hold. None compares
against a stored copy of an earlier run's numbers: each property follows
from the method itself (simplex weights, convex centers, greedy
optimality) or is recomputed independently (brute-force Chamfer, a
Monte-Carlo label estimate on its own random stream).
"""

from __future__ import annotations

import hashlib
import math
import sys

import numpy as np

CHAMFER_TASKS = ("reconstruction", "denoising", "registration")
SOFT_SUM_TOL = 1e-9
BBOX_TOL = 1e-12
# Brute-force and KD-tree squared distances come from different arithmetic.
CHAMFER_RTOL, CHAMFER_ATOL = 1e-9, 1e-15
FPS_RTOL = 1e-12
MC_SIGMAS = 4.0


class CheckFailed(Exception):
    pass


class Checker:
    """Runs checks, counting each as one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, name: str, fn, *args) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except CheckFailed as exc:
            self.failed += 1
            print(f"CHECK FAILED {name}: {exc}", file=sys.stderr)


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---- sampler training ----


def history_ok(history, epochs: int) -> None:
    if len(history) != epochs:
        raise CheckFailed(f"{len(history)} epochs recorded, expected {epochs}")
    for entry in history:
        loss = entry["mean_loss"]
        if not (math.isfinite(loss) and loss > 0.0):
            raise CheckFailed(f"epoch {entry['epoch']} mean loss {loss!r} is not finite and positive")


def checkpoint_reloads(load, path, expected_cfg) -> None:
    try:
        store, cfg = load(path)
    except (OSError, ValueError) as exc:  # FormatError is a ValueError
        raise CheckFailed(f"checkpoint {path} does not reload: {exc}") from exc
    if cfg != expected_cfg:
        raise CheckFailed(f"reloaded config {cfg} differs from {expected_cfg}")
    if len(store) == 0:
        raise CheckFailed("reloaded checkpoint holds no parameters")
    for name, param in store.items():
        if not np.isfinite(param.value).all():
            raise CheckFailed(f"reloaded parameter {name} is not finite")


def soft_columns_ok(soft) -> None:
    soft = np.asarray(soft)
    if (soft < 0.0).any():
        raise CheckFailed("negative soft weight")
    worst = float(np.abs(soft.sum(axis=0) - 1.0).max())
    if worst > SOFT_SUM_TOL:
        raise CheckFailed(f"a soft weight column sums to 1 off by {worst:.3g}")


def centers_in_bbox(centers, points) -> None:
    centers, points = np.asarray(centers), np.asarray(points)
    lo, hi = points.min(axis=0) - BBOX_TOL, points.max(axis=0) + BBOX_TOL
    outside = ((centers < lo) | (centers > hi)).any(axis=1)
    if outside.any():
        raise CheckFailed(f"{int(outside.sum())} centers lie outside the query bounding box")


# ---- ranker training ----


def label_cache_complete(entries: dict, expected: int) -> None:
    if len(entries) != expected:
        raise CheckFailed(f"label cache holds {len(entries)} entries, expected {expected}")
    bad = [key for key, value in entries.items() if not math.isfinite(value)]
    if bad:
        raise CheckFailed(f"{len(bad)} non-finite labels, first {bad[0]}")


def raw_labels_in_range(entries: dict, task_of_query) -> None:
    for (qid, cid), raw in entries.items():
        task = task_of_query(qid)
        if task in CHAMFER_TASKS and not raw > 0.0:
            raise CheckFailed(f"{task} label {(qid, cid)} = {raw!r} is not > 0")
        if task == "partseg" and not 0.0 <= raw <= 1.0:
            raise CheckFailed(f"partseg label {(qid, cid)} = {raw!r} is outside [0, 1]")


def digests_equal(before: str, after: str) -> None:
    if before != after:
        raise CheckFailed(f"sampler checkpoint sha256 changed: {before[:12]} -> {after[:12]}")


def brute_chamfer(a, b) -> float:
    d2 = ((np.asarray(a)[:, None, :] - np.asarray(b)[None, :, :]) ** 2).sum(axis=2)
    return float(d2.min(axis=1).mean() + d2.min(axis=0).mean())


def brute_miou(pred, true) -> float:
    ious = []
    for part in np.unique(true):
        in_pred, in_true = pred == part, true == part
        ious.append(np.logical_and(in_pred, in_true).sum() / np.logical_or(in_pred, in_true).sum())
    return float(np.mean(ious))


def mc_label(query_in, query_target, query_labels, task, prompt_in, centers, constants,
             anchors, rng, draws: int) -> tuple[float, float]:
    """Independent estimate of one oracle pseudo-label: (mean, per-draw sd).

    Re-derives the oracle's noise scale from its published constants with
    brute-force Chamfer, then averages the task score of `draws` noisy
    predictions drawn from `rng`.
    """
    sigma0, center_gain, prompt_gain = constants
    sigma = sigma0 * (1.0 + center_gain * brute_chamfer(centers, query_in)
                      + prompt_gain * brute_chamfer(prompt_in, query_in))
    values = np.empty(draws)
    for i in range(draws):
        pred = query_target + rng.normal(0.0, sigma, size=query_target.shape)
        if task == "partseg":
            parts = int(query_labels.max()) + 1
            d2 = ((pred[:, None, :] - anchors[None, :parts, :]) ** 2).sum(axis=2)
            values[i] = brute_miou(np.argmin(d2, axis=1), query_labels)
        else:
            values[i] = brute_chamfer(pred, query_target)
    return float(values.mean()), float(values.std(ddof=1))


def label_matches_estimate(cached: float, cached_draws: int, estimate: float, sd: float,
                           draws: int) -> None:
    se = sd * math.sqrt(1.0 / cached_draws + 1.0 / draws)
    if abs(cached - estimate) > MC_SIGMAS * se + 1e-12:
        raise CheckFailed(f"cached label {cached:.6g} vs independent estimate {estimate:.6g} "
                          f"(more than {MC_SIGMAS} standard errors of {se:.3g})")


# ---- evaluation ----


def report_counts(report, per_cell: int, tasks) -> None:
    for task in tasks:
        for level in range(1, 6):
            cell = report["cells"].get(task, {}).get(str(level))
            count = None if cell is None else cell["count"]
            if count != per_cell or cell is None or len(cell["values"]) != per_cell:
                raise CheckFailed(f"cell ({task}, {level}) holds {count} queries, expected {per_cell}")


def report_ranges(report) -> None:
    for task, levels in report["cells"].items():
        for level, cell in levels.items():
            values = np.asarray(cell["values"], dtype=np.float64)
            if cell["metric"] == "miou":
                if not ((values >= 0.0) & (values <= 1.0)).all():
                    raise CheckFailed(f"mIoU outside [0, 1] in ({task}, {level})")
            elif not (np.isfinite(values) & (values >= 0.0)).all():
                raise CheckFailed(f"cd_x1000 not finite and >= 0 in ({task}, {level})")
    outliers = report["denoising_outlier_centers"]
    rate = outliers["rate"]
    if rate is None:
        if outliers["total"] != 0:
            raise CheckFailed("outlier rate missing although centers were counted")
    elif not 0.0 <= rate <= 1.0:
        raise CheckFailed(f"denoising outlier rate {rate!r} outside [0, 1]")


def reports_equal(equal, a, b) -> None:
    if not equal(a, b):
        raise CheckFailed("a repeated evaluation of the same cell gave a different report")


def fps_greedy(points, picks, seed_index: int = 0) -> None:
    """Each pick maximizes the min squared distance to earlier picks."""
    points, picks = np.asarray(points), np.asarray(picks)
    if picks[0] != seed_index or len(set(picks.tolist())) != len(picks):
        raise CheckFailed("FPS picks do not start at the seed index or repeat a point")
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    for k in range(1, len(picks)):
        reach = d2[picks[:k]].min(axis=0)
        farthest = np.flatnonzero(reach >= reach.max() * (1.0 - FPS_RTOL))
        if picks[k] != farthest[0]:
            raise CheckFailed(f"FPS pick {k} (point {picks[k]}, reach {reach[picks[k]]:.6g}) is not "
                              f"the lowest-index farthest point {farthest[0]} (reach {reach.max():.6g})")


def captured_some(count: int) -> None:
    if count < 1:
        raise CheckFailed("no calls were captured")


def chamfer_matches_brute(a, b, result) -> None:
    """KD-tree nearest neighbours agree with an exhaustive search.

    Indices are checked only for attaining the minimum distance, not for
    being the lowest tied index.
    """
    d2_ab, idx_ab, d2_ba, idx_ba = result
    d2 = ((np.asarray(a)[:, None, :] - np.asarray(b)[None, :, :]) ** 2).sum(axis=2)
    for name, got, want in (("a->b", d2_ab, d2.min(axis=1)), ("b->a", d2_ba, d2.min(axis=0))):
        if not np.allclose(got, want, rtol=CHAMFER_RTOL, atol=CHAMFER_ATOL):
            raise CheckFailed(f"{name} distances differ from brute force by "
                              f"{float(np.abs(np.asarray(got) - want).max()):.3g}")
    rows = np.arange(len(d2_ab))
    cols = np.arange(len(d2_ba))
    if not (np.allclose(d2[rows, idx_ab], d2.min(axis=1), rtol=CHAMFER_RTOL, atol=CHAMFER_ATOL)
            and np.allclose(d2[idx_ba, cols], d2.min(axis=0), rtol=CHAMFER_RTOL, atol=CHAMFER_ATOL)):
        raise CheckFailed("a returned nearest index does not attain the minimum distance")
