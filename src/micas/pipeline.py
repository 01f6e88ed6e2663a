"""End-to-end runs: data generation, two-stage training, evaluation.

Training is strictly staged. The sampler (plus its surrogate) trains
first; ranker training refuses to start without the sampler checkpoint,
reads it, and proves on exit that the file bytes never changed. Every
random decision derives from the run seed and stable identifiers, never
from global or wall-clock state, so equal seeds reproduce equal bytes on
one BLAS build. That holds under the package's one-thread BLAS pin (see
`micas/__init__.py`): a threaded BLAS can round a reduction differently
on another core count.
"""

from __future__ import annotations

import csv
import hashlib
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff, geometry, surrogate
from .config import RunConfig, config_hash
from .errors import ConfigurationError, FormatError, TrainingDiverged
from .ranker import (
    RankerConfig,
    build_candidate_pool,
    init_ranker_params,
    listwise_rank_loss,
    load_label_cache,
    load_ranker,
    raw_performance,
    save_label_cache,
    save_ranker,
    score_prompts,
    to_labels,
)
from .sampler import (
    SamplerConfig,
    gumbel_noise,
    inference_fn,
    init_sampler_params,
    load_sampler,
    sample,
    sampling_loss,
    save_sampler,
    tau_for_epoch,
)
from .surrogate import (
    OracleModel,
    SurrogateConfig,
    adaptive_centers_fn,
    init_surrogate_params,
    mask_indices,
    oracle_predict,
    surrogate_predict,
)
from .tasks import TASKS, TaskPair, dataset_bytes, gen_pair, load_dataset, save_dataset

REPORT_SCHEMA = "micas-report-v1"
VOLATILE_REPORT_KEYS = ("wall_time_seconds", "generated_unix")
SAMPLER_VARIANTS = ("adaptive", "fps")
PROMPT_VARIANTS = ("ranked", "random")
NEAR_HARD_THRESHOLD = 0.9
# Each task's report metric and the scale from its raw performance to that metric.
REPORT_METRICS = {task: ("miou", 1.0) if task == "partseg" else ("cd_x1000", 1000.0) for task in TASKS}
# One oracle draw is a high-variance sample of a prompt's worth: the noise it
# adds to a 256-point cloud swamps the std differences between candidates.
# Pseudo-labels therefore average this many draws per (query, candidate), a
# Monte-Carlo estimate of expected downstream performance.
LABEL_DRAWS = 16
# How a label's draws get their noise: each (query, candidate) label from a
# random stream of its own. The label cache's provenance names it, so labels
# of another scheme are recomputed, not reused.
LABEL_SCHEME = "independent-draws"

TRAIN_DATASET = "train.micasds"
TEST_DATASET = "test.micasds"
SAMPLER_CHECKPOINT = "sampler.micasnn"
RANKER_CHECKPOINT = "ranker.micasnn"
LABEL_CACHE = "labels.json"


def derive_seed(*parts) -> int:
    """Stable u64 from any mix of identifiers; independent of platform."""
    key = ":".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sampler_config(cfg: RunConfig) -> SamplerConfig:
    return SamplerConfig(d1=cfg.d1, d2=cfg.d2, n_centers=cfg.n_centers, width=cfg.sampler_width,
                         tau_start=cfg.tau_start, tau_end=cfg.tau_end, alpha=cfg.alpha)


def surrogate_config(cfg: RunConfig) -> SurrogateConfig:
    return SurrogateConfig(d1=cfg.d1, m_neighbors=cfg.m_neighbors, width=cfg.surrogate_width)


def ranker_config(cfg: RunConfig) -> RankerConfig:
    return RankerConfig(width=cfg.ranker_width)


def _check_checkpoint_config(what: str, loaded, expected) -> None:
    """ConfigurationError naming the first field where a loaded checkpoint's config differs from the run config's."""
    for field in fields(expected):
        got, want = getattr(loaded, field.name), getattr(expected, field.name)
        if got != want:
            raise ConfigurationError(
                f"the {what} checkpoint has {field.name} = {got!r} but this run config gives {field.name} = {want!r}")


# ---- data ----


def generate_pairs(cfg: RunConfig) -> tuple[list[TaskPair], list[TaskPair]]:
    """Train and test splits covering every (task, level) cell."""
    splits = []
    for split, per_cell in (("train", cfg.train_per_cell), ("test", cfg.test_per_cell)):
        pairs = []
        for task in TASKS:
            for level in range(1, 6):
                for i in range(per_cell):
                    seed = derive_seed(cfg.seed, split, task, level, i)
                    pairs.append(gen_pair(task, level, cfg.s_points, seed))
        splits.append(pairs)
    return splits[0], splits[1]


def write_datasets(cfg: RunConfig, out_dir) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train, test = generate_pairs(cfg)
    train_path, test_path = out / TRAIN_DATASET, out / TEST_DATASET
    save_dataset(train, train_path)
    save_dataset(test, test_path)
    return train_path, test_path


def _indices_by_task(pairs) -> dict[str, list[int]]:
    """Each task's pair indices in split order: the pool a query of that task draws its candidate prompts from."""
    by_task: dict[str, list[int]] = {}
    for i, pair in enumerate(pairs):
        by_task.setdefault(pair.task, []).append(i)
    return by_task


def _train_pools(train_pairs) -> dict[str, list[int]]:
    """_indices_by_task(train_pairs), or ConfigurationError if the train split is empty."""
    if not train_pairs:
        raise ConfigurationError("the train split holds no pairs")
    return _indices_by_task(train_pairs)


def _candidate_pools(cfg: RunConfig, train_pairs, query_tasks, held_out: int) -> dict[str, list[int]]:
    """_train_pools(train_pairs), or ConfigurationError for the first task in query_tasks whose queries cannot
    draw k_candidates prompts, then for a train cloud of another s_points; held_out is 1 for a training query,
    which never ranks itself."""
    pools = _train_pools(train_pairs)
    for task in sorted(set(query_tasks)):
        size = len(pools.get(task, ()))
        if size - held_out < cfg.k_candidates:
            raise ConfigurationError(
                f"k_candidates = {cfg.k_candidates} exceeds the {size - held_out} prompts a {task!r} query can draw "
                f"from the train split's {size} {task!r} pairs; was the split generated under a smaller "
                f"train_per_cell than this config's {cfg.train_per_cell}?")
    _check_s_points(cfg, train_pairs, "train")
    return pools


def _check_s_points(cfg: RunConfig, pairs, split: str) -> None:
    """ConfigurationError naming s_points and the first pair of `pairs` that holds a cloud of another size."""
    for i, pair in enumerate(pairs):
        for cloud in (pair.input, pair.target):
            if cloud.size != cfg.s_points:
                raise ConfigurationError(
                    f"pair {i} of the {split} split holds a {cloud.size}-point cloud, but this config's s_points "
                    f"is {cfg.s_points}; was the split generated under another s_points?")


# ---- sampler training ----


def item_loss(sampler_store, surrogate_store, s_cfg: SamplerConfig, sur_cfg: SurrogateConfig,
              mask_ratio: float, query: TaskPair, prompt: TaskPair, tau: float,
              noise, mask_rng=None, frozen=None):
    """Build the full per-example training tape and return (result, loss, frozen).

    The forward pass samples centers for the query input conditioned on
    the prompt pair, projects the query's soft weights through the target
    cloud to place ground-truth patches, hides a mask of them,
    reconstructs the hidden ones with the surrogate, and scores
    reconstruction plus coverage.

    `frozen` carries (hidden, gt_masked, context) to pin the
    non-differentiable choices: the sorted hidden patch indices, their
    ground-truth points, and the mean point of the visible patches (zeros
    when every patch is hidden); pass the previous return value to rebuild
    a bitwise-identical loss, e.g. for finite-difference probes. `noise` is
    the query's (S, N) Gumbel draw; None samples without perturbation.
    """
    if noise is None:
        noise = np.zeros((query.input.size, s_cfg.n_centers))
    res = sample(sampler_store, query.input.points, prompt.input.points, prompt.target.points, tau, noise)
    tape = res.tape
    if frozen is None:
        target_centers = res.soft_query.value.T @ query.target.points
        patches = geometry.knn_patches(query.target.points, target_centers, sur_cfg.m_neighbors)
        hidden = mask_indices(len(patches), mask_ratio, mask_rng)
        if len(hidden) == 0:
            raise ConfigurationError("mask ratio leaves no patch hidden; nothing to train on")
        visible = np.delete(patches, hidden, axis=0)
        context = visible.reshape(-1, 3).mean(axis=0) if len(visible) else np.zeros(3)
        frozen = (hidden, patches[hidden], context)
    hidden, gt_masked, context = frozen
    masked_centers = tape.gather_rows(res.centers_query, hidden)
    preds = surrogate_predict(tape, surrogate_store, sur_cfg, res.task_feature, masked_centers, context)
    loss = sampling_loss(tape, preds, gt_masked, res.centers_query, query.input.points, s_cfg.alpha)
    return res, loss, frozen


@dataclass
class SamplerTraining:
    sampler_path: Path
    history: list


def train_sampler(cfg: RunConfig, train_pairs, out_dir) -> SamplerTraining:
    """Stage one: fit the sampler and surrogate jointly on the train split."""
    if int(np.rint(cfg.mask_ratio * cfg.n_centers)) < 1:
        raise ConfigurationError("mask_ratio * n_centers rounds to zero patches")
    by_task = _train_pools(train_pairs)
    _check_s_points(cfg, train_pairs, "train")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    s_cfg, sur_cfg = sampler_config(cfg), surrogate_config(cfg)
    sampler_store = init_sampler_params(s_cfg, np.random.default_rng(derive_seed(cfg.seed, "sampler-init")))
    surrogate_store = init_surrogate_params(sur_cfg, np.random.default_rng(derive_seed(cfg.seed, "surrogate-init")))
    history = []
    for epoch in range(cfg.sampler_epochs):
        rng = np.random.default_rng(derive_seed(cfg.seed, "sampler-epoch", epoch))
        tau = tau_for_epoch(epoch, cfg.sampler_epochs, s_cfg)
        order = rng.permutation(len(train_pairs))
        losses = []
        for start in range(0, len(order), cfg.sampler_batch):
            batch = order[start : start + cfg.sampler_batch]
            for item in batch:
                query = train_pairs[item]
                peers = [i for i in by_task[query.task] if i != item] or [item]
                prompt = train_pairs[peers[int(rng.integers(len(peers)))]]
                noise = gumbel_noise(rng, (query.input.size, cfg.n_centers))
                # Only the query is sampled. The prompt-sized draw is discarded
                # but still made, so the epoch's rng stream, and with it every
                # later mask and prompt choice, stays the one that earlier
                # checkpoints were trained on.
                gumbel_noise(rng, (prompt.input.size, cfg.n_centers))
                res, loss, _ = item_loss(sampler_store, surrogate_store, s_cfg, sur_cfg,
                                         cfg.mask_ratio, query, prompt, tau, noise, mask_rng=rng)
                if not np.isfinite(loss.value):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, pair seed {query.seed}")
                losses.append(float(loss.value))
                loss_scale = 1.0 / len(batch)
                res.tape.backward(loss_scale)
            lr = autodiff.sgd_cosine_step(sampler_store, epoch, cfg.sampler_epochs,
                                          cfg.sampler_lr0, cfg.sampler_lr_min)
            autodiff.sgd_cosine_step(surrogate_store, epoch, cfg.sampler_epochs,
                                     cfg.sampler_lr0, cfg.sampler_lr_min)
        history.append({"epoch": epoch, "lr": lr, "tau": tau, "mean_loss": float(np.mean(losses))})
    sampler_path = out / SAMPLER_CHECKPOINT
    save_sampler(sampler_store, s_cfg, sampler_path)
    geometry.write_json(out / "sampler_train.json", {"config_sha256": config_hash(cfg), "history": history})
    return SamplerTraining(sampler_path, history)


# ---- ranker training ----


def pseudo_label_raw(oracle: OracleModel, query: TaskPair, prompt: TaskPair, rng) -> float:
    """Mean raw performance of `prompt` on `query` over LABEL_DRAWS oracle draws.

    Centers and the oracle's sigma depend on (query, prompt) but not on
    the draw, so both are computed once per label: one oracle_predict call
    returns all LABEL_DRAWS noisy predictions as one stack, and one
    raw_performance call scores it. Every draw is a noisy copy of the same
    query target, so a Chamfer task matches all of them through one tree
    and neighbour table of that target. Through `adaptive_centers_fn`, a
    query's points are encoded once for all of its candidates, which
    train_ranker labels in a row.
    """
    centers = oracle.centers_fn(query.input.points, prompt)
    preds = oracle_predict(query.input.points, query.target.points, prompt.input.points,
                           centers, rng, LABEL_DRAWS)
    return float(np.mean(raw_performance(query.task, preds, query)))


@dataclass
class RankerTraining:
    ranker_path: Path
    labels_path: Path
    history: list
    sampler_sha256: str


def train_ranker(cfg: RunConfig, train_pairs, sampler_path, out_dir) -> RankerTraining:
    """Stage two: fit the scorer against oracle pseudo-labels.

    Requires the stage-one checkpoint, trained under this run config's
    sampler settings; refuses to run without it and verifies after
    training that its bytes are untouched. A candidate is
    the train-split index of a pair of the query's task, never the query's
    own. Each SGD batch is one `score_prompts` call on one tape with one
    backward, dropped before the next batch; prompt clouds are the train
    pairs' own arrays, so a pair that several queries of a batch rank is
    pooled once.
    """
    by_task = _candidate_pools(cfg, train_pairs, [pair.task for pair in train_pairs], held_out=1)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sampler_path = Path(sampler_path)
    if not sampler_path.exists():
        raise ConfigurationError(
            f"ranker training requires a trained sampler checkpoint at {sampler_path}")
    sha_before = file_sha256(sampler_path)
    sampler_store, s_cfg = load_sampler(sampler_path)
    _check_checkpoint_config("sampler", s_cfg, sampler_config(cfg))
    r_cfg = ranker_config(cfg)
    oracle = OracleModel(adaptive_centers_fn(sampler_store, s_cfg))

    # Frozen candidates, one list of split indices per query, then oracle raw performances.
    candidates = [build_candidate_pool(by_task[query.task], cfg.k_candidates,
                                       np.random.default_rng(derive_seed(cfg.seed, "candidates", qid)),
                                       exclude=qid).tolist()
                  for qid, query in enumerate(train_pairs)]
    labels_path = out / LABEL_CACHE
    provenance = {"sampler_sha256": sha_before, "seed": cfg.seed, "label_draws": LABEL_DRAWS,
                  "label_scheme": LABEL_SCHEME, "train_sha256": hashlib.sha256(dataset_bytes(train_pairs)).hexdigest(),
                  "oracle": {"sigma0": surrogate.ORACLE_SIGMA0,
                             "center_gain": surrogate.ORACLE_CENTER_GAIN,
                             "prompt_gain": surrogate.ORACLE_PROMPT_GAIN}}
    # Cached labels are reused only if computed from this exact sampler, seed, draw count, label
    # scheme, oracle and train split; otherwise all are redone, as they are after a write cut short.
    raw_cache = load_label_cache(labels_path, provenance)
    missing = [(qid, cid) for qid, cids in enumerate(candidates) for cid in cids if (qid, cid) not in raw_cache]
    for qid, cid in missing:
        rng = np.random.default_rng(derive_seed(cfg.seed, "label", qid, cid))
        raw_cache[qid, cid] = pseudo_label_raw(oracle, train_pairs[qid], train_pairs[cid], rng)
    if missing:
        save_label_cache(raw_cache, provenance, labels_path)

    labels = np.empty((len(train_pairs), cfg.k_candidates))
    for task, ids in by_task.items():
        raws = np.array([[raw_cache[qid, cid] for cid in candidates[qid]] for qid in ids])
        labels[ids] = to_labels(task, raws, raws)
    prompt_clouds = [[(train_pairs[c].input.points, train_pairs[c].target.points) for c in cids] for cids in candidates]
    ranker_store = init_ranker_params(r_cfg, np.random.default_rng(derive_seed(cfg.seed, "ranker-init")))

    def batch_step(batch, epoch) -> float:
        tape = autodiff.Tape()
        scores = score_prompts(tape, ranker_store, [train_pairs[qid].input.points for qid in batch],
                               [prompt_clouds[qid] for qid in batch])
        loss = listwise_rank_loss(tape, scores, labels[batch])
        if not np.isfinite(loss.value):
            raise TrainingDiverged(f"non-finite rank loss at epoch {epoch}, queries {batch.tolist()}")
        tape.backward(1.0 / len(batch))
        return float(loss.value)

    history = []
    for epoch in range(cfg.ranker_epochs):
        rng = np.random.default_rng(derive_seed(cfg.seed, "ranker-epoch", epoch))
        order = rng.permutation(len(train_pairs))
        losses = []
        for start in range(0, len(order), cfg.ranker_batch):
            losses.append(batch_step(order[start : start + cfg.ranker_batch], epoch))
            autodiff.sgd_cosine_step(ranker_store, epoch, cfg.ranker_epochs,
                                     cfg.ranker_lr0, cfg.ranker_lr_min)
        history.append({"epoch": epoch, "mean_loss": sum(losses) / len(order)})

    sha_after = file_sha256(sampler_path)
    if sha_after != sha_before:
        raise RuntimeError("sampler checkpoint changed during ranker training; stage contract broken")
    ranker_path = out / RANKER_CHECKPOINT
    save_ranker(ranker_store, r_cfg, ranker_path)
    geometry.write_json(out / "ranker_train.json", {
        "config_sha256": config_hash(cfg),
        "sampler_sha256": sha_before,
        "sampler_sha256_after": sha_after,
        "history": history,
    })
    return RankerTraining(ranker_path, labels_path, history, sha_before)


# ---- evaluation ----


def evaluate(cfg: RunConfig, test_pairs, train_pairs, sampler_art=None, ranker_art=None,
             sampler_variant: str = "adaptive", prompt_variant: str = "ranked") -> dict:
    """Score a test split under one (sampling, prompting) ablation cell.

    sampler_art is (store, SamplerConfig) and ranker_art is
    (store, RankerConfig); each may be None when the
    corresponding baseline variant is requested, and a ConfigurationError
    refuses one whose config differs from the run config's. Results are bitwise
    reproducible for a fixed seed: each query owns an rng seeded by
    run_seed XOR query_id. Candidates are train-split indices of the
    query's task; a ConfigurationError names a task with fewer than
    k_candidates of them, before any work is done. The
    ranked cell scores all of a task's queries in one `score_prompts` call
    and picks each query's top candidate; the adaptive cell samples
    through one `inference_fn`.
    """
    if sampler_variant not in SAMPLER_VARIANTS:
        raise ConfigurationError(f"sampler_variant must be one of {SAMPLER_VARIANTS}")
    if prompt_variant not in PROMPT_VARIANTS:
        raise ConfigurationError(f"prompt_variant must be one of {PROMPT_VARIANTS}")
    if sampler_variant == "adaptive":
        if sampler_art is None:
            raise ConfigurationError("adaptive sampling requested but no sampler checkpoint given")
        _check_checkpoint_config("sampler", sampler_art[1], sampler_config(cfg))
    if prompt_variant == "ranked":
        if ranker_art is None:
            raise ConfigurationError("ranked prompting requested but no ranker checkpoint given")
        _check_checkpoint_config("ranker", ranker_art[1], ranker_config(cfg))
    pools = _candidate_pools(cfg, train_pairs, [query.task for query in test_pairs], held_out=0)
    _check_s_points(cfg, test_pairs, "test")
    started = time.time()
    # Each query owns one rng and uses it in a fixed order: its candidates,
    # then the random pick, then the oracle's noise.
    rngs = [np.random.default_rng(np.uint64(cfg.seed) ^ np.uint64(qid)) for qid in range(len(test_pairs))]
    drawn = [build_candidate_pool(pools[query.task], cfg.k_candidates, rng) for query, rng in zip(test_pairs, rngs)]
    if prompt_variant == "ranked":
        # A task's queries all draw from one pool, so one call per task
        # pools each drawn prompt cloud once.
        picks = [0] * len(test_pairs)
        clouds = [(pair.input.points, pair.target.points) for pair in train_pairs]
        for ids in _indices_by_task(test_pairs).values():
            scores = score_prompts(autodiff.Tape(record=False), ranker_art[0],
                                   [test_pairs[i].input.points for i in ids],
                                   [[clouds[c] for c in drawn[i]] for i in ids])
            for i, row in zip(ids, scores.value):
                picks[i] = int(drawn[i][np.argmax(row)])  # exact ties go to the lowest index
    else:
        picks = [int(ids[rng.integers(len(ids))]) for ids, rng in zip(drawn, rngs)]
    infer = inference_fn(*sampler_art) if sampler_variant == "adaptive" else None

    def eval_one(query, prompt, rng):
        # hard: the input rows the centers pick outright, the near-hard
        # columns' argmax rows or the FPS picks
        if sampler_variant == "adaptive":
            res = infer(query.input.points, prompt)
            centers = res.centers_query.value
            soft = res.soft_query.value
            hard = soft.argmax(axis=0)[soft.max(axis=0) >= NEAR_HARD_THRESHOLD]
        else:
            hard = geometry.fps_select(query.input.points, cfg.n_centers)
            centers = query.input.points[hard]
        predicted = oracle_predict(query.input.points, query.target.points,
                                   prompt.input.points, centers, rng)
        raw = float(raw_performance(query.task, predicted, query)[0])
        metric, scale = REPORT_METRICS[query.task]
        row = {"task": query.task, "level": query.level, "metric": metric, "value": raw * scale}
        if query.task == "denoising" and query.input.noise_mask is not None:
            row["outlier_hits"] = int(query.input.noise_mask[hard].sum())
            row["outlier_total"] = len(hard)
        return row

    rows = [eval_one(query, train_pairs[pick], rng) for query, pick, rng in zip(test_pairs, picks, rngs)]

    cells: dict[str, dict[str, dict]] = {}
    for task in sorted({r["task"] for r in rows}):
        cells[task] = {}
        for level in range(1, 6):
            values = [r["value"] for r in rows if r["task"] == task and r["level"] == level]
            if values:
                cells[task][str(level)] = {
                    "metric": REPORT_METRICS[task][0],
                    "mean": float(np.mean(values)),
                    "count": len(values),
                    "values": [float(v) for v in values],
                }
    task_means = {
        task: {
            "metric": REPORT_METRICS[task][0],
            "mean": float(np.mean([v for lvl in levels.values() for v in lvl["values"]])),
        }
        for task, levels in cells.items()
    }
    hits = sum(r.get("outlier_hits", 0) for r in rows)
    total = sum(r.get("outlier_total", 0) for r in rows)
    report = {
        "schema": REPORT_SCHEMA,
        "seed": cfg.seed,
        "config_sha256": config_hash(cfg),
        "sampler_variant": sampler_variant,
        "prompt_variant": prompt_variant,
        "cells": cells,
        "tasks": task_means,
        "denoising_outlier_centers": {
            "hits": int(hits),
            "total": int(total),
            "rate": (float(hits) / total) if total else None,
        },
        "wall_time_seconds": time.time() - started,
        "generated_unix": time.time(),
    }
    return report


def write_report(report: dict, out_dir) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "report.json"
    geometry.write_json(json_path, report)
    csv_path = out / "report.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "level", "metric", "mean", "count"])
        for task in sorted(report["cells"]):
            for level in sorted(report["cells"][task], key=int):
                cell = report["cells"][task][level]
                writer.writerow([task, level, cell["metric"], f"{cell['mean']:.9g}", cell["count"]])
    return json_path, csv_path


def load_report(path) -> dict:
    """A stored report; FormatError unless the file holds a JSON object of schema REPORT_SCHEMA with every field
    that `micas report` prints, each of the type it prints."""
    report = geometry.read_json(path, f"report {path}")
    if report.get("schema") != REPORT_SCHEMA:
        raise FormatError(f"{path} is not a {REPORT_SCHEMA} report")
    for key in ("sampler_variant", "prompt_variant", "seed", "cells", "tasks"):
        if key not in report:
            raise FormatError(f"report {path} lacks field {key!r}")

    kinds = {"metric": ("a string", str), "mean": ("a number", (int, float)), "count": ("an integer", int),
             "hits": ("an integer", int), "rate": ("a number", (int, float))}

    def entry(value, where: str, keys=()) -> dict:
        if not isinstance(value, dict):
            raise FormatError(f"report {path}: {where} is not an object: {value!r}")
        for key in keys:
            if key not in value:
                raise FormatError(f"report {path}: {where} lacks field {key!r}")
            kind, types = kinds[key]
            if isinstance(value[key], bool) or not isinstance(value[key], types):
                raise FormatError(f"report {path}: {where} field {key!r} is not {kind}: {value[key]!r}")
        return value

    for task, levels in entry(report["cells"], "cells").items():
        for level, cell in entry(levels, f"task {task!r} cells").items():
            if not level.isdecimal():
                raise FormatError(f"report {path}: task {task!r} level {level!r} is not a level number")
            entry(cell, f"task {task!r} level {level}", ("metric", "mean", "count"))
    for task, summary in entry(report["tasks"], "tasks").items():
        entry(summary, f"task {task!r} level all", ("metric", "mean"))
    outliers = entry(report.get("denoising_outlier_centers", {}), "denoising_outlier_centers")
    if outliers.get("total"):
        entry(outliers, "denoising_outlier_centers", ("hits", "rate"))
    return report


def report_equal(a: dict, b: dict) -> bool:
    """Exact equality of two reports apart from their top-level wall-clock fields."""
    stable = [{key: value for key, value in report.items() if key not in VOLATILE_REPORT_KEYS} for report in (a, b)]
    return stable[0] == stable[1]


# ---- whole runs ----


def full_run(cfg: RunConfig, workdir) -> dict:
    """gen-data, train-sampler, train-ranker, then eval of the adaptive, ranked cell, in one working directory."""
    work = Path(workdir)
    train_path, test_path = write_datasets(cfg, work / "data")
    train_pairs, test_pairs = load_dataset(train_path), load_dataset(test_path)
    trained = train_sampler(cfg, train_pairs, work / "artifacts")
    ranked = train_ranker(cfg, train_pairs, trained.sampler_path, work / "artifacts")
    sampler_art = load_sampler(trained.sampler_path)
    ranker_art = load_ranker(ranked.ranker_path)
    report = evaluate(cfg, test_pairs, train_pairs, sampler_art, ranker_art)
    write_report(report, work / "eval")
    return report
