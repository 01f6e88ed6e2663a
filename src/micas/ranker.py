"""Query-specific prompt ranking.

Candidates are scored by a small permutation-invariant network over the
(query, prompt input, prompt output) clouds and trained list-wise
against pseudo-labels: oracle performances min-max normalized per task and
oriented so that 1 is always best. Rank weighting follows reciprocal
competition ranks, so confusing the top of the list costs more than
confusing the tail.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff, geometry
from .autodiff import Node, ParamStore, Tape
from .errors import FormatError
from .tasks import TaskPair, PromptBank, decode_part_labels

LABEL_CACHE_MAGIC = b"MICASLC1"

# Raw performance orientation: mean IOU rewards higher values, Chamfer
# divergence rewards lower ones.
HIGHER_IS_BETTER = {"reconstruction": False, "denoising": False, "registration": False, "partseg": True}

SEGMENT_QUERY, SEGMENT_PROMPT_IN, SEGMENT_PROMPT_OUT = 0, 1, 2


@dataclass
class FusedCloud:
    """Query and prompt clouds stacked with per-point segment tags."""

    points: np.ndarray  # (3S, 3)
    segments: np.ndarray  # (3S,) in {0, 1, 2}

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        self.segments = np.asarray(self.segments, dtype=np.int64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("fused points must have shape (3S, 3)")
        if self.segments.shape != (self.points.shape[0],):
            raise ValueError("segment tags must align with fused points")
        if self.points.shape[0] % 3 != 0:
            raise ValueError("fused cloud must stack three equal-size clouds")


def fuse(query_in_pts, prompt: TaskPair) -> FusedCloud:
    """Stack query, prompt input, and prompt output in that fixed order."""
    q = geometry.as_points(query_in_pts)
    p_in, p_out = prompt.input.points, prompt.target.points
    if not len(q) == len(p_in) == len(p_out):
        raise ValueError("fusion requires equal point counts in all three clouds")
    points = np.vstack([q, p_in, p_out])
    segments = np.repeat([SEGMENT_QUERY, SEGMENT_PROMPT_IN, SEGMENT_PROMPT_OUT], len(q))
    return FusedCloud(points, segments)


@dataclass
class RankerConfig:
    width: int = 64
    k_candidates: int = 8

    def __post_init__(self):
        if self.width < 1 or self.k_candidates < 1:
            raise ValueError("width and k_candidates must be positive")


def init_ranker_params(cfg: RankerConfig, rng) -> ParamStore:
    store = ParamStore()
    w = cfg.width
    autodiff.init_affine(store, "score.l0", 3, w, rng)
    store.add("score.tags", rng.normal(0.0, 0.1, size=(3, w)))
    autodiff.init_affine(store, "score.l1", w, w, rng)
    autodiff.init_affine(store, "score.h0", w, w, rng)
    autodiff.init_affine(store, "score.h1", w, 1, rng)
    return store


def _point_stack(t: Tape, store: ParamStore, pts, segments) -> Node:
    tag_rows = t.gather_rows(t.param(store, "score.tags"), segments)
    h = t.add(autodiff.affine(t, store, "score.l0", t.const(pts)), tag_rows)
    return t.relu(autodiff.affine(t, store, "score.l1", t.relu(h)))


def _point_block(store: ParamStore, pts, segment: int) -> np.ndarray:
    """One cloud's (S, width) `_point_stack` output under one segment tag, without a tape, in its op order."""
    h = np.asarray(pts, dtype=np.float64) @ store["score.l0.w"].value
    h += store["score.l0.b"].value
    h += store["score.tags"].value[segment]
    np.maximum(h, 0.0, out=h)
    out = h @ store["score.l1.w"].value
    out += store["score.l1.b"].value
    return np.maximum(out, 0.0, out=out)


def pool_cloud(store: ParamStore, pts, segment: int) -> np.ndarray:
    """The pooled (width,) row of one cloud under one segment tag, computed without a tape.

    It depends only on the parameters, the cloud and the tag, so a prompt's
    rows can be computed once for every query that ranks the prompt.
    """
    return _point_block(store, pts, segment).max(axis=0)


def _row_affine(tape: Tape, store: ParamStore, name: str, x: Node) -> Node:
    return tape.add_row(tape.matmul_rows(x, tape.param(store, f"{name}.w")), tape.param(store, f"{name}.b"))


def score_head(tape: Tape, store: ParamStore, pooled: Node) -> Node:
    """The (K,) scores of K prompts from (2K + 1, width) pooled rows, as one node.

    The rows are the query's, then each prompt's input and output in turn.
    One elementwise maximum over the query's, the inputs' and the
    outputs' rows gives all K joint descriptors; that equals a max-pool
    over each prompt's fused rows, with ties going to the query, then the
    prompt input, then the prompt output. The head runs once over the
    (K, width) joint rows, but its products compute each row on its own
    (`Tape.matmul_rows`), so a prompt's score does not depend, not even in
    rounding, on which other prompts share the call.
    """
    k = np.arange((pooled.shape[0] - 1) // 2)
    joint = tape.maximum([tape.gather_rows(pooled, np.zeros_like(k)), tape.gather_rows(pooled, 1 + 2 * k),
                          tape.gather_rows(pooled, 2 + 2 * k)])
    head = tape.relu(_row_affine(tape, store, "score.h0", joint))
    return tape.reshape(_row_affine(tape, store, "score.h1", head), (len(k),))


def score_prompts(tape: Tape, store: ParamStore, cfg: RankerConfig, query_pts, prompts) -> Node:
    """The (K,) affinities of K (prompt input, prompt output) pairs for one query, as one node.

    Points pass through a shared per-point stack with an additive learned
    embedding per segment tag, a row max-pool collapses each cloud, and
    `score_head` maps the pooled rows to one score per prompt. Each of the
    2K + 1 clouds (the query, then every prompt's input and output) runs
    through the point stack on its own, so the query's pooled features
    are computed once and shared by every prompt. Permuting points within
    a cloud cannot change a score; all-zero parameters score 0.

    The clouds are pooled by `autodiff.row_sparse_maxpool`, one block per
    cloud: `_point_block` is its values pass, and on a recording tape
    only each cloud's first column maximizers, the lowest row on ties,
    run through `_point_stack`, each row tagged with its cloud's segment.
    """
    clouds = [query_pts] + [pts for pair in prompts for pts in pair]
    segments = np.array([SEGMENT_QUERY] + [SEGMENT_PROMPT_IN, SEGMENT_PROMPT_OUT] * len(prompts))
    return score_head(tape, store, autodiff.row_sparse_maxpool(
        tape, np.vstack(clouds), np.cumsum([0] + [len(pts) for pts in clouds[:-1]]),
        lambda pts, cloud: _point_block(store, pts, segments[cloud]),
        lambda pts, cloud: _point_stack(tape, store, pts, segments[cloud])))


def predict_score(tape: Tape, store: ParamStore, cfg: RankerConfig, fused: FusedCloud) -> Node:
    """Scalar affinity of one prompt for one query: score_prompts with one prompt."""
    query, prompt_in, prompt_out = (fused.points[fused.segments == s]
                                    for s in (SEGMENT_QUERY, SEGMENT_PROMPT_IN, SEGMENT_PROMPT_OUT))
    return tape.reshape(score_prompts(tape, store, cfg, query, [(prompt_in, prompt_out)]), ())


def competition_ranks(labels) -> np.ndarray:
    """Descending competition ranks: best label gets 1, ties share the min."""
    lab = np.asarray(labels, dtype=np.float64)
    if lab.ndim != 1 or len(lab) < 1:
        raise ValueError("labels must be a non-empty vector")
    return 1 + (lab[None, :] > lab[:, None]).sum(axis=1).astype(np.int64)


def rank_weight_matrix(labels) -> np.ndarray:
    """Coefficients c[i, j] = max(0, 1/rank_i - 1/rank_j)."""
    inv = 1.0 / competition_ranks(labels)
    return np.maximum(0.0, inv[:, None] - inv[None, :])


def listwise_rank_loss(tape: Tape, scores: Node, labels) -> Node:
    """Sum of c[i, j] * log(1 + exp(score_j - score_i)) over ordered pairs.

    `scores` is a (K,) node, such as `score_prompts` returns. Built from
    tape primitives, so it is differentiable end to end; the coefficients
    depend only on the labels and carry no gradient. Adding a constant to
    every score leaves the loss unchanged.
    """
    if scores.value.ndim != 1:
        raise ValueError(f"scores must be a (K,) node, got shape {scores.shape}")
    k = scores.shape[0]
    if k < 2:
        raise ValueError("ranking needs at least 2 candidates")
    coeff = rank_weight_matrix(labels)
    if coeff.shape != (k, k):
        raise ValueError("labels must match the candidate count")
    rows = tape.tile_rows(scores, k)  # entry (i, j) = score_j
    diffs = tape.add(rows, tape.scale(tape.transpose(rows), -1.0))
    return tape.weighted_sum(tape.softplus(diffs), coeff)


def raw_performance(task: str, predicted_stack, query: TaskPair) -> np.ndarray:
    """Task-native quality of each predicted cloud of a (D, S, 3) stack, as D values."""
    stack = np.asarray(predicted_stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError(f"expected a (D, S, 3) stack of predicted clouds, got shape {stack.shape}")
    if task == "partseg":
        if query.target.labels is None:
            raise ValueError("partseg query carries no part labels")
        num_parts = int(query.target.labels.max()) + 1
        return np.array([geometry.miou(decode_part_labels(pred, num_parts), query.target.labels, num_parts)
                         for pred in stack])
    return geometry.chamfer_distance_stack(stack, query.target.points)


class TaskNormalizer:
    """Per-task min-max bounds frozen once from the training split."""

    def __init__(self, bounds: dict[str, tuple[float, float]] | None = None):
        self.bounds = dict(bounds or {})

    def fit(self, task: str, raw_values) -> None:
        values = np.asarray(raw_values, dtype=np.float64)
        if values.ndim != 1 or len(values) < 1:
            raise ValueError("need at least one raw value to fit bounds")
        lo, hi = float(values.min()), float(values.max())
        if hi - lo <= 1e-12:  # degenerate split: park every label at 0.5
            lo, hi = lo - 0.5, lo + 0.5
        self.bounds[task] = (lo, hi)

    def to_label(self, task: str, raw: float) -> float:
        if task not in self.bounds:
            raise ValueError(f"no normalization bounds for task {task!r}")
        lo, hi = self.bounds[task]
        normalized = geometry.minmax_normalize(raw, lo, hi)
        return normalized if HIGHER_IS_BETTER[task] else 1.0 - normalized

    def to_dict(self) -> dict:
        return {
            task: {"lo": lo, "hi": hi, "higher_is_better": HIGHER_IS_BETTER[task]}
            for task, (lo, hi) in sorted(self.bounds.items())
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TaskNormalizer":
        return cls({task: (entry["lo"], entry["hi"]) for task, entry in data.items()})


@dataclass
class CandidateSet:
    """K prompts drawn for one query, with optional labels and scores."""

    prompts: list[TaskPair]
    indices: np.ndarray  # positions in the bank's per-task list
    labels: np.ndarray | None = None
    scores: np.ndarray | None = None


def build_candidate_pool(bank: PromptBank, task: str, k: int, rng, exclude: int | None = None) -> CandidateSet:
    """Draw k distinct same-task prompts uniformly without replacement.

    `exclude` removes one bank position from the draw, so a training query
    never ranks itself.
    """
    pool = bank.for_task(task)
    positions = np.arange(len(pool)) if exclude is None else np.delete(np.arange(len(pool)), exclude)
    if k < 1 or k > len(positions):
        raise ValueError(f"k must be in [1, {len(positions)}], got {k}")
    idx = rng.choice(positions, size=k, replace=False).astype(np.int64)
    return CandidateSet([pool[i] for i in idx], idx)


def pool_prompt(store: ParamStore, prompt: TaskPair) -> np.ndarray:
    """Pooled (2, width) input and output rows of one prompt pair, computed without a graph."""
    return np.stack([pool_cloud(store, prompt.input.points, SEGMENT_PROMPT_IN),
                     pool_cloud(store, prompt.target.points, SEGMENT_PROMPT_OUT)])


def select_pooled(store: ParamStore, cfg: RankerConfig, query_in_pts, prompt_rows, candidates: CandidateSet) -> int:
    """Index of the highest-scoring candidate, lowest index on ties.

    prompt_rows[i] is `pool_prompt` of the i-th candidate, so only the
    query cloud runs through the point stack; prompt_rows must have shape
    (K, 2, width) for K candidates. The scores, stored on `candidates`,
    equal those of `score_prompts` on a tape that records no graph, bit
    for bit.
    """
    if not candidates.prompts:
        raise ValueError("candidate set is empty")
    rows = np.asarray(prompt_rows, dtype=np.float64)
    if rows.shape != (len(candidates.prompts), 2, cfg.width):
        raise ValueError(f"prompt rows must have shape {(len(candidates.prompts), 2, cfg.width)} "
                         f"for {len(candidates.prompts)} candidates, got {rows.shape}")
    tape = Tape(record=False)
    query_row = pool_cloud(store, geometry.as_points(query_in_pts), SEGMENT_QUERY)
    pooled = np.vstack([query_row, rows.reshape(-1, cfg.width)])
    candidates.scores = score_head(tape, store, tape.const(pooled)).value
    return int(np.argmax(candidates.scores))


def save_label_cache(entries: dict[tuple[int, int], float], path) -> None:
    """Persist pseudo-labels keyed by (query id, candidate id)."""
    parts = [LABEL_CACHE_MAGIC, struct.pack("<I", len(entries))]
    for (query_id, candidate_id), label in entries.items():
        parts.append(struct.pack("<QQd", query_id, candidate_id, label))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_label_cache(path) -> dict[tuple[int, int], float]:
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 12 or buf[:8] != LABEL_CACHE_MAGIC:
        raise FormatError("bad label cache magic")
    (count,) = struct.unpack_from("<I", buf, 8)
    if len(buf) != 12 + 24 * count:
        raise FormatError("label cache length does not match its header")
    entries = {}
    for i in range(count):
        query_id, candidate_id, label = struct.unpack_from("<QQd", buf, 12 + 24 * i)
        entries[(query_id, candidate_id)] = label
    return entries


def save_ranker(store: ParamStore, cfg: RankerConfig, normalizer: TaskNormalizer, path) -> None:
    autodiff.save_params(store, path)
    meta = {
        "kind": "ranker",
        "width": cfg.width,
        "k_candidates": cfg.k_candidates,
        "normalizer": normalizer.to_dict(),
    }
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_ranker(path) -> tuple[ParamStore, RankerConfig, TaskNormalizer]:
    """Read a ranker checkpoint; its parameters must match the sidecar's architecture."""
    store = autodiff.load_params(path)
    with open(str(path) + ".json", "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta.get("kind") != "ranker":
        raise ValueError(f"checkpoint sidecar is not a ranker description: {meta.get('kind')!r}")
    cfg = RankerConfig(width=meta["width"], k_candidates=meta["k_candidates"])
    autodiff.check_layout(store, init_ranker_params(cfg, np.random.default_rng(0)))
    return store, cfg, TaskNormalizer.from_dict(meta["normalizer"])
