"""Query-specific prompt ranking.

Candidates are scored by a small permutation-invariant network over the
(query, prompt input, prompt output) clouds, each point tagged with its
cloud's one-hot segment columns, and trained list-wise
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
from .tasks import TaskPair, decode_part_labels

LABEL_CACHE_MAGIC = b"MICASLC1"

# Raw performance orientation: mean IOU rewards higher values, Chamfer
# divergence rewards lower ones.
HIGHER_IS_BETTER = {"reconstruction": False, "denoising": False, "registration": False, "partseg": True}

SEGMENT_QUERY, SEGMENT_PROMPT_IN, SEGMENT_PROMPT_OUT = 0, 1, 2


def fuse(query_in_pts, prompt: TaskPair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (query, prompt input, prompt output) clouds, which must hold equally many points."""
    q = geometry.as_points(query_in_pts)
    p_in, p_out = prompt.input.points, prompt.target.points
    if not len(q) == len(p_in) == len(p_out):
        raise ValueError("fusion requires equal point counts in all three clouds")
    return q, p_in, p_out


@dataclass
class RankerConfig:
    width: int = 64

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be positive")


def init_ranker_params(cfg: RankerConfig, rng) -> ParamStore:
    """`autodiff.init_affine` layers, except that rows 3-5 of `score.point.0.w`,
    which read the one-hot segment columns, are drawn from N(0, 0.1) after its He-normal xyz rows."""
    store, w = ParamStore(), cfg.width
    store.add("score.point.0.w", np.vstack([rng.normal(0.0, np.sqrt(2.0 / 3), size=(3, w)),
                                            rng.normal(0.0, 0.1, size=(3, w))]))
    store.add("score.point.0.b", np.zeros(w))
    autodiff.init_affine(store, "score.point.1", w, w, rng)
    autodiff.init_affine(store, "score.h0", w, w, rng)
    autodiff.init_affine(store, "score.h1", w, 1, rng)
    return store


def _row_affine(tape: Tape, store: ParamStore, name: str, x: Node) -> Node:
    return tape.affine_rows(x, tape.param(store, f"{name}.w"), tape.param(store, f"{name}.b"))


def score_prompts(tape: Tape, store: ParamStore, queries, prompts) -> Node:
    """The (B, K) affinities of K (prompt input, prompt output) pairs for each of B queries, as one node.

    prompts[b] holds query b's K pairs; one query is the B = 1 case, and
    row b equals that case's scores for query b, bit for bit. Each point,
    as its xyz followed by the one-hot columns of its segment tag, passes
    through a shared 2-layer ReLU MLP, and a row max-pool collapses each
    cloud. A second max-pool over each prompt's query, input and output
    rows, in that order, gives its joint descriptor; that equals one
    max-pool over the stack of the prompt's three tagged clouds, with ties
    going to the query, then the prompt input, then the prompt output. The
    head runs once over all joint rows, but its affine layers compute each
    row on its own (`Tape.affine_rows`), so a score does not depend, not
    even in rounding, on which others share the call. Permuting points
    within a cloud cannot change a score; all-zero parameters score 0.

    Each distinct (cloud, segment) block, told apart by array identity, is
    pooled once per call by `autodiff.row_sparse_maxpool`; a recording tape
    records the MLP only on each block's first column maximizers, the
    lowest row on ties.
    """
    blocks = {}  # (id(cloud), segment) -> (block index, cloud, segment), in first-use order
    joint = np.array([[[blocks.setdefault((id(pts), seg), (len(blocks), pts, seg))[0]
                        for pts, seg in ((query, SEGMENT_QUERY), (p_in, SEGMENT_PROMPT_IN), (p_out, SEGMENT_PROMPT_OUT))]
                       for p_in, p_out in pairs] for query, pairs in zip(queries, prompts, strict=True)])
    tagged = [np.hstack([pts, np.tile(np.eye(3)[seg], (len(pts), 1))]) for _, pts, seg in blocks.values()]
    pooled = autodiff.row_sparse_maxpool(tape, store, "score.point", tagged, "relu")
    rows = tape.maxpool_segments(tape.gather_rows(pooled, joint.ravel()), np.arange(0, joint.size, 3))
    head = tape.relu(_row_affine(tape, store, "score.h0", rows))
    return tape.reshape(_row_affine(tape, store, "score.h1", head), joint.shape[:2])


def predict_score(tape: Tape, store: ParamStore, cfg: RankerConfig, fused) -> Node:
    """Scalar affinity of one prompt for one query: score_prompts on the `fuse` triple."""
    query, prompt_in, prompt_out = fused
    return tape.reshape(score_prompts(tape, store, [query], [[(prompt_in, prompt_out)]]), ())


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
    """Sum over queries of c[i, j] * log(1 + exp(score_j - score_i)) over each query's ordered pairs.

    `scores` is a (B, K) node, such as `score_prompts` returns, with (B, K)
    labels. Built from tape primitives, so it is differentiable end to
    end; the coefficients depend only on each query's labels and carry no
    gradient. Adding a constant to a query's scores leaves the loss unchanged.
    """
    b, k = scores.shape  # a ValueError unless (B, K)
    labels = np.asarray(labels, dtype=np.float64)
    if k < 2 or labels.shape != (b, k):
        raise ValueError(f"need K >= 2 candidates and labels shaped as the scores, got {labels.shape} for {(b, k)}")
    coeff = np.vstack([rank_weight_matrix(row) for row in labels])
    rows = tape.gather_rows(scores, np.repeat(np.arange(b), k))  # entry (bK + i, j) = score[b, j]
    cols = tape.transpose(tape.tile_rows(tape.reshape(scores, (b * k,)), k))  # entry (bK + i, j) = score[b, i]
    diffs = tape.add(rows, tape.scale(cols, -1.0))
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
        """Finite bounds with lo < hi in `to_dict`'s layout; FormatError names the first task that breaks it."""
        for task, entry in data.items():
            numeric = isinstance(entry, dict) and all(type(entry.get(key)) in (int, float) for key in ("lo", "hi"))
            if task not in HIGHER_IS_BETTER or not numeric or not -np.inf < entry["lo"] < entry["hi"] < np.inf \
                    or entry != {"lo": entry["lo"], "hi": entry["hi"], "higher_is_better": HIGHER_IS_BETTER[task]}:
                raise FormatError(f"normalizer entry {task!r} is not a known task's finite lo < hi and orientation: "
                                  f"{entry!r}")
        return cls({task: (float(entry["lo"]), float(entry["hi"])) for task, entry in data.items()})


def build_candidate_pool(pool, k: int, rng, exclude: int | None = None) -> np.ndarray:
    """k distinct entries of `pool`, one task's train-split indices, drawn uniformly without replacement.

    `exclude`, a training query's own split index, is left out of the draw,
    so a training query never ranks itself.
    """
    ids = np.asarray(pool, dtype=np.int64)
    if exclude is not None:
        ids = ids[ids != exclude]
    if k < 1 or k > len(ids):
        raise ValueError(f"k must be in [1, {len(ids)}], got {k}")
    return rng.choice(ids, size=k, replace=False)


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
    records = np.frombuffer(buf, dtype=[("query", "<u8"), ("candidate", "<u8"), ("label", "<f8")], offset=12)
    bad = np.flatnonzero(~np.isfinite(records["label"]))
    if len(bad):
        raise FormatError(f"label cache entry {bad[0]} holds a non-finite label {records['label'][bad[0]]}")
    return {(query_id, candidate_id): label for query_id, candidate_id, label in records.tolist()}


def save_ranker(store: ParamStore, cfg: RankerConfig, normalizer: TaskNormalizer, path) -> None:
    autodiff.save_params(store, path)
    meta = {
        "kind": "ranker",
        "width": cfg.width,
        "normalizer": normalizer.to_dict(),
    }
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_ranker(path) -> tuple[ParamStore, RankerConfig, TaskNormalizer]:
    """Read a ranker checkpoint; its parameters must match the sidecar's architecture."""
    store = autodiff.load_params(path)
    meta = autodiff.read_sidecar(path, "ranker", {"width": int, "normalizer": dict})
    cfg = RankerConfig(width=meta["width"])
    autodiff.check_layout(store, init_ranker_params(cfg, np.random.default_rng(0)))
    return store, cfg, TaskNormalizer.from_dict(meta["normalizer"])
