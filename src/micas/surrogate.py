"""Stand-in in-context models that consume sampled centers.

* surrogate_predict, a small differentiable network that reconstructs
  masked patches from their centers, the task feature, and a
  visible-context summary. It provides the training signal for the sampler.
* oracle_predict, a non-differentiable reference whose output is the
  ground truth corrupted by noise that grows with how badly the centers
  cover the query and how unrelated the prompt is. It supplies
  pseudo-labels for ranking and the final evaluation scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff, geometry
from .autodiff import Node, ParamStore, Tape
from .sampler import SamplerConfig, inference_fn

# Noise model of the oracle: sigma scales with center coverage error and
# prompt mismatch, both measured by Chamfer divergence against the query.
ORACLE_SIGMA0 = 0.01
ORACLE_CENTER_GAIN = 5.0
ORACLE_PROMPT_GAIN = 1.0

# Per-axis reach of a predicted patch around its anchor. Clouds live in the
# unit cube, so a bounded span means a patch far from its anchor cannot be
# reconstructed at all; placing anchors well is the only way to a low loss,
# which is exactly the pressure the sampler needs.
OFFSET_SPAN = 0.15


def mask_indices(n: int, ratio: float, rng) -> np.ndarray:
    """Sorted indices of round(ratio * n) patches drawn at random to be hidden, out of n."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("mask ratio must be in [0, 1]")
    count = int(np.rint(ratio * n))
    return np.sort(rng.choice(n, size=count, replace=False)) if count else np.empty(0, np.int64)


@dataclass
class SurrogateConfig:
    d1: int = 64  # must match the sampler's task feature width
    m_neighbors: int = 16
    width: int = 64

    def __post_init__(self):
        if min(self.d1, self.m_neighbors, self.width) < 1:
            raise ValueError("architecture sizes must be positive")


def init_surrogate_params(cfg: SurrogateConfig, rng) -> ParamStore:
    store = ParamStore()
    autodiff.init_mlp(store, "sur", [3 + cfg.d1 + 3, cfg.width, cfg.m_neighbors * 3], rng)
    store["sur.1.w"].value *= 0.02  # start patches near their centers, inside the cube
    return store


def surrogate_predict(tape: Tape, store: ParamStore, cfg: SurrogateConfig,
                      task_feature: Node, centers: Node, context) -> Node:
    """Predict a (P, M, 3) node of patches, patch p anchored at center row p.

    Each patch is its center plus an MLP offset field conditioned on the
    task feature and the visible-context summary, so with all-zero
    parameters every predicted patch collapses onto its center. Offsets
    are tanh-squashed to OFFSET_SPAN per axis: the network can shape a
    local patch but cannot relocate it, so anchor placement stays load
    bearing.
    """
    if task_feature.shape != (cfg.d1,):
        raise ValueError(f"task feature must have width {cfg.d1}")
    k, m = centers.shape[0], cfg.m_neighbors
    ctx = np.asarray(context, dtype=np.float64).reshape(3)
    rows = tape.concat_cols(centers, tape.tile_rows(task_feature, k))
    rows = tape.concat_cols(rows, tape.tile_rows(tape.const(ctx), k))
    offsets = tape.scale(tape.tanh(autodiff.forward_mlp(tape, store, "sur", rows)), OFFSET_SPAN)
    # centers @ [I I ... I] repeats each center once per patch point; the
    # products by exact ones and zeros leave the anchors bit-exact.
    anchors = tape.matmul(centers, tape.const(np.tile(np.eye(3), m)))
    return tape.reshape(tape.add(offsets, anchors), (k, m, 3))


def oracle_sigma(query_in_pts, prompt_in_pts, centers) -> float:
    """Noise scale: grows with poor center coverage and prompt mismatch."""
    coverage = geometry.chamfer_distance(centers, query_in_pts)
    mismatch = geometry.chamfer_distance(prompt_in_pts, query_in_pts)
    return ORACLE_SIGMA0 * (1.0 + ORACLE_CENTER_GAIN * coverage + ORACLE_PROMPT_GAIN * mismatch)


def oracle_predict(query_in_pts, query_target_pts, prompt_in_pts, centers, rng,
                   draws: int = 1) -> np.ndarray:
    """`draws` predictions: ground truth plus iid Gaussian noise at the effective sigma.

    Returns a (draws, S, 3) stack. Sigma depends only on the clouds and
    centers, so it is computed once, and all the noise comes from one
    rng.normal call, which yields the same numbers and leaves `rng` in the
    same state as `draws` successive (S, 3) calls.
    """
    target = np.asarray(query_target_pts, dtype=np.float64)
    sigma = oracle_sigma(query_in_pts, prompt_in_pts, centers)
    return target + rng.normal(0.0, sigma, size=(draws, *target.shape))


class OracleModel:
    """Holder of the centers an oracle call runs with.

    centers_fn(query_in_pts, prompt) must return the (N, 3) centers the
    downstream task would run with, e.g. a frozen sampler's projection.
    """

    def __init__(self, centers_fn):
        self.centers_fn = centers_fn


def adaptive_centers_fn(store: ParamStore, cfg: SamplerConfig):
    """centers_fn giving the centers of `sampler.inference_fn`, which encodes each prompt pair object once per fn,
    and a query cloud's points once for the calls in a row that pass it."""
    infer = inference_fn(store, cfg)
    return lambda query_in_pts, prompt: infer(query_in_pts, prompt).centers_query.value
