"""Task-adaptive point sampling.

A prompt pair is encoded into a task feature, every query point into a
point feature; the two are fused and mapped to an (S, N) positive weight
matrix. Gumbel-softmax over each column turns the weights into a soft
selection of N centers, and the centers are convex combinations of the
input points, so they never leave the input's bounding box. The same
column weights can be pushed through a second cloud to sample it jointly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff, geometry
from .autodiff import Node, ParamStore, Tape

WEIGHT_FLOOR = 1e-6


@dataclass
class SamplerConfig:
    d1: int = 64  # task feature width
    d2: int = 64  # point feature width
    n_centers: int = 16
    width: int = 64  # hidden width of the encoder MLPs
    tau_start: float = 1.0
    tau_end: float = 0.1
    alpha: float = 0.5  # coverage weight in the sampling loss

    def __post_init__(self):
        if min(self.d1, self.d2, self.n_centers, self.width) < 1:
            raise ValueError("architecture sizes must be positive")
        for name, value in asdict(self).items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (self.tau_start >= self.tau_end > 0.0):
            raise ValueError("need tau_start >= tau_end > 0")
        if self.alpha < 0.0:
            raise ValueError("alpha must be non-negative")


SIN_OMEGA = 8.0  # first-layer frequency of the point encoder, radians per unit cube


def init_sampler_params(cfg: SamplerConfig, rng) -> ParamStore:
    store = ParamStore()
    w = cfg.width
    autodiff.init_mlp(store, "task_enc", [3, w, w, cfg.d1], rng)
    autodiff.init_mlp(store, "point_local", [3, w, w], rng)
    # Sine first layer: nearby surface points must land on distinct features,
    # otherwise softmax columns tie between neighbors and can never commit.
    store["point_local.0.w"].value = rng.normal(0.0, SIN_OMEGA, size=(3, w))
    store["point_local.0.b"].value = rng.uniform(-np.pi, np.pi, size=w)
    autodiff.init_affine(store, "point_proj", 2 * w, cfg.d2, rng)
    store.add("select.w", rng.normal(0.0, 0.5, size=(cfg.d1 + cfg.d2, cfg.n_centers)))
    return store


def encode_task(tape: Tape, store: ParamStore, prompt_in_pts, prompt_out_pts) -> Node:
    """Summarize a prompt pair as one width-d1 vector.

    Both clouds pass point-wise through a shared MLP and a row max-pool
    collapses the result, so the feature is invariant to point order.
    The pool is `autodiff.row_sparse_maxpool` over one block: its
    tape-free values pass finds the column maxima, and a recording tape
    records the MLP only on each column's first maximizer, the lowest row
    on ties.
    """
    pts = np.vstack([np.asarray(prompt_in_pts, dtype=np.float64),
                     np.asarray(prompt_out_pts, dtype=np.float64)])
    return tape.reshape(autodiff.row_sparse_maxpool(tape, store, "task_enc", [pts], "tanh"), (-1,))


def encode_points(tape: Tape, store: ParamStore, pts) -> Node:
    """Per-point features (S, d2) mixing local and global context."""
    x = tape.const(np.asarray(pts, dtype=np.float64))
    h = tape.sin(autodiff.affine(tape, store, "point_local.0", x))
    local = tape.tanh(autodiff.affine(tape, store, "point_local.1", h))
    global_feat = tape.reshape(tape.maxpool_segments(local, [0]), (-1,))
    joined = tape.concat_cols(local, tape.tile_rows(global_feat, x.shape[0]))
    return autodiff.affine(tape, store, "point_proj", joined)


def enhance(tape: Tape, task_feature: Node, point_features: Node) -> Node:
    """Prepend the task feature to every point feature row: (S, d1 + d2)."""
    s = point_features.shape[0]
    return tape.concat_cols(tape.tile_rows(task_feature, s), point_features)


def sampling_weights(tape: Tape, store: ParamStore, enhanced: Node) -> Node:
    """Map enhanced features to strictly positive selection weights (S, N).

    softplus plus a 1e-6 floor keeps every weight positive so the log in
    the Gumbel reparameterization is always defined. With all-zero
    parameters every weight equals ln 2 + 1e-6.
    """
    raw = tape.matmul(enhanced, tape.param(store, "select.w"))
    return tape.add_const(tape.softplus(raw), WEIGHT_FLOOR)


def gumbel_noise(rng, shape) -> np.ndarray:
    """Standard Gumbel draws, -log(-log U), with U in the open interval (0, 1)."""
    u = rng.random(shape)
    zero = u == 0.0
    while zero.any():  # rng.random can return exactly 0.0; the log needs (0, 1)
        u[zero] = rng.random(int(zero.sum()))
        zero = u == 0.0
    return -np.log(-np.log(u))


def gumbel_softmax(tape: Tape, weights: Node, noise, tau: float) -> Node:
    """Column-stochastic relaxation softmax((log w + g) / tau) per column."""
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != weights.shape:
        raise ValueError(f"noise shape {noise.shape} must match weights {weights.shape}")
    logits = tape.scale(tape.add_const(tape.log(weights), noise), 1.0 / tau)
    return tape.softmax_cols(logits)


def project_centers(tape: Tape, soft_weights: Node, pts) -> Node:
    """Centers as weight-averaged points: soft^T @ pts, shape (N, 3)."""
    return tape.matmul(tape.transpose(soft_weights), tape.const(np.asarray(pts, dtype=np.float64)))


def tau_for_epoch(epoch: int, total_epochs: int, cfg: SamplerConfig) -> float:
    """Linear anneal from tau_start at epoch 0 to tau_end at the last epoch."""
    if not 0 <= epoch < total_epochs:
        raise ValueError(f"epoch must be in [0, {total_epochs})")
    if total_epochs == 1:
        return cfg.tau_end
    frac = epoch / (total_epochs - 1)
    return cfg.tau_start + (cfg.tau_end - cfg.tau_start) * frac


@dataclass
class SampleResult:
    """One sampling pass over a query cloud, all on one shared tape.

    Only the query cloud is sampled; the prompt pair enters through the
    task feature alone, since no loss, label or evaluation reads a
    sampling of the prompt's own points.
    """

    tape: Tape
    task_feature: Node  # (d1,) summary of the prompt pair
    soft_query: Node  # (S, N) column-stochastic weights for the query cloud
    centers_query: Node  # (N, 3)


def sample(store: ParamStore, query_pts, prompt_in_pts, prompt_out_pts, tau: float, noise) -> SampleResult:
    """Run the sampler on a query cloud conditioned on one prompt pair.

    encode_task summarizes the pair and encode_points the query, then
    `sample_from_task` samples the query. All intermediate nodes share one
    new tape so a downstream loss can differentiate the whole pass.
    """
    tape = Tape()
    return sample_from_task(tape, store, query_pts, encode_task(tape, store, prompt_in_pts, prompt_out_pts),
                            encode_points(tape, store, query_pts), tau, noise)


def sample_from_task(tape: Tape, store: ParamStore, query_pts, task: Node, point_features: Node, tau: float,
                     noise) -> SampleResult:
    """Sample a query cloud given its prompt pair's task feature, a (d1,) node, and its
    `encode_points` features, an (S, d2) node, both on `tape`.

    `noise` is the query's (S, N) Gumbel perturbation, such as
    `gumbel_noise` draws; zeros give the inference mode.
    """
    pts = np.asarray(query_pts, dtype=np.float64)
    weights = sampling_weights(tape, store, enhance(tape, task, point_features))
    soft = gumbel_softmax(tape, weights, noise, tau)
    return SampleResult(tape, task, soft, project_centers(tape, soft, pts))


def infer_from_task(store: ParamStore, cfg: SamplerConfig, query_pts, task_feature, point_features) -> SampleResult:
    """Deterministic sampling at the final temperature with zero noise, from a (d1,) task feature
    and the query's (S, d2) `encode_points` features.

    A prompt pair's feature depends only on the parameters and the pair,
    and a query's point features only on the parameters and the query, so
    each can be encoded once and reused for every (query, prompt) sampled
    with it. The pass records no graph, so its result cannot be
    differentiated.
    """
    tape = Tape(record=False)
    return sample_from_task(tape, store, query_pts, tape.const(task_feature), tape.const(point_features),
                            cfg.tau_end, np.zeros((len(query_pts), cfg.n_centers)))


def sample_inference(store: ParamStore, cfg: SamplerConfig, query_pts, prompt_in_pts, prompt_out_pts) -> SampleResult:
    """`infer_from_task` on the prompt pair's encoded task feature and the query's encoded points."""
    tape = Tape(record=False)
    return infer_from_task(store, cfg, query_pts, encode_task(tape, store, prompt_in_pts, prompt_out_pts).value,
                           encode_points(tape, store, query_pts).value)


def inference_fn(store: ParamStore, cfg: SamplerConfig):
    """fn(query_pts, prompt) giving `sample_inference`'s result.

    It encodes each prompt pair object once per fn, and a query cloud's
    points once for every call in a row that passes the same array object,
    as the label pass does for a query's candidates.
    """
    features = {}  # id(pair) -> (pair, task feature); holding the pair keeps its id from being reused
    last_query = None, None  # the last query array and its point features

    def fn(query_pts, prompt) -> SampleResult:
        nonlocal last_query
        if id(prompt) not in features:
            features[id(prompt)] = prompt, encode_task(Tape(record=False), store, prompt.input.points,
                                                       prompt.target.points).value
        if last_query[0] is not query_pts:
            last_query = query_pts, encode_points(Tape(record=False), store, query_pts).value
        return infer_from_task(store, cfg, query_pts, features[id(prompt)][1], last_query[1])

    return fn


def sampling_loss(tape: Tape, predicted_patches: Node, target_patches, centers: Node, cloud_pts,
                  alpha: float) -> Node:
    """Patch reconstruction error plus alpha times center coverage.

    The first term averages the Chamfer divergence between each patch of
    the (P, M, 3) predicted node and its target patch in the (P, M, 3)
    targets; the second is the Chamfer divergence between the (N, 3)
    centers and the full input cloud, scored as a one-patch stack.
    """
    if alpha < 0.0:
        raise ValueError("alpha must be non-negative")
    recon = tape.mean_all(tape.chamfer_patches(predicted_patches, target_patches))
    coverage = tape.reshape(tape.chamfer_patches(tape.reshape(centers, (1, *centers.shape)), [cloud_pts]), ())
    return tape.add(recon, tape.scale(coverage, alpha))


def save_sampler(store: ParamStore, cfg: SamplerConfig, path) -> None:
    """Write the checkpoint plus a JSON sidecar describing the architecture."""
    autodiff.save_params(store, path)
    geometry.write_json(str(path) + ".json", {"kind": "sampler", **asdict(cfg)})


def load_sampler(path) -> tuple[ParamStore, SamplerConfig]:
    """Read a sampler checkpoint; its parameters must match the sidecar's architecture."""
    store = autodiff.load_params(path)
    types = {f.name: type(f.default) for f in fields(SamplerConfig)}
    cfg = SamplerConfig(**autodiff.read_sidecar(path, "sampler", types))
    autodiff.check_layout(store, init_sampler_params(cfg, np.random.default_rng(0)))
    return store, cfg
