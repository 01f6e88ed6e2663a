"""Sampler behavior: weights, Gumbel statistics, projection, persistence."""

import numpy as np
import pytest

from micas import sampler as sampler_mod
from micas.autodiff import ParamStore, Tape
from micas.sampler import (
    WEIGHT_FLOOR,
    SamplerConfig,
    encode_points,
    encode_task,
    enhance,
    gumbel_noise,
    gumbel_softmax,
    init_sampler_params,
    load_sampler,
    project_centers,
    sample,
    sample_inference,
    sampling_loss,
    sampling_weights,
    save_sampler,
    tau_for_epoch,
)
from micas.ranker import RankerConfig, TaskNormalizer, save_ranker

CFG = SamplerConfig(d1=8, d2=8, n_centers=4, width=8)


class FixedUniform:
    """rng stub whose random() steps through a preset sequence."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, shape=None):
        if shape is None:
            return np.float64(self.values.pop(0))
        size = int(np.prod(shape))
        out = np.array([self.values.pop(0) for _ in range(size)])
        return out.reshape(shape)


def small_store(seed=0):
    return init_sampler_params(CFG, np.random.default_rng(seed))


def zero_store():
    store = small_store()
    for name in store.names():
        store[name].value[...] = 0.0
    return store


def test_zero_parameters_give_uniform_softplus_weights():
    store = zero_store()
    tape = Tape()
    pts = np.random.default_rng(1).uniform(size=(10, 3))
    task = encode_task(tape, store, pts, pts)
    weights = sampling_weights(tape, store, enhance(tape, task, encode_points(tape, store, pts)))
    assert weights.shape == (10, CFG.n_centers)
    assert np.abs(weights.value - (np.log(2.0) + WEIGHT_FLOOR)).max() < 1e-15


def test_weights_strictly_positive_for_random_parameters():
    rng = np.random.default_rng(2)
    for seed in range(5):
        store = small_store(seed)
        tape = Tape()
        pts = rng.uniform(size=(20, 3))
        prompt = rng.uniform(size=(20, 3))
        task = encode_task(tape, store, prompt, prompt)
        w = sampling_weights(tape, store, enhance(tape, task, encode_points(tape, store, pts)))
        assert (w.value >= WEIGHT_FLOOR).all()


def test_gumbel_noise_known_quantiles():
    # u = e^-1 maps to 0, u = e^-e maps to -1
    noise = gumbel_noise(FixedUniform([np.exp(-1.0), np.exp(-np.e)]), (2,))
    assert noise[0] == pytest.approx(0.0, abs=1e-15)
    assert noise[1] == pytest.approx(-1.0, abs=1e-15)


def test_gumbel_noise_redraws_exact_zero():
    noise = gumbel_noise(FixedUniform([0.0, np.exp(-1.0)]), (1,))
    assert np.isfinite(noise).all()
    assert noise[0] == pytest.approx(0.0, abs=1e-15)


def test_gumbel_noise_mean_matches_euler_mascheroni():
    draws = gumbel_noise(np.random.default_rng(3), (200_000,))
    assert draws.mean() == pytest.approx(0.5772156649, abs=0.005)


def test_gumbel_softmax_columns_are_stochastic():
    rng = np.random.default_rng(4)
    tape = Tape()
    w = tape.const(rng.uniform(0.1, 2.0, size=(30, 6)))
    soft = gumbel_softmax(tape, w, gumbel_noise(rng, (30, 6)), 0.7)
    assert np.abs(soft.value.sum(axis=0) - 1.0).max() < 1e-12
    assert (soft.value > 0.0).all()


def test_gumbel_softmax_hardens_as_tau_drops():
    rng = np.random.default_rng(5)
    w = rng.uniform(0.1, 2.0, size=(25, 5))
    noise = gumbel_noise(rng, (25, 5))
    last = None
    for tau in (1.0, 0.5, 0.1):
        tape = Tape()
        soft = gumbel_softmax(tape, tape.const(w), noise, tau).value
        top = soft.max(axis=0)
        if last is not None:
            assert (top > last).all()
        last = top
    assert (last > 0.9).any() or (last > 0.5).all()


def test_gumbel_softmax_validates_inputs():
    tape = Tape()
    w = tape.const(np.full((4, 2), 0.5))
    with pytest.raises(ValueError):
        gumbel_softmax(tape, w, np.zeros((4, 2)), 0.0)
    with pytest.raises(ValueError):
        gumbel_softmax(tape, w, np.zeros((4, 3)), 0.5)


def test_zero_noise_softmax_matches_plain_softmax():
    rng = np.random.default_rng(6)
    w = rng.uniform(0.5, 1.5, size=(12, 3))
    tape = Tape()
    soft = gumbel_softmax(tape, tape.const(w), np.zeros((12, 3)), 0.25).value
    logits = np.log(w) / 0.25
    expect = np.exp(logits - logits.max(axis=0)) / np.exp(logits - logits.max(axis=0)).sum(axis=0)
    assert np.abs(soft - expect).max() < 1e-12


def test_gumbel_argmax_frequencies_follow_softmax_of_log_weights():
    # the discrete distribution the relaxation approximates: argmax of
    # log w + g is categorical with probabilities softmax(log w)
    rng = np.random.default_rng(7)
    w = rng.uniform(0.2, 3.0, size=8)
    probs = w / w.sum()
    draws = 40_000
    noise = gumbel_noise(rng, (draws, 8))
    counts = np.bincount(np.argmax(np.log(w) + noise, axis=1), minlength=8)
    assert np.abs(counts / draws - probs).max() < 0.02


def test_project_centers_one_hot_and_bbox():
    rng = np.random.default_rng(8)
    pts = rng.uniform(size=(15, 3))
    one_hot = np.zeros((15, 3))
    one_hot[2, 0] = one_hot[9, 1] = one_hot[14, 2] = 1.0
    tape = Tape()
    centers = project_centers(tape, tape.const(one_hot), pts)
    assert np.array_equal(centers.value, pts[[2, 9, 14]])
    soft = rng.random((15, 4))
    soft /= soft.sum(axis=0)
    tape = Tape()
    centers = project_centers(tape, tape.const(soft), pts).value
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    assert (centers >= lo - 1e-12).all() and (centers <= hi + 1e-12).all()


def test_tau_schedule_linear_endpoints():
    cfg = SamplerConfig(tau_start=1.0, tau_end=0.1)
    assert tau_for_epoch(0, 10, cfg) == pytest.approx(1.0)
    assert tau_for_epoch(9, 10, cfg) == pytest.approx(0.1)
    assert tau_for_epoch(4, 9, cfg) == pytest.approx(0.55)
    assert tau_for_epoch(0, 1, cfg) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        tau_for_epoch(10, 10, cfg)


def test_sample_shapes_and_joint_projection():
    rng = np.random.default_rng(9)
    store = small_store(1)
    q = rng.uniform(size=(20, 3))
    p_in = rng.uniform(size=(16, 3))
    p_out = rng.uniform(size=(16, 3))
    res = sample(store, CFG, q, p_in, p_out, tau=0.5, rng=rng)
    assert res.soft_query.shape == (20, CFG.n_centers)
    assert res.centers_query.shape == (CFG.n_centers, 3)
    assert res.task_feature.shape == (CFG.d1,)
    assert np.abs(res.soft_query.value.sum(axis=0) - 1.0).max() < 1e-12
    # the reported centers are exactly the soft projection of the inputs
    assert np.abs(res.centers_query.value - res.soft_query.value.T @ q).max() < 1e-15


def test_sample_encodes_only_the_query_cloud(monkeypatch):
    # the prompt enters through the task feature alone; its points are never sampled
    encoded = []

    def spy(tape, store, pts):
        encoded.append(np.array(pts))
        return encode_points(tape, store, pts)

    monkeypatch.setattr(sampler_mod, "encode_points", spy)
    rng = np.random.default_rng(14)
    store = small_store(6)
    q, p_in, p_out = (rng.uniform(size=(s, 3)) for s in (20, 16, 16))
    sample(store, CFG, q, p_in, p_out, tau=0.5, rng=rng)
    sample_inference(store, CFG, q, p_in, p_out)
    assert len(encoded) == 2
    assert all(np.array_equal(pts, q) for pts in encoded)


def test_sample_inference_is_deterministic():
    rng = np.random.default_rng(10)
    store = small_store(2)
    q = rng.uniform(size=(12, 3))
    p_in = rng.uniform(size=(12, 3))
    p_out = rng.uniform(size=(12, 3))
    a = sample_inference(store, CFG, q, p_in, p_out)
    b = sample_inference(store, CFG, q, p_in, p_out)
    assert np.array_equal(a.soft_query.value, b.soft_query.value)
    assert a.tau == CFG.tau_end
    frozen = sample(store, CFG, q, p_in, p_out, CFG.tau_end, noise=np.zeros((12, CFG.n_centers)))
    assert np.array_equal(a.soft_query.value, frozen.soft_query.value)


def test_task_feature_is_point_order_invariant():
    rng = np.random.default_rng(11)
    store = small_store(3)
    p_in = rng.uniform(size=(18, 3))
    p_out = rng.uniform(size=(18, 3))
    tape = Tape()
    feat = encode_task(tape, store, p_in, p_out).value
    perm = rng.permutation(18)
    tape = Tape()
    feat_perm = encode_task(tape, store, p_in[perm], p_out[perm]).value
    assert np.abs(feat - feat_perm).max() < 1e-12


def test_point_permutation_permutes_soft_rows():
    rng = np.random.default_rng(12)
    store = small_store(4)
    q = rng.uniform(size=(14, 3))
    p_in = rng.uniform(size=(14, 3))
    p_out = rng.uniform(size=(14, 3))
    noise_q = gumbel_noise(rng, (14, CFG.n_centers))
    res = sample(store, CFG, q, p_in, p_out, 0.4, noise=noise_q)
    perm = rng.permutation(14)
    res_perm = sample(store, CFG, q[perm], p_in, p_out, 0.4, noise=noise_q[perm])
    assert np.abs(res.soft_query.value[perm] - res_perm.soft_query.value).max() < 1e-9
    assert np.abs(res.centers_query.value - res_perm.centers_query.value).max() < 1e-9


def test_sampling_loss_composition():
    rng = np.random.default_rng(13)
    tape = Tape()
    preds = tape.const(rng.uniform(size=(3, 5, 3)))
    targets = rng.uniform(size=(3, 5, 3))
    centers = tape.const(rng.uniform(size=(4, 3)))
    cloud = rng.uniform(size=(20, 3))
    from micas.geometry import chamfer_distance

    loss = sampling_loss(tape, preds, targets, centers, cloud, alpha=0.5)
    manual = np.mean([chamfer_distance(preds.value[i], targets[i]) for i in range(3)])
    manual += 0.5 * chamfer_distance(centers.value, cloud)
    assert loss.value == pytest.approx(manual, rel=1e-12)
    with pytest.raises(ValueError):
        sampling_loss(tape, preds, targets[:2], centers, cloud, alpha=0.5)
    with pytest.raises(ValueError):
        sampling_loss(tape, preds, targets, centers, cloud, alpha=-1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(d1=0)
    with pytest.raises(ValueError):
        SamplerConfig(tau_start=0.1, tau_end=0.5)
    with pytest.raises(ValueError):
        SamplerConfig(alpha=-0.1)


def test_sampler_checkpoint_round_trip(tmp_path):
    store = small_store(5)
    path = tmp_path / "sampler.micasnn"
    save_sampler(store, CFG, path)
    back, cfg = load_sampler(path)
    assert cfg == CFG
    for name in store.names():
        assert np.array_equal(back[name].value, store[name].value)


def test_sampler_rejects_foreign_sidecar(tmp_path):
    path = tmp_path / "model.micasnn"
    save_ranker(ParamStore(), RankerConfig(width=8, k_candidates=3), TaskNormalizer(), path)
    with pytest.raises(ValueError):
        load_sampler(path)
