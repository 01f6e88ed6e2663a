"""Sampler behavior: weights, Gumbel statistics, projection, persistence."""

import numpy as np
import pytest

from micas import sampler as sampler_mod
from micas.autodiff import ParamStore, Tape, forward_mlp, save_params
from micas.errors import FormatError
from micas.sampler import (
    WEIGHT_FLOOR,
    SamplerConfig,
    encode_points,
    encode_task,
    enhance,
    gumbel_noise,
    gumbel_softmax,
    infer_from_task,
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


def test_sampling_from_an_encoded_task_feature_equals_sample_inference():
    rng = np.random.default_rng(15)
    for seed in range(3):
        store = small_store(7 + seed)
        q, p_in, p_out = (rng.uniform(size=(s, 3)) for s in (24, 16, 16))
        expect = sample_inference(store, CFG, q, p_in, p_out)
        # one pass with the encoding on the sampling tape, as a single call makes it
        whole = sample(store, CFG, q, p_in, p_out, CFG.tau_end, tape=Tape(record=False))
        for feature in (encode_task(Tape(record=False), store, p_in, p_out).value,
                        encode_task(Tape(), store, p_in, p_out).value):
            got = infer_from_task(store, CFG, q, feature)
            for res in (expect, whole):
                assert np.array_equal(got.soft_query.value, res.soft_query.value)
                assert np.array_equal(got.centers_query.value, res.centers_query.value)
                assert np.array_equal(got.task_feature.value, res.task_feature.value)
            assert got.tau == CFG.tau_end and not got.tape.record


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


ENC_CFG = SamplerConfig(d1=16, d2=8, n_centers=4, width=16)


def encoder_store(seed):
    """Sampler parameters with the nonzero task-encoder biases a trained sampler has."""
    rng = np.random.default_rng(seed)
    store = init_sampler_params(ENC_CFG, rng)
    for i in range(3):
        bias = store[f"task_enc.{i}.b"].value
        bias[...] = rng.normal(0.0, 0.1, size=bias.shape)
    return store


def dense_task_rows(tape, store, p_in, p_out):
    """The reference encoder: the task MLP recorded over every point of the prompt pair."""
    return forward_mlp(tape, store, "task_enc", tape.const(np.vstack([p_in, p_out])),
                       final="relu", hidden="tanh")


def encoder_cases():
    """Random 256 + 256-point prompts, then one whose input repeats every point four times,
    shuffled, and whose output is its input reversed."""
    rng = np.random.default_rng(20)
    for _ in range(3):
        yield rng.uniform(-1.0, 1.0, size=(256, 3)), rng.uniform(-1.0, 1.0, size=(256, 3))
    dup = np.repeat(rng.uniform(-1.0, 1.0, size=(64, 3)), 4, axis=0)[rng.permutation(256)]
    yield dup, dup[::-1].copy()


def test_recording_and_inference_task_features_are_bit_equal():
    for seed in range(5):
        store = encoder_store(30 + seed)
        for p_in, p_out in encoder_cases():
            recorded = encode_task(Tape(), store, p_in, p_out).value
            assert recorded.shape == (ENC_CFG.d1,)
            assert np.array_equal(recorded, encode_task(Tape(record=False), store, p_in, p_out).value)
            assert np.array_equal(recorded, dense_task_rows(Tape(), store, p_in, p_out).value.max(axis=0))


def test_duplicated_prompt_points_send_each_column_to_the_lowest_tied_row():
    store = encoder_store(40)
    *_, (p_in, p_out) = encoder_cases()  # every point appears eight times
    pts = np.vstack([p_in, p_out])
    first = np.argmax(dense_task_rows(Tape(), store, p_in, p_out).value, axis=0)  # lowest row on ties
    for column, row in enumerate(first):
        tied = np.flatnonzero((pts == pts[row]).all(axis=1))
        assert row == tied.min() and len(tied) >= 2 and row < len(p_in), column
    tape = Tape()
    encode_task(tape, store, p_in, p_out)
    # the recorded chain, the only rows backward reaches, holds exactly those rows in
    # ascending order; any other tied copies would come in another order
    assert np.array_equal(tape.nodes[0].value, pts[np.unique(first)])


def test_task_encoder_gradient_matches_dense_reference():
    weights = np.random.default_rng(41).normal(size=ENC_CFG.d1)
    for seed, (p_in, p_out) in enumerate(encoder_cases()):
        store = encoder_store(50 + seed)
        grads = []
        for sparse in (True, False):
            store.zero_grads()
            tape = Tape()
            if sparse:
                feature = encode_task(tape, store, p_in, p_out)
            else:
                feature = tape.maxpool_segments(dense_task_rows(tape, store, p_in, p_out))
            tape.weighted_sum(feature, weights)
            tape.backward()
            grads.append({name: p.grad.copy() for name, p in store.items() if name.startswith("task_enc")})
        for name, want in grads[1].items():
            assert np.abs(want).max() > 0.0, name
            assert np.abs(grads[0][name] - want).max() <= 1e-12 * np.abs(want).max(), name


def test_recording_encoder_feeds_only_argmax_rows_to_first_layer(monkeypatch):
    values_pass = []
    task_block = sampler_mod._task_block

    def block_spy(store, pts):
        values_pass.append(len(pts))
        return task_block(store, pts)

    monkeypatch.setattr(sampler_mod, "_task_block", block_spy)
    store = encoder_store(60)
    w0 = store["task_enc.0.w"].value
    for p_in, p_out in encoder_cases():
        distinct = len(np.unique(np.argmax(dense_task_rows(Tape(), store, p_in, p_out).value, axis=0)))
        for record in (True, False):
            tape = Tape(record=record)
            fed = []
            matmul = tape.matmul

            def spy(a, b):
                if b.value is w0:
                    fed.append(a.shape[0])
                return matmul(a, b)

            tape.matmul = spy
            values_pass.clear()
            encode_task(tape, store, p_in, p_out)
            assert values_pass == [512]  # both modes run the full prompt through the values pass once
            assert fed == ([distinct] if record else [])


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


def test_sampler_refuses_parameters_that_disagree_with_the_sidecar(tmp_path):
    path = tmp_path / "sampler.micasnn"
    wide = SamplerConfig(d1=8, d2=8, n_centers=4, width=16)
    save_sampler(init_sampler_params(wide, np.random.default_rng(0)), CFG, path)
    with pytest.raises(FormatError, match="task_enc.0.w"):
        load_sampler(path)

    store = small_store(8)
    missing = ParamStore()
    for name, p in store.items():
        if name != "select.w":
            missing.add(name, p.value)
    save_sampler(missing, CFG, path)
    with pytest.raises(FormatError, match="select.w"):
        load_sampler(path)

    store.add("extra", np.zeros(3))
    save_params(store, path)
    with pytest.raises(FormatError, match="extra"):
        load_sampler(path)


def test_sampler_refuses_a_non_finite_parameter(tmp_path):
    store = small_store(9)
    path = tmp_path / "sampler.micasnn"
    save_sampler(store, CFG, path)
    assert store.names()[-1] == "select.w"
    blob = path.read_bytes()  # select.w's payload ends the file
    path.write_bytes(blob[:-8] + np.array([np.inf], dtype="<f8").tobytes())
    with pytest.raises(FormatError, match="select.w"):
        load_sampler(path)
