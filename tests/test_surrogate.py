"""Surrogate and oracle contracts: masking, prediction, noise model."""

import numpy as np
import pytest

from micas import surrogate as sur_mod
from micas.autodiff import ParamStore, Tape, finite_diff_check
from micas.geometry import chamfer_distance
from micas.sampler import SamplerConfig, init_sampler_params, sample_inference
from micas.surrogate import (
    OFFSET_SPAN,
    ORACLE_CENTER_GAIN,
    ORACLE_PROMPT_GAIN,
    ORACLE_SIGMA0,
    OracleModel,
    SurrogateConfig,
    adaptive_centers_fn,
    init_surrogate_params,
    mask_indices,
    oracle_predict,
    oracle_sigma,
    surrogate_predict,
)
from micas.tasks import gen_pair

CFG = SurrogateConfig(d1=8, m_neighbors=4, width=8)
S_CFG = SamplerConfig(d1=8, d2=8, n_centers=4, width=8)


def test_mask_indices_counts():
    for ratio, expect in ((0.0, 0), (0.6, 6), (1.0, 10)):
        hidden = mask_indices(10, ratio, np.random.default_rng(1))
        assert len(hidden) == expect
        assert np.array_equal(hidden, np.unique(hidden))  # sorted, no repeats
        assert ((0 <= hidden) & (hidden < 10)).all()
        if expect:
            # exactly one rng.choice draw: the rest of a training epoch's rng stream depends on it
            assert np.array_equal(hidden, np.sort(np.random.default_rng(1).choice(10, size=expect, replace=False)))


def test_mask_indices_rejects_ratio_out_of_range():
    with pytest.raises(ValueError):
        mask_indices(10, 1.5, np.random.default_rng(1))
    with pytest.raises(ValueError):
        mask_indices(10, -0.1, np.random.default_rng(1))


def test_zero_parameters_predict_center_copies():
    store = init_surrogate_params(CFG, np.random.default_rng(3))
    for name in store.names():
        store[name].value[...] = 0.0
    tape = Tape()
    centers = tape.const(np.random.default_rng(4).uniform(size=(3, 3)))
    task = tape.const(np.zeros(CFG.d1))
    preds = surrogate_predict(tape, store, CFG, task, centers, np.zeros(3))
    assert preds.shape == (3, CFG.m_neighbors, 3)
    for i in range(3):
        assert np.abs(preds.value[i] - centers.value[i]).max() == 0.0


def test_zero_parameter_translation_equivariance():
    store = init_surrogate_params(CFG, np.random.default_rng(5))
    for name in store.names():
        store[name].value[...] = 0.0
    rng = np.random.default_rng(6)
    base = rng.uniform(size=(4, 3))
    shift = np.array([0.3, -0.1, 0.2])
    task = np.zeros(CFG.d1)
    tape = Tape()
    a = surrogate_predict(tape, store, CFG, tape.const(task), tape.const(base), np.zeros(3))
    tape = Tape()
    b = surrogate_predict(tape, store, CFG, tape.const(task), tape.const(base + shift), np.zeros(3))
    assert a.shape == b.shape == (4, CFG.m_neighbors, 3)
    assert np.abs((a.value + shift) - b.value).max() < 1e-15


def test_predictions_stay_within_offset_span():
    store = init_surrogate_params(CFG, np.random.default_rng(7))
    for name in store.names():  # exaggerate the weights; the bound must still hold
        store[name].value *= 50.0
    rng = np.random.default_rng(8)
    tape = Tape()
    centers = tape.const(rng.uniform(size=(5, 3)))
    task = tape.const(rng.normal(size=CFG.d1))
    preds = surrogate_predict(tape, store, CFG, task, centers, rng.uniform(size=3))
    assert preds.shape == (5, CFG.m_neighbors, 3)
    for i in range(5):
        assert np.abs(preds.value[i] - centers.value[i]).max() <= OFFSET_SPAN + 1e-12


def test_surrogate_gradient_reaches_centers():
    store = init_surrogate_params(CFG, np.random.default_rng(9))
    rng = np.random.default_rng(10)
    target = rng.uniform(size=(2, CFG.m_neighbors, 3))
    task_vec = rng.normal(size=CFG.d1)
    ctx = rng.uniform(size=3)
    probe = ParamStore()
    probe.add("centers", rng.uniform(size=(2, 3)))

    def loss_fn(p):
        tape = Tape()
        preds = surrogate_predict(tape, store, CFG, tape.const(task_vec),
                                  tape.param(p, "centers"), ctx)
        tape.mean_all(tape.chamfer_patches(preds, target))
        return tape

    assert finite_diff_check(loss_fn, probe) <= 1e-3


def test_surrogate_task_feature_width_checked():
    store = init_surrogate_params(CFG, np.random.default_rng(11))
    tape = Tape()
    with pytest.raises(ValueError):
        surrogate_predict(tape, store, CFG, tape.const(np.zeros(CFG.d1 + 1)),
                          tape.const(np.zeros((2, 3))), np.zeros(3))


def test_oracle_sigma_formula_exact():
    rng = np.random.default_rng(13)
    q = rng.uniform(size=(30, 3))
    assert oracle_sigma(q, q, q) == pytest.approx(ORACLE_SIGMA0, abs=0.0)
    p = rng.uniform(size=(30, 3))
    centers = rng.uniform(size=(6, 3))
    expect = ORACLE_SIGMA0 * (1.0
                              + ORACLE_CENTER_GAIN * chamfer_distance(centers, q)
                              + ORACLE_PROMPT_GAIN * chamfer_distance(p, q))
    assert oracle_sigma(q, p, centers) == pytest.approx(expect, rel=1e-15)


def test_oracle_sigma_monotone_in_coverage():
    rng = np.random.default_rng(14)
    q = rng.uniform(size=(40, 3))
    p = rng.uniform(size=(40, 3))
    good = q[:8]
    bad = good + 0.5
    assert oracle_sigma(q, p, bad) > oracle_sigma(q, p, good)


def test_oracle_zero_sigma_returns_ground_truth(monkeypatch):
    monkeypatch.setattr(sur_mod, "ORACLE_SIGMA0", 0.0)
    rng = np.random.default_rng(15)
    q = rng.uniform(size=(10, 3))
    y = rng.uniform(size=(10, 3))
    out = oracle_predict(q, y, rng.uniform(size=(10, 3)), q[:3], np.random.default_rng(0))
    assert out.shape == (1, 10, 3)
    assert np.array_equal(out[0], y)


def test_oracle_predict_is_pure():
    rng = np.random.default_rng(16)
    q = rng.uniform(size=(12, 3))
    y = rng.uniform(size=(12, 3))
    p = rng.uniform(size=(12, 3))
    a = oracle_predict(q, y, p, q[:4], np.random.default_rng(99))
    b = oracle_predict(q, y, p, q[:4], np.random.default_rng(99))
    assert np.array_equal(a, b)


def test_oracle_expected_error_ordering_follows_sigma():
    # two prompts with different mismatch: the worse one must produce worse
    # expected reconstruction over repeated draws
    rng = np.random.default_rng(17)
    q = rng.uniform(size=(24, 3))
    y = rng.uniform(size=(24, 3))
    centers = q[:6]
    near = q + 0.01 * rng.normal(size=q.shape)
    far = rng.uniform(size=(24, 3)) + 1.0
    assert oracle_sigma(q, near, centers) < oracle_sigma(q, far, centers)
    errs_near = [chamfer_distance(oracle_predict(q, y, near, centers, np.random.default_rng(s))[0], y)
                 for s in range(100)]
    errs_far = [chamfer_distance(oracle_predict(q, y, far, centers, np.random.default_rng(s))[0], y)
                for s in range(100)]
    assert np.mean(errs_near) < np.mean(errs_far)


def test_oracle_stacked_draws_equal_sequential_single_draws():
    # one (D, S, 3) rng.normal call must reproduce D successive (S, 3) calls
    # bit for bit and leave the rng where they leave it
    for seed in range(10):
        rng = np.random.default_rng(seed)
        s = (7, 24, 256)[seed % 3]
        q, y, p = (rng.uniform(size=(s, 3)) for _ in range(3))
        stacked_rng, single_rng = np.random.default_rng(seed + 50), np.random.default_rng(seed + 50)
        stacked = oracle_predict(q, y, p, q[:4], stacked_rng, draws=16)
        singles = [oracle_predict(q, y, p, q[:4], single_rng) for _ in range(16)]
        assert stacked.shape == (16, s, 3)
        assert all(one.shape == (1, s, 3) for one in singles)
        assert np.array_equal(stacked, np.concatenate(singles))
        assert stacked_rng.bit_generator.state == single_rng.bit_generator.state


def test_centers_fn_helpers():
    rng = np.random.default_rng(18)
    prompt = gen_pair("denoising", 1, 16, 5)
    q = rng.uniform(size=(16, 3))
    sampler_store = init_sampler_params(S_CFG, rng)
    ada_fn = adaptive_centers_fn(sampler_store, S_CFG)
    centers = ada_fn(q, prompt)
    assert centers.shape == (S_CFG.n_centers, 3)
    expect = sample_inference(sampler_store, S_CFG, q, prompt.input.points, prompt.target.points)
    assert np.array_equal(centers, expect.centers_query.value)
    q2 = rng.uniform(size=(16, 3))  # a second query reuses the pair's encoded feature
    expect = sample_inference(sampler_store, S_CFG, q2, prompt.input.points, prompt.target.points)
    assert np.array_equal(ada_fn(q2, prompt), expect.centers_query.value)
    assert OracleModel(ada_fn).centers_fn is ada_fn
