import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from volstab import model
from volstab.model import (
    CirParams,
    ModelParams,
    PotentialParams,
    SimConfig,
    _substream,
    cir_step_raw,
    daily_returns,
    heston_step,
    potential,
    potential_gradient,
    simulate_ensemble,
)

DEFAULT_MP = ModelParams()
REFLECTING_MP = ModelParams(cir=CirParams(v_start=0.05), x0=-0.99)


def test_potential_hand_values():
    p = PotentialParams(m=2, n=3)
    assert potential(0.0, p) == 0.0
    assert potential(-1.0, p) == pytest.approx(1.0)  # barrier top
    assert potential(1.0, p) == pytest.approx(5.0)


def test_potential_gradient_hand_values():
    p = PotentialParams(m=2, n=3)
    assert potential_gradient(0.0, p) == 0.0
    assert potential_gradient(-1.0, p) == pytest.approx(0.0)  # root at -2n/(3m)
    assert potential_gradient(1.0, p) == pytest.approx(12.0)
    assert p.barrier == pytest.approx(-1.0)


def test_potential_gradient_matches_finite_differences():
    p = PotentialParams(m=2, n=3)
    for x in np.linspace(-2.0, 2.0, 81):
        h = 1e-6 * max(1.0, abs(x))
        fd = (potential(x + h, p) - potential(x - h, p)) / (2 * h)
        g = potential_gradient(x, p)
        if abs(g) > 1e-3:
            assert abs(fd - g) / abs(g) < 1e-6
        else:
            assert abs(fd - g) < 1e-6


def test_param_validation():
    with pytest.raises(ValueError):
        PotentialParams(m=-1, n=3)
    with pytest.raises(ValueError):
        CirParams(a=0)
    with pytest.raises(ValueError):
        CirParams(v_start=-1e-9)
    with pytest.raises(ValueError):
        ModelParams(x0=math.inf)
    with pytest.raises(ValueError):
        SimConfig(dt=0)
    with pytest.raises(ValueError):
        SimConfig(days=-1)
    with pytest.raises(ValueError):
        SimConfig(n_series=0)


def test_feller_ratio_reported_not_enforced():
    cir = CirParams()  # a=2, b=0.01, c=0.83
    assert cir.feller_ratio == pytest.approx(2 * 2.0 * 0.01 / 0.83**2)
    assert cir.feller_ratio < 1  # zero boundary attainable; params still accepted
    assert CirParams(c=0).feller_ratio == math.inf


def test_cir_step_fixed_point_and_drift():
    p = CirParams(a=2.0, b=0.01, c=0.0)
    assert np.maximum(cir_step_raw(p.b, p, dt=0.37, dw=123.0), 0.0) == pytest.approx(p.b)
    assert np.maximum(cir_step_raw(0.0, p, dt=0.01, dw=0.0), 0.0) == pytest.approx(2e-4)


def test_cir_step_truncation_floor():
    p = CirParams()
    assert np.maximum(cir_step_raw(1e-6, p, dt=0.01, dw=-5.0), 0.0) == 0.0
    assert cir_step_raw(1e-6, p, dt=0.01, dw=-5.0) < 0.0


def test_heston_step_hand_values():
    mp = ModelParams()
    assert heston_step(0.0, 0.0, mp, dt=0.5, dw1=0.0) == 0.0
    assert heston_step(0.0, 0.01, mp, dt=0.01, dw1=0.0) == pytest.approx(-5e-5)
    # gradient at 0.1 is 3*2*0.01 + 2*3*0.1 = 0.66
    assert heston_step(0.1, 0.0, mp, dt=0.01, dw1=0.0) == pytest.approx(0.1 - 0.0066)


def test_simulate_days_zero_returns_initial_state_only():
    cfg = SimConfig(days=0, n_series=1, seed=3)
    x, v = simulate_ensemble(DEFAULT_MP, cfg)
    assert x.shape == v.shape == (1, 1)
    assert x[0, 0] == DEFAULT_MP.x0
    assert v[0, 0] == DEFAULT_MP.cir.v_start
    with pytest.raises(ValueError):
        daily_returns(x, ["sim"])


def test_simulate_is_deterministic_and_order_independent():
    cfg = SimConfig(days=40, n_series=5, seed=42)
    xa, va = simulate_ensemble(DEFAULT_MP, cfg)
    xb, vb = simulate_ensemble(DEFAULT_MP, cfg)
    assert np.array_equal(xa, xb) and np.array_equal(va, vb)
    # a series is the same whatever other series are simulated alongside it
    x8, v8 = simulate_ensemble(DEFAULT_MP, replace(cfg, n_series=8))
    assert np.array_equal(x8[:5], xa) and np.array_equal(v8[:5], va)


def test_simulate_ensemble_threads_do_not_change_results():
    cfg = SimConfig(days=30, n_series=7, seed=11)
    x1, v1 = simulate_ensemble(DEFAULT_MP, cfg, threads=1)
    x4, v4 = simulate_ensemble(DEFAULT_MP, cfg, threads=4)
    assert np.array_equal(x1, x4) and np.array_equal(v1, v4)


@pytest.mark.parametrize(
    "threads, n_series, cpus, width", [(64, 3, 8, 3), (64, 5, 2, 2), (4, 5, None, 1), (1, 5, 8, 1)]
)
def test_thread_pool_is_bounded_by_series_and_cpus(monkeypatch, threads, n_series, cpus, width):
    widths = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            widths.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(model, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(model.os, "cpu_count", lambda: cpus)
    cfg = SimConfig(days=3, n_series=n_series, seed=5)
    x, v = simulate_ensemble(DEFAULT_MP, cfg, threads=threads)
    assert widths == [width]
    x1, v1 = simulate_ensemble(DEFAULT_MP, cfg, threads=1)
    assert np.array_equal(x, x1) and np.array_equal(v, v1)


def test_kernel_matches_composed_step_operations():
    # one fine step of the integrator == heston_step + floored cir_step_raw on the same state
    cfg = SimConfig(days=1, steps_per_day=1, dt=0.01, n_series=1, seed=9)
    x, v = simulate_ensemble(DEFAULT_MP, cfg)
    rng1 = _substream(9, 0, 0)
    rng2 = _substream(9, 0, 1)
    dw1 = rng1.standard_normal(1)[0] * math.sqrt(0.01)
    dw2 = rng2.standard_normal(1)[0] * math.sqrt(0.01)
    x1 = heston_step(DEFAULT_MP.x0, DEFAULT_MP.cir.v_start, DEFAULT_MP, 0.01, dw1)
    v1 = np.maximum(cir_step_raw(DEFAULT_MP.cir.v_start, DEFAULT_MP.cir, 0.01, dw2), 0.0)
    assert x[0, 1] == x1
    assert v[0, 1] == v1


def _reference_ensemble(mp, cfg):
    """The integrator written step by step from heston_step, cir_step_raw and np.where.

    Returns (x, v) as simulate_ensemble does, and the number of barrier
    reflections.
    """
    steps = cfg.days * cfg.steps_per_day
    sqdt = math.sqrt(cfg.dt)
    rows = range(cfg.n_series)
    dw1 = np.array([_substream(cfg.seed, i, 0).standard_normal(steps) for i in rows]) * sqdt
    dw2 = np.array([_substream(cfg.seed, i, 1).standard_normal(steps) for i in rows]) * sqdt
    barrier = mp.potential.barrier
    xt = np.full(cfg.n_series, mp.x0)
    vt = np.full(cfg.n_series, mp.cir.v_start)
    x, v, reflections = [xt], [vt], 0
    for s in range(steps):
        xnext = heston_step(xt, np.maximum(vt, 0.0), mp, cfg.dt, dw1[:, s])
        vt = cir_step_raw(vt, mp.cir, cfg.dt, dw2[:, s])
        reflections += int((xnext < barrier).sum())
        xt = np.where(xnext < barrier, 2.0 * barrier - xnext, xnext)
        if (s + 1) % cfg.steps_per_day == 0:
            x.append(xt)
            v.append(np.maximum(vt, 0.0))
    return np.array(x).T, np.array(v).T, reflections


def test_reflecting_ensemble_matches_step_by_step_reference_bit_for_bit():
    # started just inside the barrier at -1 at high variance, so the reflection branch is taken
    mp = REFLECTING_MP
    cfg = SimConfig(days=13, n_series=6, seed=21)
    x_ref, v_ref, reflections = _reference_ensemble(mp, cfg)
    assert reflections > 0
    x, v = simulate_ensemble(mp, cfg)
    assert np.array_equal(x, x_ref) and np.array_equal(v, v_ref)


@pytest.mark.parametrize("chunk_days", [1, 3, 64])
def test_noise_block_size_does_not_change_results(monkeypatch, chunk_days):
    mp = REFLECTING_MP
    cfg = SimConfig(days=41, steps_per_day=7, n_series=5, seed=8)
    blowup = SimConfig(dt=0.6, steps_per_day=1, days=41, n_series=8, seed=3)
    x, v = simulate_ensemble(mp, cfg)
    with pytest.raises(FloatingPointError) as default_error:
        simulate_ensemble(DEFAULT_MP, blowup)
    monkeypatch.setattr(model, "_CHUNK_STEPS", chunk_days * cfg.steps_per_day)
    xc, vc = simulate_ensemble(mp, cfg)
    assert np.array_equal(xc, x) and np.array_equal(vc, v)
    monkeypatch.setattr(model, "_CHUNK_STEPS", chunk_days * blowup.steps_per_day)
    with pytest.raises(FloatingPointError) as error:
        simulate_ensemble(DEFAULT_MP, blowup)
    assert str(error.value) == str(default_error.value)
    assert str(error.value).startswith("series 6 turned non-finite on day 14:")


def test_variance_path_never_negative():
    cfg = SimConfig(days=400, n_series=20, seed=1234)
    _, v = simulate_ensemble(DEFAULT_MP, cfg)
    assert (v >= 0).all()
    assert (v == 0).any()  # the zero boundary is actually visited at these parameters


def test_positivity_under_feller_violating_parameters_many_seeds():
    for seed in (0, 7, 99):
        cfg = SimConfig(days=100, n_series=5, seed=seed)
        _, v = simulate_ensemble(DEFAULT_MP, cfg)
        assert (v >= 0).all()


def test_cir_long_run_average_near_b():
    # pooled time-average over 1e7 sampled steps
    cfg = SimConfig(dt=0.01, steps_per_day=1, days=100_000, n_series=100, seed=4242)
    _, v = simulate_ensemble(DEFAULT_MP, cfg)
    vbar = v[:, 1:].mean()
    assert abs(vbar - DEFAULT_MP.cir.b) / DEFAULT_MP.cir.b < 0.05


def test_noise_streams_independent():
    n = 100_000
    z1 = _substream(2024, 0, 0).standard_normal(n)
    z2 = _substream(2024, 0, 1).standard_normal(n)
    corr = np.corrcoef(z1, z2)[0, 1]
    assert abs(corr) < 0.01


def test_driftless_random_walk_variance_matches_b():
    # flat potential, frozen variance: daily increments ~ Normal(-b/2, b),
    # independent across days and across series, so 100 x 100 pool 10,000
    # of them; the variance does not see a flipped drift sign
    mp = ModelParams(potential=PotentialParams(m=0, n=0), cir=CirParams(c=0, v_start=0.01))
    cfg = SimConfig(dt=0.01, steps_per_day=100, days=100, n_series=100, seed=5)
    x, _ = simulate_ensemble(mp, cfg)
    r = daily_returns(x, [f"sim{i}" for i in range(100)]).values
    assert abs(r.var() - 0.01) / 0.01 < 0.05


def test_gradient_flow_with_noise_off():
    # b = c = v_start = 0 freezes the variance at zero; x follows -U'(x)
    quiet = CirParams(a=2.0, b=0.0, c=0.0, v_start=0.0)
    cfg = SimConfig(dt=0.01, steps_per_day=100, days=30, n_series=1, seed=1)
    at_rest, _ = simulate_ensemble(ModelParams(cir=quiet, x0=0.0), cfg)
    assert np.all(at_rest == 0.0)
    in_well, _ = simulate_ensemble(ModelParams(cir=quiet, x0=-0.9), cfg)
    assert np.all(np.diff(in_well[0]) >= 0)  # monotone climb back to the minimum
    assert abs(in_well[0, -1]) < 1e-6


def test_discretization_stability_sigma_bar():
    # halving dt at a fixed day grid moves the mean per-series sigma by < 2%
    def sigma_bar(dt, spd, seed):
        cfg = SimConfig(dt=dt, steps_per_day=spd, days=2000, n_series=100, seed=seed)
        x, _ = simulate_ensemble(DEFAULT_MP, cfg)
        return np.diff(x, axis=1).std(axis=1).mean()

    coarse = sigma_bar(7.0e-4, 100, seed=2)
    fine = sigma_bar(3.5e-4, 200, seed=2)
    assert abs(coarse - fine) / coarse < 0.02


def test_daily_returns_shape_and_values():
    x = np.array([[0.0, 0.01, 0.01], [0.3, 0.3, 0.3]])
    z, flat = daily_returns(x, ["z", "flat"])
    assert z.returns.tolist() == pytest.approx([0.01, 0.0])
    assert z.ticker == "z"
    assert np.all(flat.returns == 0.0)
    with pytest.raises(ValueError):
        daily_returns(x, ["z"])
    cfg = SimConfig(days=17, n_series=2, seed=0)
    xs, _ = simulate_ensemble(DEFAULT_MP, cfg)
    assert [rs.returns.size for rs in daily_returns(xs, ["a", "b"])] == [17, 17]
