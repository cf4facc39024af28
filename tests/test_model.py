import math
import os
import signal
from dataclasses import fields, replace

import numpy as np
import pytest

from helpers import cir_step_raw, heston_step, potential, potential_gradient
from volstab import _fork, model
from volstab.model import ModelParams, SimConfig, _substream, daily_returns, simulate_ensemble

DEFAULT_MP = ModelParams()
REFLECTING_MP = ModelParams(v_start=0.05, x0=-0.99)


def test_potential_hand_values():
    p = ModelParams(m=2, n=3)
    assert potential(0.0, p) == 0.0
    assert potential(-1.0, p) == pytest.approx(1.0)  # barrier top
    assert potential(1.0, p) == pytest.approx(5.0)


def test_potential_gradient_hand_values():
    p = ModelParams(m=2, n=3)
    assert potential_gradient(0.0, p) == 0.0
    assert potential_gradient(-1.0, p) == pytest.approx(0.0)  # root at -2n/(3m)
    assert potential_gradient(1.0, p) == pytest.approx(12.0)
    assert p.barrier == pytest.approx(-1.0)


def test_potential_gradient_matches_finite_differences():
    p = ModelParams(m=2, n=3)
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
        ModelParams(m=-1, n=3)
    with pytest.raises(ValueError):
        ModelParams(a=0)
    with pytest.raises(ValueError):
        ModelParams(v_start=-1e-9)
    with pytest.raises(ValueError):
        ModelParams(x0=math.inf)
    with pytest.raises(ValueError):
        SimConfig(dt=0)
    with pytest.raises(ValueError):
        SimConfig(days=-1)
    with pytest.raises(ValueError):
        SimConfig(n_series=0)


@pytest.mark.parametrize("name", [f.name for f in fields(ModelParams)])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_each_model_param_must_be_finite(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
        ModelParams(**{name: value})


def test_feller_ratio_reported_not_enforced():
    mp = ModelParams()  # a=2, b=0.01, c=0.83
    assert mp.feller_ratio == pytest.approx(2 * 2.0 * 0.01 / 0.83**2)
    assert mp.feller_ratio < 1  # zero boundary attainable; params still accepted
    assert ModelParams(c=0).feller_ratio == math.inf


def test_cir_step_fixed_point_and_drift():
    p = ModelParams(a=2.0, b=0.01, c=0.0)
    assert np.maximum(cir_step_raw(p.b, p, dt=0.37, dw=123.0), 0.0) == pytest.approx(p.b)
    assert np.maximum(cir_step_raw(0.0, p, dt=0.01, dw=0.0), 0.0) == pytest.approx(2e-4)


def test_cir_step_truncation_floor():
    p = ModelParams()
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
    assert v[0, 0] == DEFAULT_MP.v_start
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
    "threads, cpus, has_fork, forks",
    [(64, 8, True, 1), (64, 2, True, 1), (4, 1, True, 0), (1, 8, True, 0), (2, 1, True, 0), (2, 8, False, 0)],
)
def test_helper_process_runs_when_two_threads_have_two_cpus(monkeypatch, threads, cpus, has_fork, forks):
    # two series: at most one forked process, whatever the threads and CPUs
    cfg = SimConfig(days=11, n_series=2, seed=5)
    x1, v1 = simulate_ensemble(DEFAULT_MP, cfg, threads=1)
    calls = []
    if has_fork:
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: calls.append(1) or real_fork())
    else:
        monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: cpus)
    x, v = simulate_ensemble(DEFAULT_MP, cfg, threads=threads)
    assert len(calls) == forks
    assert np.array_equal(x, x1) and np.array_equal(v, v1)
    with pytest.raises(ChildProcessError):  # every forked process was reaped
        os.waitpid(-1, os.WNOHANG)


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    cfg = SimConfig(days=11, n_series=3, seed=5)
    x1, v1 = simulate_ensemble(DEFAULT_MP, cfg, threads=1)
    calls = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or real_fork())
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _fork._usable_cpus() == 1
    x, v = simulate_ensemble(DEFAULT_MP, cfg, threads=2)  # pinned to one CPU: no fork
    assert calls == []
    assert np.array_equal(x, x1) and np.array_equal(v, v1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    x, v = simulate_ensemble(DEFAULT_MP, cfg, threads=64)  # one process per series
    assert len(calls) == 2
    assert np.array_equal(x, x1) and np.array_equal(v, v1)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _fork._usable_cpus() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _fork._usable_cpus() == 1


def test_noise_blocks_too_large_for_the_machine_raise_memory_error(monkeypatch):
    # numpy allocates nothing at this size and refuses at once, before any
    # process would fork.
    cfg = SimConfig(days=2, n_series=2, steps_per_day=10**17)
    with pytest.raises(MemoryError):
        simulate_ensemble(DEFAULT_MP, cfg, threads=1)
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    with pytest.raises(MemoryError):
        simulate_ensemble(DEFAULT_MP, cfg, threads=2)


def test_noise_block_holds_400_steps_of_each_series(monkeypatch):
    # at 1071 series, 10 days of 100 steps: one mapping for the state, then
    # one for a pair of 400-step rows per series
    requested = []
    real = model.shared_doubles
    monkeypatch.setattr(model, "shared_doubles", lambda count: requested.append(count) or real(count))
    simulate_ensemble(DEFAULT_MP, SimConfig(n_series=1071, days=10), threads=1)
    state, noise = requested
    assert noise == 2 * 1071 * 400


def test_helper_is_reaped_when_the_caller_is_interrupted(monkeypatch):
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 2)
    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.2)  # the run takes several times longer
    try:
        with pytest.raises(KeyboardInterrupt):
            simulate_ensemble(DEFAULT_MP, SimConfig(days=400, n_series=200, seed=2), threads=2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_kernel_matches_composed_step_operations():
    # one fine step of the integrator == heston_step + floored cir_step_raw on the same state
    cfg = SimConfig(days=1, steps_per_day=1, dt=0.01, n_series=1, seed=9)
    x, v = simulate_ensemble(DEFAULT_MP, cfg)
    rng1 = _substream(9, 0, 0)
    rng2 = _substream(9, 0, 1)
    dw1 = rng1.standard_normal(1)[0] * math.sqrt(0.01)
    dw2 = rng2.standard_normal(1)[0] * math.sqrt(0.01)
    x1 = heston_step(DEFAULT_MP.x0, DEFAULT_MP.v_start, DEFAULT_MP, 0.01, dw1)
    v1 = np.maximum(cir_step_raw(DEFAULT_MP.v_start, DEFAULT_MP, 0.01, dw2), 0.0)
    assert x[0, 1] == x1
    assert v[0, 1] == v1


def _reference_ensemble(mp, cfg):
    """The integrator written step by step from heston_step, cir_step_raw and np.where.

    Returns (x, v) as simulate_ensemble does, the number of barrier
    reflections and the number of steps on which some, but not all, series
    were reflected.
    """
    steps = cfg.days * cfg.steps_per_day
    sqdt = math.sqrt(cfg.dt)
    rows = range(cfg.n_series)
    dw1 = np.array([_substream(cfg.seed, i, 0).standard_normal(steps) for i in rows]) * sqdt
    dw2 = np.array([_substream(cfg.seed, i, 1).standard_normal(steps) for i in rows]) * sqdt
    barrier = mp.barrier
    xt = np.full(cfg.n_series, mp.x0)
    vt = np.full(cfg.n_series, mp.v_start)
    x, v, reflections, mixed = [xt], [vt], 0, 0
    for s in range(steps):
        xnext = heston_step(xt, np.maximum(vt, 0.0), mp, cfg.dt, dw1[:, s])
        vt = cir_step_raw(vt, mp, cfg.dt, dw2[:, s])
        crossed = int((xnext < barrier).sum())
        reflections += crossed
        mixed += 0 < crossed < cfg.n_series
        xt = np.where(xnext < barrier, 2.0 * barrier - xnext, xnext)
        if (s + 1) % cfg.steps_per_day == 0:
            x.append(xt)
            v.append(np.maximum(vt, 0.0))
    return np.array(x).T, np.array(v).T, reflections, mixed


def test_reflecting_ensemble_matches_step_by_step_reference_bit_for_bit():
    # started just inside the barrier at -1 at high variance, so the reflection branch is taken
    mp = REFLECTING_MP
    cfg = SimConfig(days=13, n_series=6, seed=21)
    x_ref, v_ref, reflections, mixed = _reference_ensemble(mp, cfg)
    assert reflections > 0
    assert mixed > 0  # the reflection runs on steps where only some series crossed
    x, v = simulate_ensemble(mp, cfg)
    assert np.array_equal(x, x_ref) and np.array_equal(v, v_ref)


@pytest.mark.parametrize("x0", [0.0, -0.0])
def test_signed_zeros_at_a_barrier_of_minus_zero_match_the_reference(x0):
    # U = 2 x^3 puts the barrier at -2 * 0 / 6 = -0.0, and with no variance
    # every state is a signed zero.  A reflection that looks equivalent,
    # np.maximum(xn, 2b - xn), gives other signs here.
    mp = ModelParams(m=2.0, n=0.0, b=0.0, c=0.0, v_start=0.0, x0=x0)
    assert math.copysign(1.0, mp.barrier) == -1.0
    cfg = SimConfig(days=6, steps_per_day=3, n_series=4, seed=5)
    x_ref, v_ref, _, _ = _reference_ensemble(mp, cfg)
    x, v = simulate_ensemble(mp, cfg)
    assert not x.any() and not v.any()
    assert np.signbit(x_ref).any() == np.signbit(x0)
    assert np.array_equal(np.signbit(x), np.signbit(x_ref)) and np.array_equal(np.signbit(v), np.signbit(v_ref))
    assert x.tobytes() == x_ref.tobytes() and v.tobytes() == v_ref.tobytes()


def _assert_unchanged_by(monkeypatch, threads, patch):
    """``patch(cfg)`` before each run leaves its bits and its blow-up error as they are by default."""
    mp = REFLECTING_MP
    # by default 41 days of 7 steps make one 287-step block, and the blow-up one 41-step block
    cfg = SimConfig(days=41, steps_per_day=7, n_series=5, seed=8)
    blowup = SimConfig(dt=0.6, steps_per_day=1, days=41, n_series=8, seed=3)
    x, v = simulate_ensemble(mp, cfg)
    with pytest.raises(FloatingPointError) as default_error:
        simulate_ensemble(DEFAULT_MP, blowup)
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 3)  # 3 processes on any host: 2/2/1 and 3/3/2 series
    patch(cfg)
    xc, vc = simulate_ensemble(mp, cfg, threads=threads)
    assert np.array_equal(xc, x) and np.array_equal(vc, v)
    patch(blowup)
    with pytest.raises(FloatingPointError) as error:
        simulate_ensemble(DEFAULT_MP, blowup, threads=threads)
    assert str(error.value) == str(default_error.value)
    assert str(error.value).startswith("series 6 turned non-finite on day 14:")
    with pytest.raises(ChildProcessError):  # the forked processes of the blown-up run were reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "chunk_days, threads",
    [pytest.param(days, threads, id=f"{days}-helper" if threads > 1 else str(days))
     for threads in (1, 3) for days in (1, 3, 64)],
)
def test_noise_block_size_does_not_change_results(monkeypatch, chunk_days, threads):
    # every process draws blocks of _CHUNK_STEPS steps for its own series
    _assert_unchanged_by(
        monkeypatch, threads, lambda cfg: monkeypatch.setattr(model, "_CHUNK_STEPS", chunk_days * cfg.steps_per_day)
    )


@pytest.mark.parametrize(
    "tile, threads",
    [pytest.param(tile, threads, id=f"{tile}-helper" if threads > 1 else str(tile))
     for threads in (1, 3) for tile in (1, 5, 10_000)],
)
def test_tile_size_does_not_change_results(monkeypatch, tile, threads):
    # both blocks end mid-tile at 5 steps, and 10_000 is larger than either
    _assert_unchanged_by(monkeypatch, threads, lambda cfg: monkeypatch.setattr(model, "_TILE", tile))


class _BlowsUp:
    """A series' generator whose normals are 1e300 from step ``where[series]`` of the run on."""

    def __init__(self, seed, series, which, where):
        self.gen = _substream(seed, series, which)
        self.start = where.get(series, 1 << 62)
        self.drawn = 0

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        self.gen.standard_normal(size, dtype, out)
        out[max(0, self.start - self.drawn):] = 1e300
        self.drawn += out.size


@pytest.mark.parametrize(
    "where, row, day",
    [
        pytest.param({1: 30, 2: 31}, 1, 1, id="parent-rows"),
        pytest.param({6: 300}, 6, 4, id="child-rows"),
        pytest.param({0: 500, 3: 900, 5: 150, 7: 150}, 5, 2, id="both-child-earlier"),
        pytest.param(None, 0, 1, id="dt-1"),
    ],
)
def test_blow_up_names_the_earliest_day_and_series_at_any_process_count(monkeypatch, where, row, day):
    # 8 series of 100 steps a day split 3/3/2 or 4/4; a normal of 1e300
    # makes a series non-finite within the step or the next, and so does a
    # step of dt = 1.  Keeping v or not changes no message.
    cfg = SimConfig(days=40, n_series=8, seed=17)
    if where is None:
        cfg = replace(cfg, dt=1.0)
    else:
        monkeypatch.setattr(model, "_substream", lambda seed, series, which: _BlowsUp(seed, series, which, where))
    messages = []
    for processes in (1, 2, 3):
        monkeypatch.setattr(_fork, "_usable_cpus", lambda: processes)
        for variance in (True, False):
            with pytest.raises(FloatingPointError) as error:
                simulate_ensemble(DEFAULT_MP, cfg, threads=processes, variance=variance)
            messages.append(str(error.value))
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
    assert messages[0].startswith(f"series {row} turned non-finite on day {day}:")
    assert messages == [messages[0]] * 6


@pytest.mark.parametrize("threads", [1, 3])
def test_unkept_variance_leaves_x_bit_identical(monkeypatch, threads):
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 3)
    cfg = SimConfig(days=41, steps_per_day=7, n_series=5, seed=8)
    x, v = simulate_ensemble(REFLECTING_MP, cfg, threads=threads)
    x_only, none = simulate_ensemble(REFLECTING_MP, cfg, threads=threads, variance=False)
    assert none is None and v.shape == x.shape
    assert x_only.tobytes() == x.tobytes()
    x0, none = simulate_ensemble(REFLECTING_MP, replace(cfg, days=0), threads=threads, variance=False)
    assert none is None and x0.tolist() == [[REFLECTING_MP.x0]] * 5


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
    assert abs(vbar - DEFAULT_MP.b) / DEFAULT_MP.b < 0.05


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
    mp = ModelParams(m=0, n=0, c=0, v_start=0.01)
    cfg = SimConfig(dt=0.01, steps_per_day=100, days=100, n_series=100, seed=5)
    x, _ = simulate_ensemble(mp, cfg)
    r = daily_returns(x, [f"sim{i}" for i in range(100)]).values
    assert abs(r.var() - 0.01) / 0.01 < 0.05


def test_gradient_flow_with_noise_off():
    # b = c = v_start = 0 freezes the variance at zero; x follows -U'(x)
    quiet = ModelParams(a=2.0, b=0.0, c=0.0, v_start=0.0)
    cfg = SimConfig(dt=0.01, steps_per_day=100, days=30, n_series=1, seed=1)
    at_rest, _ = simulate_ensemble(replace(quiet, x0=0.0), cfg)
    assert np.all(at_rest == 0.0)
    in_well, _ = simulate_ensemble(replace(quiet, x0=-0.9), cfg)
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
