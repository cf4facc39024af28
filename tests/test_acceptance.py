"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

A1-A4, A6 and A10 share a single default-parameter ensemble (1071 series x
3000 days) produced once through the command-line pipeline.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import assert_episodes_match, oracle_episodes, random_windows
from volstab.cli import main as cli_main
from volstab.episodes import extract_table, window_family
from volstab.model import ModelParams, SimConfig, simulate_ensemble
from volstab.returns import ReturnSeries, read_returns_csv
from volstab.stats import ensemble_acf, fht_pdf, mfht_curve, nonmonotonicity_verdict

SIGMA_BAR_TARGET = 0.02383  # calibration target for the simulated ensemble
DEFAULT_MP = ModelParams()


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def ensemble(tmp_path_factory):
    """Default-configuration simulation run, shared by A1-A4, A6, A10."""
    out = tmp_path_factory.mktemp("a1-ensemble")
    t0 = time.monotonic()
    rc = cli_main(["simulate", "--out", str(out)])
    seconds = time.monotonic() - t0
    assert rc == 0
    series = read_returns_csv(out / "returns.csv")
    stats = json.loads((out / "stats.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    return SimpleNamespace(
        out=out, series=series, stats=stats, manifest=manifest, seconds=seconds
    )


def test_a1_simulated_market_volatility(ensemble):
    sigma_bar = ensemble.stats["sigma_bar"]
    lo, hi = 0.75 * SIGMA_BAR_TARGET, 1.25 * SIGMA_BAR_TARGET
    in_band = lo <= sigma_bar <= hi
    recorded = ensemble.manifest["sigma_bar"] == sigma_bar
    fast = ensemble.seconds < 300
    _report(
        "A1",
        in_band and recorded and fast and ensemble.stats["n_series"] == 1071,
        f"sigma_bar={sigma_bar:.5f} (band [{lo:.5f}, {hi:.5f}]), "
        f"manifest_records={recorded}, runtime={ensemble.seconds:.0f}s",
    )


def _analyze_verdict(ensemble, tmp_path, family: str) -> dict:
    out = tmp_path / f"analysis-{family}"
    rc = cli_main(
        ["analyze", "--returns", str(ensemble.out / "returns.csv"),
         "--window", family, "--out", str(out)]
    )
    assert rc == 0
    (verdict,) = json.loads((out / "verdicts.json").read_text())
    return verdict


def test_a2_nonmonotonicity_crash(ensemble, tmp_path):
    verdict = _analyze_verdict(ensemble, tmp_path, "fig1a")
    ok = verdict["interior_maximum"] and verdict["populated_bins"] >= 10
    _report(
        "A2",
        ok,
        f"interior_maximum={verdict['interior_maximum']}, "
        f"populated={verdict['populated_bins']}, max_mfht={verdict['max_mfht']:.1f}, "
        f"edge ratios {verdict['edge_ratio_low']:.1f}/{verdict['edge_ratio_high']:.1f}",
    )


def test_a3_nonmonotonicity_rally(ensemble, tmp_path):
    verdict = _analyze_verdict(ensemble, tmp_path, "fig2a")
    ok = verdict["interior_maximum"] and verdict["populated_bins"] >= 10
    _report(
        "A3",
        ok,
        f"interior_maximum={verdict['interior_maximum']}, "
        f"populated={verdict['populated_bins']}, max_mfht={verdict['max_mfht']:.1f}",
    )


def test_a4_robustness_sweeps(ensemble):
    sigma_bar = ensemble.stats["sigma_bar"]
    eligible = passed = 0
    for family in ("fig1b", "fig1c"):
        for window in window_family(family, sigma_bar):
            table = extract_table(ensemble.series, window)
            if len(table) < 200:
                continue
            eligible += 1
            verdict = nonmonotonicity_verdict(mfht_curve(table))
            passed += bool(verdict["interior_maximum"])
    rate = passed / eligible if eligible else 0.0
    _report("A4", rate >= 0.75, f"{passed}/{eligible} eligible windows pass ({rate:.0%})")


def test_a5_fht_engine_oracle():
    rng = np.random.default_rng(31415)
    sigma_bar = 0.02
    windows = random_windows(rng, sigma_bar, 5, 5)
    checked = 0
    for case in range(100):
        r = rng.uniform(-3 * sigma_bar, 3 * sigma_bar, size=rng.integers(2, 51))
        rs = ReturnSeries.from_returns(f"case{case}", r)
        for w in windows:
            got = extract_table([rs], w)
            want = oracle_episodes(r, w.theta_i_abs, w.theta_f_abs, w.direction)
            assert_episodes_match(got, want, f"A5 case={case} {w.window_id}")
            checked += len(want)
    _report("A5", True, f"100 series x 10 windows, {checked} episodes, exact agreement")


def test_a6_no_arbitrage_and_clustering(ensemble):
    days = len(ensemble.series[0].returns)
    band = 3.0 / np.sqrt(days)
    plain = ensemble_acf(ensemble.series, 20).values[1:]
    absolute = ensemble_acf(ensemble.series, 20, absolute=True).values[1:]
    mean_abs_plain = float(np.abs(plain).mean())
    mean_clustering = float(absolute.mean())
    lags_above = int((absolute > band).sum())
    ok = mean_abs_plain < band and mean_clustering > 0 and lags_above >= 10
    _report(
        "A6",
        ok,
        f"mean|r-ACF|={mean_abs_plain:.4f} < {band:.4f}, "
        f"mean |r|-ACF={mean_clustering:.4f}, {lags_above}/20 lags above band",
    )


def test_a7_cir_positivity_and_mean_reversion():
    cfg = SimConfig(dt=0.01, steps_per_day=1, days=100_000, n_series=100, seed=4242)
    _, v = simulate_ensemble(DEFAULT_MP, cfg)
    samples = v[:, 1:]
    n_samples = samples.size
    vbar = float(samples.mean())
    off = abs(vbar - DEFAULT_MP.cir.b) / DEFAULT_MP.cir.b
    ok = n_samples >= 10_000_000 and (samples >= 0).all() and off < 0.05
    _report(
        "A7",
        ok,
        f"{n_samples:.1e} samples, min={samples.min():.1e}, "
        f"mean={vbar:.5f} ({off:.1%} from b)",
    )


def test_a8_discretization_stability():
    def sigma_bar(dt, spd):
        cfg = SimConfig(dt=dt, steps_per_day=spd, days=6000, n_series=100, seed=0)
        x, _ = simulate_ensemble(DEFAULT_MP, cfg)
        return float(np.diff(x, axis=1).std(axis=1).mean())

    coarse = sigma_bar(7.0e-4, 100)
    fine = sigma_bar(3.5e-4, 200)
    rel = abs(coarse - fine) / coarse
    _report("A8", rel < 0.02, f"sigma_bar {coarse:.5f} -> {fine:.5f}, change {rel:.2%}")


def test_a9_determinism_byte_identical(tmp_path):
    args = ["--n-series", "60", "--days", "400", "--seed", "777"]
    outs = []
    for tag in ("one", "two"):
        sim = tmp_path / f"sim-{tag}"
        assert cli_main(["simulate", *args, "--out", str(sim)]) == 0
        an = tmp_path / f"an-{tag}"
        assert cli_main(
            ["analyze", "--returns", str(sim / "returns.csv"),
             "--window", "fig1a", "--out", str(an)]
        ) == 0
        outs.append((sim, an))
    (sim1, an1), (sim2, an2) = outs
    files_equal = {
        "returns.csv": (sim1 / "returns.csv").read_bytes() == (sim2 / "returns.csv").read_bytes(),
        "stats.json": (sim1 / "stats.json").read_bytes() == (sim2 / "stats.json").read_bytes(),
        "episodes.csv": (an1 / "episodes.csv").read_bytes() == (an2 / "episodes.csv").read_bytes(),
        "verdicts.json": (an1 / "verdicts.json").read_bytes() == (an2 / "verdicts.json").read_bytes(),
    }
    curves1 = sorted(p.name for p in an1.glob("curve_*.csv"))
    curves2 = sorted(p.name for p in an2.glob("curve_*.csv"))
    files_equal["curves"] = curves1 == curves2 and all(
        (an1 / name).read_bytes() == (an2 / name).read_bytes() for name in curves1
    )
    _report("A9", all(files_equal.values()), f"byte-identical: {files_equal}")


def test_a10_fht_pdf_shape(ensemble):
    sigma_bar = ensemble.stats["sigma_bar"]
    window = window_family("fig1a", sigma_bar)[0]
    table = extract_table(ensemble.series, window)
    hist = fht_pdf(table, bins=30)
    n_bins = hist.density.size
    modal = int(np.argmax(hist.density))
    modal_fht = float(np.sqrt(hist.bin_edges[modal] * hist.bin_edges[modal + 1]))
    tail_mass = int(hist.counts[hist.bin_edges[:-1] > 10 * modal_fht].sum())
    ok = modal < n_bins / 3 and tail_mass > 0
    _report(
        "A10",
        ok,
        f"modal bin {modal}/{n_bins} (fht~{modal_fht:.1f}), "
        f"{tail_mass} episodes beyond 10x the modal hitting time",
    )
