"""Golden digests of a small seeded simulate + analyze run, and of analyze --prices.

A9 compares two runs of the same code, so it cannot see a change that
alters every run alike.  These sha256 values were measured once; any
change to them is a change of output bytes and must be deliberate.
"""

import hashlib
import logging

import numpy as np
import pytest

from volstab import _fork
from volstab.cli import main

GOLDEN = {
    "sim/returns.csv": "0e7951b10d27dae06228ef709e3c910ecd854d99e87b2bd6ad1246be5e853758",
    "sim/trajectories.csv": "b520001de62362ba26edb4fe5d1897e41a80ee22ce6b84bc8c38731466cec011",
    "sim/stats.json": "ee255d3110465796bca44e6739539e3d9e1f0c8488ad78948a04040c8920567b",
    "an/episodes.csv": "4e5048d67bd577ad2fbee802330102fcf6f077fdc5395be2abb5ab40f9ef34a9",
    "an/verdicts.json": "6c2f5fe97b682543f991ac2074a0d4703d9925ebbf715abc27969ef0d42b6f27",
}


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_golden_digests_of_seeded_run(tmp_path, monkeypatch, processes):
    # on any host: 8 series split 8, 4/4 or 3/3/2 among the integrator's and the writers' processes
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: processes)
    sim, an = tmp_path / "sim", tmp_path / "an"
    assert main([
        "simulate", "--n-series", "8", "--days", "250", "--seed", "2024", "--threads", str(processes),
        "--write-trajectories", "--out", str(sim),
    ]) == 0
    assert main(["analyze", "--returns", str(sim / "returns.csv"), "--window", "fig1b", "--out", str(an)]) == 0
    assert len((an / "episodes.csv").read_text().splitlines()) == 1 + 804
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert got == GOLDEN


def _price_texts(rng, n, sigma):
    """``n`` prices of a multiplicative random walk, as ``repr`` texts.

    Only products, no ``np.exp``, whose last bits depend on the CPU's SIMD
    extensions.
    """
    return [repr(p) for p in (50 * np.cumprod(1 + rng.normal(0, sigma, n))).tolist()]


def _dates(start, n):
    return [str(d) for d in np.datetime64("2001-01-01") + start + np.arange(n)]


def write_ragged_price_dir(d):
    """Twelve per-stock files of different spans, with empty, negative, zero and blank rows.

    A thirteenth file holds one valid price, so it is skipped.
    """
    rng = np.random.default_rng(4711)
    d.mkdir()
    for k in range(12):
        n = int(rng.integers(150, 320))
        cells = _price_texts(rng, n, float(rng.uniform(0.01, 0.05)))
        for i in rng.choice(n, 6, replace=False).tolist():
            cells[i] = ["", "-" + cells[i], "0.0"][i % 3]
        lines = ["date,close"] + [f"{day},{cell}" for day, cell in zip(_dates(int(rng.integers(0, 90)), n), cells)]
        for i in sorted(rng.choice(np.arange(1, n), 3, replace=False).tolist(), reverse=True):
            lines.insert(i, "")
        (d / f"s{k:02d}.csv").write_text("\n".join(lines) + "\n")
    (d / "s12.csv").write_text("date,close\n2001-01-01,12.5\n2001-01-02,\n")


def write_wide_price_file(path):
    """Eight tickers over 280 days; about one cell in twelve is empty or negative."""
    rng = np.random.default_rng(815)
    columns = [_price_texts(rng, 280, sigma) for sigma in np.linspace(0.01, 0.045, 8).tolist()]
    lines = ["date," + ",".join(f"w{j}" for j in range(8))]
    for i, day in enumerate(_dates(0, 280)):
        cells = [col[i] for col in columns]
        for j in np.flatnonzero(rng.random(8) < 1 / 12).tolist():
            cells[j] = "" if j % 2 else "-" + cells[j]
        lines.append(day + "," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n")


PRICES_GOLDEN = {
    "per-stock": {
        "fig1a": {
            "stdout": "b55f57e3a847821455b6efe8df7587c3f1392926754287d3dab2169814a42f3b",
            "warnings": "a39606517a197e186421b97e325f896afe1da075dceeb1bafb6cd0de8888c6d5",
            "manifest.json": "802e227f594039ff75df78114eb031f7531ee2a4f39df262fc83e94203754e66",
            "episodes.csv": "5fbd8b40e9c8b890fde95ef5bc3dcae44207134662e1175c679be5eb905db8d5",
            "verdicts.json": "f116331ec8c2f3b59b0a2f13df2842c067de28cb9c293f45a27b7e87342dcc22",
        },
        "fig1b": {
            "stdout": "fe995b0553b0c8e541959dbd4fe5094a47dd59c90c876e8872d6c67f3230c901",
            "warnings": "a39606517a197e186421b97e325f896afe1da075dceeb1bafb6cd0de8888c6d5",
            "manifest.json": "74df708be5baf4cc52ca0f31fba36e8ebd1ae311596efd55f8b811b79fd09c0a",
            "episodes.csv": "76f49c4078c19d80b0146a74e9eba13371d328a1e9c93bf867c3b4250095d3bf",
            "verdicts.json": "c466b014864df80be340d10c866c5040a2a48c3424539df0d5b1638416e74307",
        },
    },
    "wide": {
        "fig1a": {
            "stdout": "6221c5b5320d9650d86dc94ab73a7b757404095eb6563f9d2fc9757b70c5785a",
            "warnings": "e30a5ba6aad10700a56a4ceadeb67de13028568373dc550a39dca4435fa2da21",
            "manifest.json": "31af877cd8750358155ffe91e01ed42b3076a8d8b3a95b7be35b263318cf666d",
            "episodes.csv": "59ae9e1051c26919f4217ec9af018a78f5cded8a250b7a6ccedde3c6718dc50e",
            "verdicts.json": "a5f2b0fa7688925b3b24d80719eef3c47a990b317d06356139aee4e3bed25ac4",
        },
        "fig1b": {
            "stdout": "93583e9ed09bab8667c5e6203573a4c756a65e2c76c13d784d7e6df67bcddb51",
            "warnings": "e30a5ba6aad10700a56a4ceadeb67de13028568373dc550a39dca4435fa2da21",
            "manifest.json": "53751f1ea61232b9b402637a0029e13ff019491cd4add4e6423be81002cb80db",
            "episodes.csv": "def5fcca7008197a23cd918361a5c44851b034e53c2ae9563e29179710fcdc51",
            "verdicts.json": "529f2c8b6605374a32bbb77f49400477187b037639b87ec70e0e7d9f12405be1",
        },
    },
}


@pytest.mark.parametrize("layout", sorted(PRICES_GOLDEN))
@pytest.mark.parametrize("window", ["fig1a", "fig1b"])
def test_golden_digests_of_analyze_prices(tmp_path, caplog, capsys, layout, window):
    if layout == "wide":
        src = tmp_path / "wide.csv"
        write_wide_price_file(src)
    else:
        src = tmp_path / "prices"
        write_ragged_price_dir(src)
    out = tmp_path / "an"
    with caplog.at_level(logging.WARNING):
        assert main(["analyze", "--prices", str(src), "--layout", layout, "--window", window, "--out", str(out)]) == 0
    texts = {
        "stdout": capsys.readouterr().out,
        "warnings": "".join(f"{rec.levelname}:{rec.getMessage()}\n" for rec in caplog.records),
        "manifest.json": (out / "manifest.json").read_text(),
    }
    # stdout and the manifest name the run's paths
    got = {name: hashlib.sha256(text.replace(str(tmp_path), "TMP").encode()).hexdigest() for name, text in texts.items()}
    # The curve files are left out: their log-spaced bin edges come from
    # np.exp, whose last bits depend on the CPU's SIMD extensions.
    for name in ("episodes.csv", "verdicts.json"):
        got[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert got == PRICES_GOLDEN[layout][window]
