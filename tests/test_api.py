"""The names the volstab package exports: those of its modules' ``__all__`` lists, each named in README."""

import re
from pathlib import Path
from types import ModuleType

import volstab
from volstab import episodes, model, returns, stats

EXPORTED = {
    "EpisodeTable", "ThresholdWindow", "extract_table", "window_family",
    "ModelParams", "SimConfig", "daily_returns", "simulate_ensemble",
    "Ensemble", "MarketStats", "ReturnSeries", "load_prices", "market_stats", "read_returns_csv",
    "to_returns", "write_returns_csv", "write_stats_json",
    "CurveComparison", "Histogram", "MfhtCurve", "acf", "compare_curves", "ensemble_acf", "fht_pdf",
    "histogram", "mfht_curve", "nonmonotonicity_verdict",
}


def test_package_exports_the_public_names_of_its_modules():
    listed = [(module, name) for module in (episodes, model, returns, stats) for name in module.__all__]
    for module, name in listed:
        assert getattr(volstab, name) is getattr(module, name), name  # defined, and republished
    names = [name for _, name in listed]
    assert len(names) == len(set(names)) and set(names) == EXPORTED  # each name in one list
    published = {n for n, v in vars(volstab).items() if not n.startswith("_") and not isinstance(v, ModuleType)}
    assert published == EXPORTED


def test_readme_names_every_exported_name_in_backticks():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    named = {word for span in re.findall(r"`([^`\n]+)`", readme) for word in re.findall(r"\w+", span)}
    assert sorted(EXPORTED - named) == []
