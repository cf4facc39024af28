"""Golden digests of a small seeded simulate + analyze run.

A9 compares two runs of the same code, so it cannot see a change that
alters every run alike.  These sha256 values were measured once; any
change to them is a change of output bytes and must be deliberate.
"""

import hashlib

from volstab.cli import main

GOLDEN = {
    "sim/returns.csv": "0e7951b10d27dae06228ef709e3c910ecd854d99e87b2bd6ad1246be5e853758",
    "sim/trajectories.csv": "b520001de62362ba26edb4fe5d1897e41a80ee22ce6b84bc8c38731466cec011",
    "sim/stats.json": "ee255d3110465796bca44e6739539e3d9e1f0c8488ad78948a04040c8920567b",
    "an/episodes.csv": "4e5048d67bd577ad2fbee802330102fcf6f077fdc5395be2abb5ab40f9ef34a9",
    "an/verdicts.json": "6c2f5fe97b682543f991ac2074a0d4703d9925ebbf715abc27969ef0d42b6f27",
}


def test_golden_digests_of_seeded_run(tmp_path):
    sim, an = tmp_path / "sim", tmp_path / "an"
    assert main([
        "simulate", "--n-series", "8", "--days", "250", "--seed", "2024",
        "--write-trajectories", "--out", str(sim),
    ]) == 0
    assert main(["analyze", "--returns", str(sim / "returns.csv"), "--window", "fig1b", "--out", str(an)]) == 0
    assert len((an / "episodes.csv").read_text().splitlines()) == 1 + 804
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert got == GOLDEN
