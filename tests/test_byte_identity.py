"""Seeded output stays byte-identical: pinned results.csv and aggregates.csv
hashes for tiny sweeps of figure configs (2 grid values x 2 replicates
each).  Together they cover the binomial, multinomial (joint draw) and
discretized-normal nominals, uniform and both mean-tilted sample sizes
(binomial1, binomial2), and all four rules, dro1 and dro2 on binomial2
sizes included, and dro2 without dro (fig8a).  One more pin runs a sweep
as two blocks of unequal size."""

import hashlib
import json
from pathlib import Path

import pytest

from kldro.experiments import ExperimentConfig, emit_results, run_sweep

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# config -> (reduced grid, sha256 of results.csv, sha256 of aggregates.csv)
PINNED = {
    "fig2a.json": ((5, 35),
        "22dd9c46f935eb85c09c54c4fa858a7c2f34488c9e03416b21c272b692de1c44",
        "2b54df9b9fe0fe5cf5681a133f7e93a0509adb5820a6a74dfb19ef772bd092aa"),
    "fig2b.json": ((5, 35),
        "8dae00bddf1f14066dd6b38e274d14fd48e97206d004d43df1c3392d9cec1625",
        "156b0fc86bacd93108f835c37772a8ce31234d3f156dbf3436b9a6fb501655c3"),
    "fig5.json": ((0, 40),
        "b52c25f1951c55b05358ded4f9113a73370f552a22cbadfd452e2e90395a9b33",
        "54d37e6195398bdc47ead7022d7fa47742e737fa41564dd8aa1475ef0ad2468d"),
    "fig4.json": ((1, 49),
        "b26cd9aa93addb78605351ac93f44e043d28fe71d3f7b1ca433133f5bcbadb70",
        "28b364a71182ead5a16ced0434d6740f0dabf3b6bcf3ef596bdb0bb5ef034b42"),
    "fig6a.json": ((5, 35),
        "957b6a26d35b1bfba1c5afe62ca9f8569f1930d8eec7d6f90b13b7277be2d676",
        "c17dca493c1d03947ef6a143d0887f275168860b85e7403ae835f46156869885"),
    "fig6b.json": ((5, 35),
        "4e4d80868ea7d6807ab32fc4180438cde33c3753a07009f34e9deb5ee91c40f9",
        "9533c2eb7db776a074c9a61e5f2ad891024a6ccc46d33ebf0aa3000853e1f578"),
    "fig7.json": ((0, 40),
        "95b507290b7d4212be82bbbfa76e98702a014356cf6b412e8b9dbc3e9069d45f",
        "e81593df8c60da9e80497e2384ca5bf2d628e26e59681c7f677319df3534ef44"),
    "fig8a.json": ((0, 40),
        "eaee8d889db513be8227f50d694554ef1ade2ae4874016e3fc4e55c797368197",
        "b08564462c946323a339edf8d4a028eb8893bf2784f04a0846ef9de43f35b5cb"),
    "fig8b.json": ((0, 40),
        "a85ead89bcfedb7331938db57aed55c5a2a316df7d8f6682d280512e2c619477",
        "5b1239636dd73f60c6d0703c2c3628c2ed29c78a891719e23e7de0c421527026"),
}


def output_sha256(name: str, grid, out_dir, n0=2) -> tuple[str, str]:
    """sha256 of results.csv and of aggregates.csv."""
    raw = json.loads((CONFIGS / name).read_text())
    raw.update(grid=list(grid), n0=n0)
    cfg = ExperimentConfig.from_dict(raw)
    paths = emit_results(run_sweep(cfg), str(out_dir), cfg.sweep, cfg.rules)
    return tuple(hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in paths)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_seeded_results_csv_is_byte_identical(name, tmp_path):
    grid, expected, _ = PINNED[name]
    assert output_sha256(name, grid, tmp_path)[0] == expected


@pytest.mark.parametrize("name", sorted(PINNED))
def test_seeded_aggregates_csv_is_byte_identical(name, tmp_path):
    grid, _, expected = PINNED[name]
    assert output_sha256(name, grid, tmp_path)[1] == expected


def test_a_two_block_sweep_is_byte_identical(tmp_path):
    """fig2a at n0 = 9 on two grid values: 18 replicates run as blocks of 16
    and 2, the second block inside the second grid value."""
    assert output_sha256("fig2a.json", (5, 35), tmp_path, n0=9) == (
        "bb4015b4dbe04f0226f9d288f5d53a55de7049f99e17c1e3f381e1f08a7982c6",
        "0984293a766ab994e98aff4e49a4d2b1d1e9f910b8a3514a686ba94c77fa4218")
