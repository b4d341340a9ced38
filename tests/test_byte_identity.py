"""Seeded output stays byte-identical: pinned results.csv and aggregates.csv
hashes for tiny sweeps of figure configs (2 grid values x 2 replicates
each).  Together they cover the binomial, multinomial (joint draw) and
discretized-normal nominals, uniform and both mean-tilted sample sizes
(binomial1, binomial2), and all four rules, dro1 and dro2 on binomial2
sizes included, and dro2 without dro (fig8a).  One more pin runs a sweep
as two blocks of unequal size.

The tiny sweeps miss rare rows, such as a dual-kernel stop that moves one
replicate in a few thousand, so every figure config is also pinned at
full size, run on two workers."""

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
        "c1269e6775059d793a4f99adb9b1e475ee42ae1e614b301154ff4c9338bdbd64",
        "5b1239636dd73f60c6d0703c2c3628c2ed29c78a891719e23e7de0c421527026"),
}


# config -> (sha256 of results.csv, sha256 of aggregates.csv) of the full sweep
FULL = {
    "fig2a.json": ("ebe20730564a7db931776030803df1a7e00dec70f660c51b7424ac527ccdb957",
                   "a8b60c6b2251969e2a51563ca5b996137a513d55d6149aeb621a9e75d33250f5"),
    "fig2b.json": ("ea8503a8135b27afc5a1f7b88c0f7a4527053e8f88038468a1a9df303fa9c8a3",
                   "6bdba757997b7cf59c6cc3040269e3c7e8634bad0f344719c79dc31858dc4431"),
    "fig4.json": ("2cfd07a269c3d2300ec1fa7c42061f5e91f09ef9c8ed4a22540a359626d5cbee",
                  "4bdb207501504f855574a57cbf88362b6e35291ce80af7fda19887052a84e5b1"),
    "fig5.json": ("66549ed7a9cc6b88e4ec6965f8c8ca48cf17d6ed92cd935e5860846b9446c215",
                  "08e18f8577356cf878be05caedd1b32aba1aa449d4d944f35b2899407d1fb874"),
    "fig6a.json": ("13964f8feda41ee2bf6ada0cbd2ba1454ec21aa68f80631b834cb8a81269d58f",
                   "3d634b7b0244b5eb393a1d7b69edb7ea773a2c415da586f8b0848043282a5f2d"),
    "fig6b.json": ("cc744525b4a92101069c391e6d083f05708f60b1224a22862918adee81be41d7",
                   "b5bc5b2c0ef09c71c062fc74eb568a83318d3ebf021b8a66de35dceee5f966ee"),
    "fig7.json": ("6650d3548b82f201941d161497d256092a6634c4e5574ce1e4107bb7da616030",
                  "7046e8d2dbcfecadebb72982539ca78a87e8b1b13c4a4249499b2238975c1dde"),
    "fig8a.json": ("a1146188536886378cb7bebfb9b1f50f17d412a3d263a0866200d8bd9e3a6416",
                   "73be6fd7dbc1a8415c99153296ce341487de34e42aad803c7418caacf9b1d203"),
    "fig8b.json": ("b3855a77458bac65a916d58c7e135f0a1581bf1563fec867d455f36b14f53768",
                   "2906e82d294b69971efd7159169c32e214ae083323a12346ee0a7f677f3274fb"),
}


def output_sha256(name: str, grid, out_dir, n0=2, workers=1) -> tuple[str, str]:
    """sha256 of results.csv and of aggregates.csv; a ``grid`` of None keeps
    the config's own grid and n0."""
    raw = json.loads((CONFIGS / name).read_text())
    if grid is not None:
        raw.update(grid=list(grid), n0=n0)
    cfg = ExperimentConfig.from_dict(raw)
    paths = emit_results(run_sweep(cfg, workers), str(out_dir), cfg.sweep, cfg.rules)
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


def test_every_figure_config_is_pinned():
    assert sorted(FULL) == sorted(path.name for path in CONFIGS.glob("fig*.json"))


@pytest.mark.parametrize("name", sorted(FULL))
def test_full_figure_output_is_byte_identical(name, tmp_path):
    assert output_sha256(name, None, tmp_path, workers=2) == FULL[name]
