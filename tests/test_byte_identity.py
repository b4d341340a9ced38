"""Seeded output stays byte-identical: pinned results.csv and aggregates.csv
hashes for tiny sweeps of figure configs (2 grid values x 2 replicates
each).  Together they cover the binomial, multinomial (joint draw) and
discretized-normal nominals, uniform and both mean-tilted sample sizes
(binomial1, binomial2), and all four rules, dro1 and dro2 on binomial2
sizes included, and dro2 without dro (fig8a).  One more pin runs a sweep
as two blocks of unequal size.

The tiny sweeps miss rare rows, such as a dual-kernel stop that moves one
replicate in a few thousand, so every figure config is also pinned at
full size, run on two workers.

The digests hold for the numpy build and the SIMD targets it dispatched to
where they were made (``PINNED_ON``); another build or CPU may round a few
last bits differently.  The portable check runs the reduced sweeps with
every dispatched target switched off and compares them with this process's
run at a tolerance of a few ulps."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x, which pyproject.toml still admits
    from numpy.core import _multiarray_umath

from kldro.experiments import ExperimentConfig, emit_results, run_sweep

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# (numpy version, dispatched SIMD targets) where the digests below were made
PINNED_ON = ("2.4.6", ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"))


def running_on() -> tuple[str, tuple]:
    """This numpy's version and the SIMD targets it dispatches to here."""
    features = _multiarray_umath.__cpu_features__
    return np.__version__, tuple(t for t in _multiarray_umath.__cpu_dispatch__ if features.get(t))


def pinned_where() -> str:
    """The assertion message of a failing digest: where the pins were made
    and where they run."""
    (made, made_on), (now, now_on) = PINNED_ON, running_on()
    return (f"digests made on numpy {made} with targets {' '.join(made_on) or 'none'}; "
            f"running numpy {now} with targets {' '.join(now_on) or 'none'}")

# config -> (reduced grid, sha256 of results.csv, sha256 of aggregates.csv)
PINNED = {
    "fig2a.json": ((5, 35),
        "c5ba273b1539b2029c7a3c4a683a2bb10981bad0df1adea780b6a82ec0e3e645",
        "2b54df9b9fe0fe5cf5681a133f7e93a0509adb5820a6a74dfb19ef772bd092aa"),
    "fig2b.json": ((5, 35),
        "8dae00bddf1f14066dd6b38e274d14fd48e97206d004d43df1c3392d9cec1625",
        "156b0fc86bacd93108f835c37772a8ce31234d3f156dbf3436b9a6fb501655c3"),
    "fig5.json": ((0, 40),
        "0ac40f1f51f8f5c9cded47edfc53c34d00c759dc9394c7a1f9d27e716ea8b5a3",
        "54d37e6195398bdc47ead7022d7fa47742e737fa41564dd8aa1475ef0ad2468d"),
    "fig4.json": ((1, 49),
        "16ed494c3d737cc48ba22921d4a5e2753517c994d6c03180f3b541a61e973d7d",
        "28b364a71182ead5a16ced0434d6740f0dabf3b6bcf3ef596bdb0bb5ef034b42"),
    "fig6a.json": ((5, 35),
        "0c46d27536e915d9ee831ff2b5613c86bc4f6dd96b797926417ba9f5d98f7217",
        "c17dca493c1d03947ef6a143d0887f275168860b85e7403ae835f46156869885"),
    "fig6b.json": ((5, 35),
        "4e4d80868ea7d6807ab32fc4180438cde33c3753a07009f34e9deb5ee91c40f9",
        "9533c2eb7db776a074c9a61e5f2ad891024a6ccc46d33ebf0aa3000853e1f578"),
    "fig7.json": ((0, 40),
        "5ac7d76ade994937298ddc3e8310bb472553935b0123b31efd3376245640143b",
        "e81593df8c60da9e80497e2384ca5bf2d628e26e59681c7f677319df3534ef44"),
    "fig8a.json": ((0, 40),
        "43933d59d2e6f7f2017a16f3b767692b95cf42f7df111c38cf60ee64748405eb",
        "b08564462c946323a339edf8d4a028eb8893bf2784f04a0846ef9de43f35b5cb"),
    "fig8b.json": ((0, 40),
        "448d5e4a9fe3cf0f43e29132da4e3eb16537439279de111f62d5e568f968d365",
        "5b1239636dd73f60c6d0703c2c3628c2ed29c78a891719e23e7de0c421527026"),
}


# config -> (sha256 of results.csv, sha256 of aggregates.csv) of the full sweep
FULL = {
    "fig2a.json": ("c79af94c5040f2b3cf0d873f9672032206c1a8a47303bc7402d16bad99b5b7e6",
                   "a8b60c6b2251969e2a51563ca5b996137a513d55d6149aeb621a9e75d33250f5"),
    "fig2b.json": ("245ac7db86f518a8fb990160bf9b9e7eef3ef7547ea82a395ad5e7c68a058068",
                   "6bdba757997b7cf59c6cc3040269e3c7e8634bad0f344719c79dc31858dc4431"),
    "fig4.json": ("c5c0672a7392465438f8c4c35c30366ea97c4a70b6a3090e0696189482cbd606",
                  "4bdb207501504f855574a57cbf88362b6e35291ce80af7fda19887052a84e5b1"),
    "fig5.json": ("147f9a7b39733d7e4302cefa3a3760acb0a1b5b113e474ff2a5f6f9dded21108",
                  "08e18f8577356cf878be05caedd1b32aba1aa449d4d944f35b2899407d1fb874"),
    "fig6a.json": ("f2a7591271116720c65d865375759477c64d2f0bbbdcfe46173dd38d0ba33495",
                   "3d634b7b0244b5eb393a1d7b69edb7ea773a2c415da586f8b0848043282a5f2d"),
    "fig6b.json": ("08cc7eaaa0600f336be373eab873646f1bd34d53836782a893028e52a4656070",
                   "b5bc5b2c0ef09c71c062fc74eb568a83318d3ebf021b8a66de35dceee5f966ee"),
    "fig7.json": ("8edf550cd1385ab32cd3a4d577faee84d8e64980b744058ddc22727e72636c49",
                  "7046e8d2dbcfecadebb72982539ca78a87e8b1b13c4a4249499b2238975c1dde"),
    "fig8a.json": ("09d021084fe4397070c199fa5abb929cc76aa0b36d2094d9e64e5c7f6a4aecd8",
                   "73be6fd7dbc1a8415c99153296ce341487de34e42aad803c7418caacf9b1d203"),
    "fig8b.json": ("b9f35eaa1f04391af3e389a50ee00d62844cb5861ebcf185c0e8c1b7cf226e23",
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
    assert output_sha256(name, grid, tmp_path)[0] == expected, pinned_where()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_seeded_aggregates_csv_is_byte_identical(name, tmp_path):
    grid, _, expected = PINNED[name]
    assert output_sha256(name, grid, tmp_path)[1] == expected, pinned_where()


def test_a_two_block_sweep_is_byte_identical(tmp_path):
    """fig2a at n0 = 9 on two grid values: 18 replicates run as blocks of 16
    and 2, the second block inside the second grid value."""
    assert output_sha256("fig2a.json", (5, 35), tmp_path, n0=9) == (
        "1723eeb84397feefe9dcca18b807b569307af6e28daca95da0d1e8ce1715340b",
        "0984293a766ab994e98aff4e49a4d2b1d1e9f910b8a3514a686ba94c77fa4218"), pinned_where()


def test_every_figure_config_is_pinned():
    assert sorted(FULL) == sorted(path.name for path in CONFIGS.glob("fig*.json"))


@pytest.mark.parametrize("name", sorted(FULL))
def test_full_figure_output_is_byte_identical(name, tmp_path):
    assert output_sha256(name, None, tmp_path, workers=2) == FULL[name], pinned_where()


def reduced_sweeps() -> dict:
    """The ``PINNED`` reduced sweeps as plain data, per config: one (sweep
    value, replicate, rule, nodes, rho, predicted, nominal, disappointed)
    row per outcome, and one (sweep value, rule, mean rho, MAD, frequency)
    row per aggregate."""
    found = {}
    for name, (grid, _, _) in sorted(PINNED.items()):
        raw = json.loads((CONFIGS / name).read_text())
        raw.update(grid=list(grid), n0=2)
        points = run_sweep(ExperimentConfig.from_dict(raw))
        found[name] = {
            "outcomes": [[p.sweep_value, rep.replicate, out.rule, list(out.nodes), out.rho,
                          out.predicted, out.nominal, out.disappointed]
                         for p in points for rep in p.replicates for out in rep.outcomes],
            "aggregates": [[p.sweep_value, rule, *p.aggregates[rule]]
                           for p in points for rule in p.aggregates]}
    return found


ULPS = 4


def near(a: float, b: float, scale: float | None = None) -> bool:
    """Within ``ULPS`` units in the last place of ``scale``, by default the
    larger magnitude of ``a`` and ``b``."""
    scale = max(abs(a), abs(b)) if scale is None else abs(scale)
    return a == b or abs(a - b) <= ULPS * math.ulp(scale)


def test_reduced_sweeps_agree_with_every_dispatched_target_switched_off():
    """The reduced sweeps in a child process whose numpy dispatches to no
    SIMD target above its baseline: paths, flags and disappointment
    frequencies are exact, and every other float is within ULPS ulps.  A
    MAD is a deviation of rho values from their mean, rounded at their
    scale, so its ulps are the mean's: a 1-ulp move of one rho moves a
    small MAD by many ulps of its own."""
    _, targets = running_on()
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    child = subprocess.run(
        [sys.executable, "-c", "import json, test_byte_identity as t; "
                               "print(json.dumps([t.running_on(), t.reduced_sweeps()]))"],
        env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    (_, child_targets), portable = json.loads(child.stdout)
    assert child_targets == []
    here = json.loads(json.dumps(reduced_sweeps()))  # tuples read back as lists
    assert sorted(portable) == sorted(here) == sorted(PINNED)
    for name in PINNED:
        for kind in ("outcomes", "aggregates"):
            assert len(portable[name][kind]) == len(here[name][kind]), (name, kind)
        for found, expected in zip(portable[name]["outcomes"], here[name]["outcomes"]):
            assert found[:4] == expected[:4] and found[7] == expected[7], (name, found, expected)
            assert all(map(near, found[4:7], expected[4:7])), (name, found, expected)
        for found, expected in zip(portable[name]["aggregates"], here[name]["aggregates"]):
            assert found[:2] == expected[:2] and found[4] == expected[4], (name, found, expected)
            mean_rho = found[2]
            assert near(mean_rho, expected[2]) and near(found[3], expected[3], mean_rho), (
                name, found, expected)
