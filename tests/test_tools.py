"""``tools/count_src_lines.py``, the line counter behind every reported
source size, on a fixture package whose counts are known line by line;
``tools/bench_pairs.py`` on canned benchmark output and on fake trees."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

COUNTER = Path(__file__).resolve().parent.parent / "tools" / "count_src_lines.py"

# Code-only lines: 6 (import), 8-9 (one statement), 10-11 (a string that is
# not a docstring), 14 (def) and 18 (return); the docstrings (1-2, 15),
# comments (4) and blank lines are left out.
MODULE = '''"""A module docstring
over two lines."""

# a comment on a line of its own

import os  # a trailing comment

TOTAL = (1 +
         2)
MESSAGE = """a string
that is code"""


def f():
    """A function docstring."""
    # another comment

    return os.sep
'''


def test_counts_of_a_fixture_package(tmp_path):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text('"""Only a docstring."""\n')
    (package / "sub" / "mod.py").write_text(MODULE)
    done = subprocess.run([sys.executable, str(COUNTER), str(package)], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "__init__.py: 1 lines, 0 code-only",
        "sub/mod.py: 18 lines, 7 code-only",
        f"{package}: 19 lines, 7 code-only",
    ]


PAIRS = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "replicates_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
              {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]


def result_lines(rate, setup, correct=True):
    """What a benchmark run prints: info and metric lines, then one JSON line."""
    return "\n".join([
        'info {"python": "3"}', f"replicates_per_s = {rate!r} 1/s", f"setup_s = {setup!r} s",
        json.dumps({"correct": correct, "attempted": 8, "failed": 0, "metrics": {
            "replicates_per_s": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": setup, "unit": "s"}}}), ""])


def test_pair_summary_on_canned_result_lines():
    parent = [(100.0, 0.20), (110.0, 0.20), (120.0, 0.22), (130.0, 0.18)]
    change = [(90.0, 0.30), (110.0, 0.26), (125.0, 0.28), (140.0, 0.24)]
    pairs = [[bench_pairs.parse_result(result_lines(*run)) for run in pair]
             for pair in zip(parent, change)]
    compared = bench_pairs.compare(pairs, END_TO_END)
    assert compared["replicates_per_s"] == {
        "parent": (107.5, 115.0, 122.5), "change": (105.0, 117.5, 128.75), "pairs": 4,
        "change_wins": 2, "worse": False, "bound": 0.2}
    assert compared["setup_s"]["change_wins"] == 0 and compared["setup_s"]["worse"]
    lines, flags = bench_pairs.summarize("joint-delta", compared)
    assert lines[0] == "joint-delta"
    rate, setup = lines[2].split(), lines[3].split()
    # medians and inclusive quartiles; the tie in pair 2 counts for neither
    assert rate == ["replicates_per_s", "115", "[107.5,", "122.5]", "117.5", "[105,", "128.8]",
                    "2/4"]
    # setup_s is lower-better: the change loses every pair, and its median
    # 0.27 is worse than 0.2 by more than the bound 0.25
    assert setup[:8] == ["setup_s", "0.2", "[0.195,", "0.205]", "0.27", "[0.255,", "0.285]", "0/4"]
    assert "WORSE" in lines[3] and "WORSE" not in lines[2]
    assert flags == ["joint-delta setup_s: change median 0.27 against 0.2"]


FAKE_RUN = '''import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
assert args["--trace"] == "0"
rate = {rate} + int(args["--seed"])
print(json.dumps({{"correct": {correct} or args["--workload"] != "joint-delta",
                  "metrics": {{"replicates_per_s": {{"value": rate, "unit": "1/s"}}}}}}))
'''


def test_pairs_run_both_trees_and_exit_1_on_an_incorrect_run(tmp_path):
    trees = []
    for name, rate, correct in (("parent", 100, True), ("change", 50, False)):
        (tmp_path / name / "bench").mkdir(parents=True)
        (tmp_path / name / "bench" / "run.py").write_text(
            FAKE_RUN.format(rate=rate, correct=correct))
        (tmp_path / name / "src" / "kldro").mkdir(parents=True)
        (tmp_path / name / "src" / "kldro" / "__init__.py").write_text('"""Doc."""\nX = 1\n' * rate)
        trees.append(str(tmp_path / name))
    git = ["git", "-C", trees[0], "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "."], ["commit", "-q", "-m", "fake parent"]):
        subprocess.run([*git, *args], check=True, capture_output=True)
    commit = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True).stdout
    (tmp_path / "parent" / "bench" / "run.py").write_text(FAKE_RUN.format(rate=100, correct=True)
                                                          + "# an uncommitted edit\n")
    done = subprocess.run([sys.executable, str(PAIRS), *trees, "--pairs", "2", "--seconds", "1"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    # the last line of stdout is the record a BENCH_<n>.json holds
    record = json.loads(done.stdout.splitlines()[-1])
    assert record["parent"] == {"commit": commit.strip(), "uncommitted_changes": True,
                                "src_lines": 200, "src_code_lines": 100}
    assert record["change"] == {"commit": None, "uncommitted_changes": None,
                                "src_lines": 100, "src_code_lines": 50}
    assert (record["pairs"], record["seconds"], record["first_seed"]) == (2, 1.0, 61)
    assert record["failed_runs"] == 2 and record["numpy"] == np.__version__
    assert sorted(record["workloads"]) == ["binomial-t_min", "joint-delta", "normal-sigma"]
    assert record["workloads"]["normal-sigma"] == {"replicates_per_s": {
        "parent": [161.25, 161.5, 161.75], "change": [111.25, 111.5, 111.75], "pairs": 2,
        "change_wins": 0, "worse": True, "bound": 0.2}}
    # seeds 61 and 62: medians 161.5 and 111.5, the change worse in both pairs
    assert done.stdout.count("161.5 [161.2, 161.8]") == 3
    assert "flag: binomial-t_min replicates_per_s: change median 111.5 against 161.5" in done.stdout
    # only the change's joint-delta runs print correct: false
    failed = [line for line in done.stderr.splitlines() if line.startswith("failed run:")]
    assert len(failed) == 2 and all("change joint-delta" in line for line in failed)
