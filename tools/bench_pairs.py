"""Compare the end-to-end benchmark of two source trees in alternating pairs.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR [--pairs 10] [--seconds 30]

For each workload in ``BENCHMARK.json`` (the one next to this script's
``tools/``), pair i runs the benchmark command with ``--trace 0`` and seed
61 + i once in each tree, the parent first in even pairs and the change
first in odd ones.  For each end-to-end metric it prints the parent's and
the change's median and quartiles, and in how many pairs the change was
better (a tie counts for neither).  A change median worse than the parent's
by more than the metric's ``bound``, a fraction of the parent's median, is
flagged.  Exit code 1 means some run exited non-zero or printed
``"correct": false``; flags alone do not change it.

The last line of stdout is one JSON object, the record a ``BENCH_<n>.json``
holds: per workload and metric both trees' quartiles and the change's wins;
each tree's commit (null outside a git checkout), whether it has
uncommitted changes, and its ``tools/count_src_lines.py`` totals; and the
numpy version and dispatched SIMD targets of the interpreter running this
script.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 61


def parse_result(stdout: str) -> dict:
    """The JSON object on the last line of a benchmark run's stdout."""
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def quartiles(values) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), inclusive of the ends."""
    if len(values) < 2:
        return (values[0],) * 3
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, mid, high


def compare(pairs, end_to_end) -> dict:
    """Per end-to-end metric that both runs of some pair measured: both
    trees' [q1, median, q3], the change's wins, the pairs compared, and
    whether the change median is worse than the parent's by more than the
    metric's bound."""
    compared = {}
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        values = [[result["metrics"][name]["value"] for result in pair] for pair in pairs
                  if all(name in result.get("metrics", {}) for result in pair)]
        if not values:
            continue
        parent, change = zip(*values)
        parent, change = quartiles(parent), quartiles(change)
        pm, cm = parent[1], change[1]
        compared[name] = {
            "parent": parent, "change": change, "pairs": len(values),
            "change_wins": sum(c > p if higher else c < p for p, c in values),
            "worse": cm < pm * (1 - metric["bound"]) if higher else cm > pm * (1 + metric["bound"]),
            "bound": metric["bound"]}
    return compared


def summarize(workload: str, compared: dict) -> tuple[list[str], list[str]]:
    """Table lines for one workload's :func:`compare`, and the flags:
    metrics whose change median is worse than the parent's by more than
    their bound."""
    lines = [workload,
             f"  {'metric':<22} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
             f"{'change won':>10}"]
    flags = []
    for name, m in compared.items():
        (p1, pm, p3), (c1, cm, c3) = m["parent"], m["change"]
        won = f"{m['change_wins']}/{m['pairs']}"
        mark = f"  WORSE than the parent by more than {m['bound']:g}" if m["worse"] else ""
        lines.append(f"  {name:<22} {f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':>30} "
                     f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>30} {won:>10}{mark}")
        if m["worse"]:
            flags.append(f"{workload} {name}: change median {cm:.4g} against {pm:.4g}")
    return lines, flags


def tree_record(tree: Path) -> dict:
    """A source tree's commit, whether it has uncommitted changes, and its
    package's line counts."""
    def git(*args) -> subprocess.CompletedProcess:
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
    head = git("rev-parse", "HEAD")
    commit = head.stdout.strip() if head.returncode == 0 else None
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout) if commit else None
    counted = subprocess.run([sys.executable, str(ROOT / "tools" / "count_src_lines.py"),
                              str(tree / "src" / "kldro")], capture_output=True, text=True)
    lines, code = map(int, re.search(r"(\d+) lines, (\d+) code-only$", counted.stdout).groups())
    return {"commit": commit, "uncommitted_changes": dirty, "src_lines": lines,
            "src_code_lines": code}


def numpy_build() -> dict:
    """This interpreter's numpy version and the SIMD targets it dispatches to."""
    import numpy
    from numpy._core import _multiarray_umath as umath
    return {"numpy": numpy.__version__,
            "targets": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]}


def run(tree: Path, command, workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    """One benchmark run in ``tree``: its result, and a problem ('' if none)."""
    done = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    try:
        result = parse_result(done.stdout)
    except json.JSONDecodeError:
        result = {}
    if done.returncode != 0 or result.get("correct") is not True:
        return result, (f"{tree} {workload} seed {seed}: exit {done.returncode}, correct "
                        f"{result.get('correct')}; {done.stderr.strip()[-500:]}")
    return result, ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems, flags, workloads = [], [], {}
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = []
        for i in range(args.pairs):
            found = [{}, {}]  # the parent's result, then the change's
            for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                found[k], problem = run((args.parent, args.change)[k], spec["command"],
                                        workload, FIRST_SEED + i, args.seconds)
                if problem:
                    problems.append(problem)
            pairs.append(found)
        workloads[workload] = compare(pairs, spec["end_to_end"])
        lines, workload_flags = summarize(workload, workloads[workload])
        print("\n".join(lines), flush=True)
        flags += workload_flags
    for line in flags:
        print(f"flag: {line}")
    for line in problems:
        print(f"failed run: {line}", file=sys.stderr)
    print(json.dumps({"pairs": args.pairs, "seconds": args.seconds, "first_seed": FIRST_SEED,
                      "parent": tree_record(args.parent), "change": tree_record(args.change),
                      **numpy_build(), "failed_runs": len(problems), "workloads": workloads}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
