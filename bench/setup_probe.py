"""Fresh-interpreter probe for set-up time and peak memory.

    python3 bench/setup_probe.py SRC_DIR CONFIG_JSON [OUT_DIR]

Times importing kldro, loading and validating the config, and building the
graph.  With OUT_DIR it then runs the sweep at one worker, writes the CSVs
there, and reports the process's peak resident memory.  Prints one JSON
object.
"""

import json
import resource
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from kldro.experiments import ExperimentConfig, emit_results, run_sweep  # noqa: E402
from kldro.graphs import build_layered  # noqa: E402

with open(sys.argv[2]) as fh:
    cfg = ExperimentConfig.from_dict(json.load(fh))
build_layered(cfg.h, cfg.w)
report = {"setup_s": time.perf_counter() - start}

if len(sys.argv) > 3:
    emit_results(run_sweep(cfg, workers=1), sys.argv[3], cfg.sweep, cfg.rules)
    # ru_maxrss is in KiB on Linux
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

print(json.dumps(report))
