"""Regenerate the stored pinned-seed references under bench/reference/.

    python3 bench/make_reference.py

Runs each workload's reduced grid at the pinned seed with one worker and
stores, per rule and replicate, the chosen path, rho and predicted loss,
plus the results.csv sha256 for information.  Regenerate only for a change
that is meant to move results, and state by how much they moved.
"""

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    for name, wl in run.WORKLOADS.items():
        record = run.reference_record(wl)
        rows = record.pop("rows")
        path = run.reference_path(name)
        path.parent.mkdir(exist_ok=True)
        # one row per line keeps the diff of a regenerated reference readable
        body = ",\n".join(json.dumps(row) for row in rows)
        path.write_text(json.dumps(record, indent=1)[:-2] + f',\n "rows": [\n{body}\n]\n}}\n')
        print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
