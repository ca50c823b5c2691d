"""Record the reference outputs that benchmark runs are checked against.

    python3 benchmark/record_reference.py [workload ...]

Runs each workload once at REFERENCE_SEED and writes every cell's output
rows, with the violation and unresolved counts as the baseline, to
`benchmark/reference/<workload>.json`.  Re-record only when a change to the
program is meant to change its output, and say so in the change.
"""
import json
import sys

import run

REFERENCE_SEED = 0


def main(names) -> None:
    run.import_package()
    import workloads

    for name in names or list(workloads.WORKLOADS):
        outcomes, _, _ = run.run_pass(workloads.WORKLOADS[name](REFERENCE_SEED))
        failed = [o.key for o in outcomes if o.failures]
        if failed:
            sys.exit(f"{name}: cells failed their own checks: {failed}")
        violations, unresolved = run.verdicts(outcomes)
        record = {
            "seed": REFERENCE_SEED,
            "violations": violations,
            "unresolved": unresolved,
            "violation_lines": [v for o in outcomes for v in o.violations],
            "cells": {o.key: {"header": list(o.header), "rows": o.rows} for o in outcomes},
        }
        path = run.HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {len(outcomes)} cells, violations {violations}, unresolved {unresolved} -> {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
