"""Record bench/reference.json: the invariants of every decided verdict and
witness at seed 0, which later runs of bench/run.py compare against.

    python3 bench/record_reference.py

Run it only at a commit whose outputs are known to be right; the table pins
them, so a later change that alters a decided verdict fails the benchmark.
"""

import json
import sys

from run import (REFERENCE, WORKLOADS, _NoTrace, reference_table, setup,
                 timed_pass)


def main() -> int:
    tables = {}
    for workload in WORKLOADS:
        cb, items, _ = setup(workload, 0)
        cfg = cb.Config(seed=0)
        run = timed_pass(cb, workload, items, cfg, _NoTrace())
        if run.lost:
            print("\n".join(run.lost), file=sys.stderr)
            return 1
        tables[workload] = reference_table(run)
        print(f"{workload}: {len(tables[workload])} groups, {run.wall:.2f} s")
    REFERENCE.write_text(_dump(tables))
    return 0


def _dump(tables: dict) -> str:
    """One line per group, so that a change shows as a one-line diff."""
    blocks = []
    for workload, table in sorted(tables.items()):
        rows = ",\n".join(
            f" {json.dumps(label)}: "
            f"{json.dumps(entry, sort_keys=True, separators=(',', ':'))}"
            for label, entry in sorted(table.items()))
        blocks.append(f"{json.dumps(workload)}: {{\n{rows}\n}}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
