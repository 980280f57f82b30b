"""Check that two traced runs did exactly the same work, op by op.

    python3 perfbench/compare_counters.py A-counters.json B-counters.json

The files are the *-counters.json that `run.py --trace 1` writes under
perfbench/out/.  Work counts (LM runs, model evaluations, forward-map
calls, draws, bytes) depend only on the inputs, so two runs of one
program on one workload and seed must match exactly; any difference is
printed and the exit code is 1.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def differences(a: dict, b: dict) -> list[str]:
    out = []
    for key in ("workload", "seed", "ops"):
        if a["meta"][key] != b["meta"][key]:
            out.append(f"meta {key}: {a['meta'][key]} != {b['meta'][key]}")
    for op in sorted(set(a["ops"]) | set(b["ops"]), key=int):
        row_a, row_b = a["ops"].get(op, {}), b["ops"].get(op, {})
        for name in sorted(set(row_a) | set(row_b)):
            if row_a.get(name) != row_b.get(name):
                out.append(f"op {op} {name}: {row_a.get(name)} != "
                           f"{row_b.get(name)}")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    diff = differences(a, b)
    for line in diff:
        print(line)
    counters = sum(len(row) for row in a["ops"].values())
    print(f"{a['meta']['workload']} seed {a['meta']['seed']}: "
          f"{len(a['ops'])} ops, {counters} counters, "
          f"{len(diff)} differences")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
