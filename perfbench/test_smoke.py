#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at toy size, untraced and
traced. Asserts that every metric BENCHMARK.json names prints with its unit
and that every output check passes. Run from the repository root:

    python3 perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    failures = []
    for w in spec["workloads"]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{w['name']} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", w["name"],
                 "--seed", "3", "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{label}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: output checks failed")
            # Printed lines read "<workload> metric <name> <value> <unit>".
            printed = {(p[2], p[4]) for p in map(str.split, lines[:-1])
                       if len(p) == 5 and p[1] == "metric"}
            for m in metrics:
                got = result["metrics"].get(m["name"])
                if (got is None or got["unit"] != m["unit"] or
                        (m["name"], m["unit"]) not in printed):
                    failures.append(f"{label}: metric {m['name']} [{m['unit']}] missing")
            print(f"ok {label}: {len(metrics)} metrics, {result['attempted']} operations")
    for f in failures:
        print("FAIL", f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
