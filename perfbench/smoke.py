#!/usr/bin/env python3
"""Smoke-sized run of every benchmark workload, traced and untraced.

Runs the command from BENCHMARK.json with `--smoke` (small inputs; the
census stays whole, since it is its own correctness gate) and asserts
that each run exits 0, prints the run header and the gate line, and
ends with a result line that carries exactly the metrics BENCHMARK.json
names, each with its unit.

    python3 perfbench/smoke.py          # from the repository root
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check(spec, workload, trace):
    args = ["--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--smoke"]
    run = subprocess.run(spec["command"] + args, cwd=ROOT,
                         capture_output=True, text=True, timeout=900)
    lines = run.stdout.strip().splitlines()
    where = f"{workload} --trace {trace}"
    assert run.returncode == 0, f"{where}: exit {run.returncode}\n{run.stderr}"
    header = json.loads(lines[0])["header"]
    assert header["workload"] == workload and header["tracing"] == bool(trace), where
    gate = [line for line in lines if line.startswith("gate: ")]
    assert gate and not gate[0].startswith("gate: none"), f"{where}: no gate ran"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    assert set(got) == set(units), f"{where}: metrics differ: {set(got) ^ set(units)}"
    for name, metric in got.items():
        assert metric["unit"] == units[name], f"{where}: {name} unit {metric['unit']}"
        assert isinstance(metric["value"], (int, float)), f"{where}: {name}"
    if trace:
        assert got["trace.dropped"]["value"] == 0, f"{where}: the trace ring dropped events"
    print(f"ok: {where}: {len(got)} metrics, {result['attempted']} checked, {gate[0]}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check(spec, workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
