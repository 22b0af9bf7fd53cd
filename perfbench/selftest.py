"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload at the smallest size the scene generator accepts, once
untraced and once traced, and checks that each run emits exactly the
metrics BENCHMARK.json names, each with its unit, and that every call
passes. Then it truncates a raw stream, which the CLI rejects with exit 4,
and checks that the run still completes with those calls counted as
failed. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run
from workloads import WORKLOADS, Workload


def tiny(w: Workload) -> Workload:
    """The same workload at the smallest size the scene generator accepts."""
    return replace(w, size_px=16, duration_s=12.0, scenes_per_tone=1)


def expected_units(trace: bool) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def truncate_first_stream(scenes) -> None:
    path = scenes[0].frames
    path.write_bytes(path.read_bytes()[:-1])


def main() -> int:
    problems = []
    for w in WORKLOADS.values():
        for trace in (False, True):
            result = run.run(tiny(w), seed=0, seconds=0, trace=trace)["result"]
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected_units(trace):
                problems.append(f"{w.name} trace={trace}: metrics {units} differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{w.name} trace={trace}: {result['failed']} failed calls")

    out = run.run(tiny(WORKLOADS["long_grid"]), seed=0, seconds=0, trace=False, prepare=truncate_first_stream)
    result, failed_calls = out["result"], out["detail"]["failed_calls"]
    if set(result["metrics"]) != set(expected_units(False)):
        problems.append("truncated stream: a metric is missing")
    if result["correct"] or result["failed"] != result["attempted"] or result["metrics"]["ok_frac"]["value"] != 0.0:
        problems.append(f"truncated stream: not counted as failed: {result}")
    if not failed_calls or any(rc != 4 for c in failed_calls for rc in c["rc"]):
        problems.append(f"truncated stream: expected exit 4, got {failed_calls}")

    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
