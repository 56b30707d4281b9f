"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json at tiny size under two seeds and
checks that no op fails, that every metric BENCHMARK.json names is
reported with its unit (end-to-end untraced, per-layer traced), and that
traced call counts repeat exactly across two runs of the same seed.
Exits non-zero on the first problem.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result: dict, expected: list, label: str) -> None:
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"{label}: {result['failed']} of {result['attempted']} ops failed")
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise SystemExit(f"{label}: metrics {sorted(set(got) ^ set(want))} differ "
                         "from BENCHMARK.json, or their units do")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in (1, 2):
            check(run(workload, seed, 0), spec["end_to_end"], f"{workload} seed {seed}")
        first, second = run(workload, 1, 1), run(workload, 1, 1)
        for res in (first, second):
            check(res, spec["per_layer"], f"{workload} traced")
        calls = [{k: m["value"] for k, m in res["metrics"].items() if k.endswith(".calls")}
                 for res in (first, second)]
        if calls[0] != calls[1]:
            diff = sorted(k for k in calls[0] if calls[0][k] != calls[1][k])
            raise SystemExit(f"{workload}: traced call counts differ between runs: {diff}")
        print(f"ok {workload}: untraced seeds 1, 2; traced calls repeat "
              f"({sum(calls[0].values())} calls)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
