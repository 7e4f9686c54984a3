"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload on a few requests, untraced and traced, and asserts
that each metric BENCHMARK.json names is printed with its unit, that the
summary names all eight end-to-end figures, and that one planted wrong
answer per workload is counted as a failed request.  Exits 1 on the first
failed assertion.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUESTS = 4
SUMMARY_NAMES = (
    "setup_s", "units_per_s", "pairs_per_s", "tuples_per_s",
    "latency_p50_ms", "latency_p90_ms", "failed_frac", "peak_rss_mb",
)


def run(workload: str, *extra: str) -> tuple[int, list[str], dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--requests", str(REQUESTS), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload} {extra}: no output; stderr: {proc.stderr}")
    return proc.returncode, lines, json.loads(lines[-1])


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def check_metrics(result: dict, declared: list[dict], what: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == want, f"{what}: metrics {got} differ from BENCHMARK.json {want}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)), f"{what}: {name} is not a number")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (w["name"] for w in bench["workloads"]):
        code, lines, result = run(w, "--trace", "0")
        expect(code == 0 and result["correct"] and result["failed"] == 0, f"{w}: clean run failed")
        expect(result["attempted"] == REQUESTS, f"{w}: attempted {result['attempted']}")
        check_metrics(result, bench["end_to_end"], f"{w} --trace 0")
        summary = {line.split()[0]: line.split() for line in lines[1:] if line.startswith("  ")}
        for name in SUMMARY_NAMES:
            expect(name in summary, f"{w}: summary lacks {name}")
            expect(len(summary[name]) >= 3, f"{w}: summary line for {name} has no unit")

        code, _, result = run(w, "--trace", "1")
        expect(code == 0 and result["correct"], f"{w}: traced run failed")
        check_metrics(result, bench["per_layer"], f"{w} --trace 1")

        code, lines, result = run(w, "--trace", "0", "--plant")
        expect(code == 1 and not result["correct"], f"{w}: planted answer not rejected")
        expect(result["failed"] == 1, f"{w}: planted run counted {result['failed']} failures")
        frac = next(line.split()[1] for line in lines if line.strip().startswith("failed_frac"))
        expect(float(frac) == 1 / REQUESTS, f"{w}: failed_frac {frac}, want {1 / REQUESTS}")
        print(f"ok {w}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"FAIL {exc}")
        sys.exit(1)
