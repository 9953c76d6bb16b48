"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs each workload of ``BENCHMARK.json`` for three ops on a fixed seed and
checks that:

* traced and untraced runs exit 0 and emit exactly the declared metrics,
  each with its declared unit;
* a run whose second op result is deliberately corrupted reports that op as
  failed and exits 1;
* in a directory holding only ``BENCHMARK.json`` and the benchmark (no
  package source) the command fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7
OPS = "3"


def run(cwd: Path, workload: str, trace: int, *extra: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--ops", OPS, "--trace", str(trace), *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"smoke test FAILED: {what}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, want in declared.items():
            code, out = run(ROOT, workload, trace)
            check(code == 0, f"{workload} --trace {trace} exited {code}")
            res = result(out)
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  f"{workload}: result keys {sorted(res)}")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{workload} --trace {trace}: {res['failed']} of {res['attempted']} ops failed")
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            check(got == want, f"{workload} --trace {trace}: metrics {got} != {want}")

        code, out = run(ROOT, workload, 0, "--corrupt-op", "1")
        res = result(out)
        check(code == 1, f"{workload}: corrupted run exited {code}, want 1")
        check(not res["correct"] and res["failed"] == 1,
              f"{workload}: corrupted op not counted as failed ({res['failed']})")
        check(res["metrics"]["success_rate"]["value"] < 1,
              f"{workload}: success_rate ignores the corrupted op")
        print(f"ok {workload}")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, out = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    check(code != 0 and not out.strip(), f"run without package source exited {code}")
    print("ok no package source")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
