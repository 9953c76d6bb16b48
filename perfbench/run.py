"""Benchmark of the billiardknots package: one command, every metric.

    python3 perfbench/run.py --workload cold-bracket --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports the package from its ``src``.
Each measurement runs in its own fresh worker process (``worker.py``), one
at a time, in a closed loop with one client.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` is the median of
``SETUP_RUNS`` fresh processes, half before and half after the loop, that
import the package and set the workload up, each scaled by its own
calibration; throughput and latencies come
from one untraced loop process, with each op timed at its table's time in
the run (see ``table_times``).  Every time is CPU time capped by wall time
(``worker.since``) and brought to a reference host speed with the worker's
calibration loop.
``--trace 1`` runs an untraced and a traced loop process, each for half
of ``--seconds``, and prints the per-layer metrics of the traced one, plus
``trace.overhead_pct``, the traced run's throughput loss.

The last stdout line is the result object; the line before it, starting
with ``# report``, records the environment, op counts, caches cleared and
failures.  Exit status: 0 when every op was correct, 1 when any op failed
(the result is still printed), 2 when nothing could be measured.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cold-bracket", "warm-bracket", "oracle-sweep")
SETUP_RUNS = 10
#: Best time (ms) of the worker's calibration loop on an uncontended 2-vCPU
#: Xeon VM; times are reported at that host speed (see ``table_times``).
CALIBRATION_MS = 4.5
MIN_OPS = 100
#: The whole command must end within this many seconds.
DEADLINE_S = 170
#: BLAS/OpenMP pools pinned to one thread in every worker.
PINNED_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    pass


def worker_config(args, mode: str, trace: bool) -> dict:
    return {
        "mode": mode,
        "workload": args.workload,
        "seed": args.seed,
        # The two loop processes of a traced run share the time.
        "seconds": args.seconds / 2 if args.trace else args.seconds,
        "min_ops": MIN_OPS,
        "ops": args.ops,
        "trace": trace,
        "corrupt_op": args.corrupt_op,
        "spans_out": str(ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.json"),
    }


def run_worker(cfg: dict, deadline: float) -> dict:
    env = dict(os.environ, **PINNED_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(cfg)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cfg['mode']} worker exceeded the {DEADLINE_S}s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{cfg['mode']} worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def best_per_table(loop: dict) -> dict[str, float]:
    """Each table's fastest op time (ms) in the run, as measured."""
    best: dict[str, float] = {}
    for table, lat in zip(loop["op_tables"], loop["latencies"]):
        best[table] = min(best.get(table, lat), lat)
    return {t: 1e3 * v for t, v in sorted(best.items())}


def table_times(loop: dict) -> dict[str, float]:
    """Each table's op time (ms) at the reference host speed.

    On a shared host, other tenants' load slows the process by up to ~2x,
    for a fraction of a second or for minutes.  The worker times its
    calibration loop every ``worker.CALIBRATE_EVERY_S`` of op time, and the
    same load slows it too.  So each op's time is taken relative to the
    calibration run just before it, and a table's time is the median of
    those ratios over its ops, times ``CALIBRATION_MS``.  A change to the
    package moves the op times and leaves the calibration loop alone.
    """
    ratios: dict[str, list[float]] = defaultdict(list)
    marks, cal = loop["calibrated_before"], loop["calibration"]
    for i, (table, lat) in enumerate(zip(loop["op_tables"], loop["latencies"])):
        ratios[table].append(lat / cal[bisect.bisect_right(marks, i) - 1])
    return {t: CALIBRATION_MS * statistics.median(r) for t, r in sorted(ratios.items())}


def figures(lat_ms: list[float]) -> dict[str, float]:
    return {
        "ops_per_s": 1e3 * len(lat_ms) / sum(lat_ms),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
    }


def scaled_setup(res: dict) -> float:
    """A set-up process's ``setup_s`` at the reference host speed: the best
    time of the calibration loops it ran right after its set-up measures
    how fast the host was."""
    return CALIBRATION_MS / (1e3 * min(res["calibration"])) * res["setup_s"]


def timing(loop: dict) -> dict[str, float]:
    """Throughput and latency percentiles over the run's ops, each op timed
    at its table's time (``table_times``); rounds keep the tables equally
    represented."""
    times = table_times(loop)
    return figures([times[t] for t in loop["op_tables"]])


def end_to_end(loop: dict, setup_samples: list[float]) -> dict:
    units = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms"}
    out = {name: {"value": v, "unit": units[name]} for name, v in timing(loop).items()}
    out["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
    out["peak_rss_mb"] = {"value": loop["peak_rss_mb"], "unit": "MB"}
    out["success_rate"] = {"value": 1 - loop["failed"] / loop["attempted"], "unit": "ratio"}
    return out


def per_layer(base: dict, traced: dict) -> dict:
    out = dict(traced["trace"]["metrics"])
    base_rate, traced_rate = timing(base)["ops_per_s"], timing(traced)["ops_per_s"]
    overhead = 100 * (base_rate - traced_rate) / base_rate
    out["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="summed op wall time the loop processes measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=None,
                   help="run exactly this many ops instead (smoke test)")
    p.add_argument("--corrupt-op", type=int, default=None,
                   help="corrupt this op's result before its check (smoke test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            base = run_worker(worker_config(args, "loop", False), deadline)
            traced = run_worker(worker_config(args, "loop", True), deadline)
            loops = [base, traced]
            metrics = per_layer(base, traced)
            setup_samples = [base["setup_s"]]
        else:
            # Half the set-up processes run before the loop and half after
            # it, so that their median spans the run's host load.
            setup_cfg = worker_config(args, "setup", False)
            setup_samples = [scaled_setup(run_worker(setup_cfg, deadline))
                             for _ in range(SETUP_RUNS // 2)]
            loops = [run_worker(worker_config(args, "loop", False), deadline)]
            setup_samples += [scaled_setup(run_worker(setup_cfg, deadline))
                              for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
            metrics = end_to_end(loops[0], setup_samples)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted = sum(loop["attempted"] for loop in loops)
    failed = sum(loop["failed"] for loop in loops)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": loops[0]["python"],
        "numpy": loops[0]["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "pinned_env": PINNED_ENV,
        "ops": [loop["attempted"] for loop in loops],
        "table_ms": table_times(loops[-1]),
        "best_per_table_ms": best_per_table(loops[-1]),
        "raw_timing": figures([1e3 * x for x in loops[-1]["latencies"]]),
        "wall_timing": figures([1e3 * x for x in loops[-1]["wall"]]),
        "calibration_ms": [1e3 * min(loops[-1]["calibration"]),
                           1e3 * statistics.median(loops[-1]["calibration"])],
        "error_rate": failed / attempted,
        "failures": [f for loop in loops for f in loop["failures"]][:5],
        "cleared_caches": loops[-1]["cleared_caches"],
        "setup_samples_s": setup_samples,
        "import_s": loops[-1]["import_s"],
    }
    if args.trace:
        report["op_self_share"] = traced["trace"]["op_self_share"]
        report["calls"] = traced["trace"]["calls"]
        report["untraced_ops_per_s"] = timing(base)["ops_per_s"]
    print("# report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
