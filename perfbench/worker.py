"""One fresh benchmark process: import the package from the checkout's
``src``, set the workload up and, in ``loop`` mode, run it.

Started by ``run.py`` with one JSON argument (see ``run.py:worker_config``);
prints one JSON object on its last stdout line.  Modes:

* ``setup`` - import + workload set-up only, timed from before the import,
  then ``SETUP_CALIBRATIONS`` calibration loops.
* ``loop``  - set-up, then the closed loop: ops run back to back with one
  client until the summed op wall time reaches ``seconds`` and at least
  ``min_ops`` ops ran, stopping at a round boundary; each op's output is
  checked right after it, and a calibration loop is timed at the start of
  a round once every ``CALIBRATE_EVERY_S`` of op time, both outside the
  timed region.

Times are taken with ``stamp``/``since``: CPU time of the process, capped
by wall time.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

from tracing import NullTracer, Tracer, summarise

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = "billiardknots"
#: Iterations of the calibration loop; ~4.5 ms on a 2-vCPU Xeon VM.
CALIBRATION_STEPS = 5_000
#: Op wall time (s) between two calibrations, which run at round starts.
CALIBRATE_EVERY_S = 0.1
#: Calibrations right after a ``setup`` process's set-up.
SETUP_CALIBRATIONS = 3


def import_package():
    pkg_dir = SRC / PACKAGE
    if not (pkg_dir / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {pkg_dir}")
    sys.path.insert(0, str(SRC))
    import billiardknots

    found = Path(billiardknots.__file__).resolve().parent
    if found != pkg_dir.resolve():
        raise SystemExit(f"perfbench: imported {PACKAGE} from {found}, not {pkg_dir}")


def memo_caches() -> dict:
    """Every module-level callable with ``cache_clear`` in the loaded package
    modules, by qualified name."""
    found = {}
    for modname, mod in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for obj in vars(mod).values():
            if callable(obj) and hasattr(obj, "cache_clear"):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def stamp() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def since(start: tuple[float, float]) -> float:
    """Seconds since ``start = stamp()``: the process's CPU time, capped by
    its wall time.

    A single-threaded op's wall time also counts the time a shared host
    spent running other tenants instead of the op; its CPU time does not.
    The cap keeps work spread over several threads from counting more than
    the wall time it took.
    """
    wall, cpu = stamp()
    return min(wall - start[0], cpu - start[1])


def calibrate() -> float:
    """Seconds one fixed pure-Python loop takes: the host's current speed.

    The loop is the benchmark's own code and never changes with the
    package, so ``run.py`` can scale op times by how fast the host ran it.
    Like the package's polynomial arithmetic, it builds and sorts a dict
    keyed by tuples; contention from other tenants slowed it by about as
    much as it slowed the ops, where a plain integer loop slowed less.
    """
    t0 = stamp()
    table: dict[tuple, int] = {}
    for i in range(CALIBRATION_STEPS):
        table[i % 97, i % 89, i] = table.get((i % 97, i % 89, i - 1), 0) + 1
    sorted(table.items())
    return since(t0)


def run_loop(cfg: dict, wl, tracer) -> dict:
    latencies: list[float] = []
    wall: list[float] = []
    calibration: list[float] = []
    calibrated_before: list[int] = []
    failures: list[str] = []
    op_tables: list[str] = []
    cleared: set[str] = set()
    attempted = 0
    calibrated_at = -CALIBRATE_EVERY_S
    done = False
    while not done:
        if sum(wall) - calibrated_at >= CALIBRATE_EVERY_S:
            calibration.append(calibrate())
            calibrated_before.append(attempted)
            calibrated_at = sum(wall)
        for inp in wl.round():
            if wl.clears_caches:
                # From scratch, as a fresh process: no memo, no garbage.
                for name, fn in memo_caches().items():
                    fn.cache_clear()
                    cleared.add(name)
                gc.collect()
            err = None
            t0 = stamp()
            try:
                with tracer.phase("op"):
                    res = wl.op(inp)
            except Exception as exc:  # an op that raises is a failed op
                err = f"{type(exc).__name__}: {exc}"
            latencies.append(since(t0))
            wall.append(time.perf_counter() - t0[0])
            if err is None:
                if attempted == cfg["corrupt_op"]:
                    res = wl.corrupt(res)
                try:
                    with tracer.phase("check"):
                        err = wl.check(res)
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
                # Freed here, not when the next op's result replaces it.
                res = None
            op_tables.append(wl.label(inp[0]))
            attempted += 1
            if err is not None:
                failures.append(err)
            if attempted == cfg["ops"]:
                done = True
                break
        done = done or (sum(wall) >= cfg["seconds"] and attempted >= cfg["min_ops"])
    return {
        "latencies": latencies,
        "wall": wall,
        "calibration": calibration,
        "calibrated_before": calibrated_before,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "op_tables": op_tables,
        "cleared_caches": sorted(cleared),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main() -> int:
    cfg = json.loads(sys.argv[1])
    tracer = Tracer() if cfg["trace"] else NullTracer()

    t0 = stamp()
    import_package()
    import_s = since(t0)
    import workloads

    wl = workloads.WORKLOADS[cfg["workload"]](cfg["seed"], tracer)
    with tracer.phase("setup"):
        wl.setup()
    setup_s = since(t0)

    numpy = sys.modules.get("numpy")
    out = {
        "setup_s": setup_s,
        "import_s": import_s,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__ if numpy else None,
    }
    if cfg["mode"] == "setup":
        out["calibration"] = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    if cfg["mode"] == "loop":
        out.update(run_loop(cfg, wl, tracer))
        if cfg["trace"]:
            out["trace"] = summarise(tracer)
            spans_out = Path(cfg["spans_out"])
            spans_out.parent.mkdir(parents=True, exist_ok=True)
            spans_out.write_text(json.dumps(
                {"spans": tracer.spans, "counts": tracer.counts}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
