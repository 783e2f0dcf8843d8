"""lowprec benchmark: one workload per invocation, metrics as JSON on stdout.

    python3 perfbench/run.py --workload stability_audit --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout that holds ``src/lowprec``; the program
is used from that source tree. Each invocation spawns worker processes
(worker.py) one after another. With ``--trace 0`` five workers share the
time budget: job statistics pool their jobs, and ``setup_s`` is the median
of their five set-up times. Timing on a shared host differs from process to
process as well as over time, and five processes per run average out the
first. For the second, a fixed reference computation (hostspeed.py) runs
after set-up, before the first job and after every job, and each timing is
divided by the host factor measured around it; the raw wall times are kept
in the detail record. With ``--trace 1`` one worker runs, and its second
half is traced; per-layer times are raw. BLAS is pinned to one thread in
every worker. The last stdout line is the result object; the line before
it, and ``.bench_out/<workload>-seed<n>-trace<t>.json``, hold the sample
counts, the tail percentile, the inputs' sha256 and the machine record.

``--smoke`` runs every workload at toy sizes with tracing off and on, and
checks only the result schema against BENCHMARK.json: every metric present
with its unit, counts whole numbers, no failed job. It asserts no timing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stability_audit", "frontend_profile", "mha_rewrite", "theory_selfcheck")
WORKERS = 5  # worker processes per untraced run
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def read_cache_sizes() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            caches[f"L{(index / 'level').read_text().strip()}"] = (
                (index / "size").read_text().strip())
    return caches


def loadavg() -> str:
    return Path("/proc/loadavg").read_text().strip()


def spawn(workload: str, seed: int, seconds: float, trace: int, size: str,
          tag: str) -> dict:
    """Run one worker process to completion and return its result record."""
    out_dir = ROOT / ".bench_out"
    work = ROOT / ".bench_work" / workload
    out_dir.mkdir(exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    result = out_dir / f"{workload}-seed{seed}-trace{trace}-{tag}.worker.json"
    result.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size, "--work", str(work), "--result", str(result),
           "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(result.read_text())


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). Below eleven samples no
    such percentile exists; the maximum is returned with zero beyond.
    """
    s = sorted(samples)
    if len(s) < 11:
        return s[-1], 100.0, 0
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s), 10


def measure(workload: str, seed: int, seconds: float, trace: int,
            size: str = "full") -> tuple[dict, dict]:
    """(result object, detail record) of one benchmark invocation."""
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "caches": read_cache_sizes(),
           "loadavg_start": loadavg()}
    n = 1 if trace else WORKERS
    runs = [spawn(workload, seed, seconds / n, trace, size, f"w{i}") for i in range(n)]
    env.update(loadavg_end=loadavg(), numpy=runs[0]["numpy"], blas=runs[0]["blas"])

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    for i, r in enumerate(runs[1:], 1):
        if r["reports_sha256"] != runs[0]["reports_sha256"]:
            failed += r["attempted"] - r["failed"]
            failures.append(f"worker {i} reports differ from worker 0's")
    # Timings at nominal host speed: each divided by its own host factor.
    times = [t / f for r in runs for t, f in zip(r["job_s"], r["host_factors"])]
    cycles = [c / f for r in runs for c, f in zip(r["cycle_s"], r["host_factors"])]
    setups = [r["setup_s"] / r["setup_factor"] for r in runs]
    value, pct, beyond = tail(times)
    items = sum(r["passed"] * r["items_per_job"] for r in runs)
    raw_times = [t for r in runs for t in r["job_s"]]
    raw = {"setup_s": statistics.median(r["setup_s"] for r in runs),
           "items_per_s": items / sum(c for r in runs for c in r["cycle_s"]),
           "job_p50_s": statistics.median(raw_times),
           "job_tail_s": tail(raw_times)[0]}
    if trace:
        metrics = runs[0]["layers"]
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "items_per_s": items / sum(cycles),
            "job_p50_s": statistics.median(times),
            "job_tail_s": value,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "workers": n, "jobs": len(times), "items_per_job": runs[0]["items_per_job"],
        "job_tail_percentile": pct, "job_tail_beyond": beyond,
        "setup_samples": setups,
        "host_factor_median": statistics.median(
            f for r in runs for f in [r["setup_factor"], *r["host_factors"]]),
        "raw": raw, "fail_ratio": failed / attempted,
        "failures": failures[:10], "inputs": runs[0]["inputs"], "env": env,
        "metrics": metrics,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics(trace: int) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}


def select(result: dict, trace: int) -> dict:
    """The result with exactly the metrics BENCHMARK.json declares."""
    units = declared_metrics(trace)
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return dict(result, metrics={n: {"value": result["metrics"][n], "unit": u}
                                 for n, u in units.items()})


def smoke() -> int:
    """Every workload at toy size, untraced and traced; schema checks only."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = select(measure(workload, 0, 0.0, trace, size="toy")[0], trace)
            where = f"{workload} trace={trace}"
            if not result["correct"] or result["failed"] or result["attempted"] < 2:
                problems.append(f"{where}: {result['failed']} of "
                                f"{result['attempted']} jobs failed")
            for name, m in result["metrics"].items():
                v = m["value"]
                if m["unit"] == "count" and type(v) is not int:
                    problems.append(f"{where}: count {name} is {v!r}")
                elif type(v) not in (int, float) or v != v:
                    problems.append(f"{where}: {name} is {v!r}")
            print(f"{where}: {len(result['metrics'])} metrics", flush=True)
    for p in problems:
        print(p, file=sys.stderr)
    print("smoke ok" if not problems else f"smoke FAILED ({len(problems)} problems)")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measured time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running worker, instead of dying and leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if not (ROOT / "src" / "lowprec" / "__init__.py").is_file():
            raise BenchError(f"no lowprec source tree under {ROOT / 'src'}")
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required unless --smoke is given")
        seconds = spec()["run_seconds"] if args.seconds is None else args.seconds
        result, detail = measure(args.workload, args.seed, seconds, args.trace)
        result = select(result, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    path = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({k: v for k, v in detail.items() if k != "metrics"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
