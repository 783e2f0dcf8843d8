"""One benchmark process: set a workload up, then run its jobs in a closed loop.

Started by run.py, never by hand. One client runs one job at a time; the
next job starts when the previous one returns, until the worker's share of
the run's time is spent. Every job passes the workload's correctness gate or counts as
failed. The process writes its measurements as JSON to ``--result``.

The record includes the time from the parent's spawn stamp to the first
job; a digest of the first job's reports, so that the parent can check
that every worker of a run produced the same bytes; and the host factors
of set-up and of every job, from the hostspeed reference.
With ``--trace 1`` half the budget runs untraced and half runs under the
span tracer, which gives the per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import hostspeed
import lowprec
from spans import Tracer, median_breakdown
from workloads import SIZES, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SETUP_REFERENCES = 3  # host-speed samples right after set-up, for setup_s


def blas_record() -> dict:
    """BLAS library name and the thread count it actually runs with."""
    name = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
    return {"name": name, "threads": threads}


def input_record(path: Path) -> dict:
    data = path.read_bytes()
    return {"file": path.name, "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest()}


class Runner:
    """Runs jobs of one workload and applies the per-job correctness gate."""

    def __init__(self, workload):
        self.wl = workload
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def job(self, run=None) -> tuple[float, bool]:
        """Run, time and check one job: its wall time and whether it passed."""
        for stale in self.wl.out.iterdir():
            stale.unlink()
        self.attempted += 1
        errors = []
        t0 = time.perf_counter()
        try:
            codes, extra = (run or self.wl.run)()
        except Exception:  # a crash fails this job; the loop keeps going
            codes, extra = [], {}
            errors.append(traceback.format_exc(limit=3))
        wall = time.perf_counter() - t0
        errors += [f"exit code {c}" for c in codes if c != 0]
        reports = {p.name: p.read_bytes() for p in sorted(self.wl.out.iterdir())}
        reports.update(extra)
        if self.reference is None:
            self.reference = reports
        elif reports != self.reference:
            changed = sorted(k for k in reports.keys() | self.reference.keys()
                             if reports.get(k) != self.reference.get(k))
            errors.append(f"reports differ from the first job's: {changed}")
        if not errors:
            try:
                errors += self.wl.check(reports)
            except (KeyError, ValueError, TypeError) as exc:
                errors.append(f"report unreadable: {exc!r}")
        if errors:
            self.failed += 1
            self.failures += errors[:3]
        return wall, not errors

    def loop(self, seconds: float, run=None) -> dict:
        """Closed loop of at least two jobs that ends at the job boundary
        nearest to ``seconds``.

        Failed jobs are timed too; only passed jobs count towards items.
        ``cycle_s`` is a job plus its gate. The host-speed reference runs
        before the first job and after every job, and each job gets the host
        factor of the two references around it.
        """
        times, cycles, refs, passed = [], [], [hostspeed.reference()], 0
        start = time.perf_counter()
        while len(times) < 2 or time.perf_counter() - start + times[-1] / 2 < seconds:
            t0 = time.perf_counter()
            wall, ok = self.job(run)
            cycles.append(time.perf_counter() - t0)
            times.append(wall)
            passed += ok
            refs.append(hostspeed.reference())
        return {"job_s": times, "cycle_s": cycles, "passed": passed,
                "reference_s": refs, "host_factors": hostspeed.bracket_factors(refs)}


def nominal_median(loop: dict) -> float:
    """Median job time of a loop, at nominal host speed."""
    return statistics.median(t / f for t, f in zip(loop["job_s"], loop["host_factors"]))


def traced_phase(runner: Runner, tracer: Tracer, seconds: float) -> tuple[dict, float]:
    """Jobs under the tracer; per-layer medians over the traced jobs, and
    the traced jobs' median time at nominal host speed."""
    n = 0

    def run():
        nonlocal n
        n += 1
        return tracer.run_job(n, runner.wl.run)

    tracer.install()
    try:
        traced = runner.loop(seconds, run)
    finally:
        tracer.uninstall()
    per_job = tracer.breakdowns()
    setup = per_job.pop("setup")
    jobs = list(per_job.values())
    out = median_breakdown(jobs)
    out["streams.write_bytes"] = setup["streams.write_bytes"]
    out["streams.write_s"] = setup["streams.write_s"]
    out["trace.jobs"] = len(jobs)
    out["trace.unattributed_s"] = max(abs(b["trace.unattributed_s"]) for b in jobs)
    return out, nominal_median(traced)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before spawning")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not Path(lowprec.__file__).resolve().is_relative_to(src):
        print(f"lowprec imported from {lowprec.__file__}, not from {src}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](args.work, args.seed, SIZES[args.size])
    tracer = Tracer()
    if args.trace:
        tracer.install()
        try:
            tracer.run_job("setup", wl.setup)
        finally:
            tracer.uninstall()
    else:
        wl.setup()
    result = {"setup_s": time.monotonic() - args.spawned}
    result["setup_factor"] = hostspeed.slowdown(
        [hostspeed.reference() for _ in range(SETUP_REFERENCES)])
    runner = Runner(wl)
    budget = args.seconds / 2 if args.trace else args.seconds
    result.update(runner.loop(budget), items_per_job=wl.items,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if args.trace:
        layers, traced_median = traced_phase(runner, tracer, budget)
        layers["trace.overhead_ratio"] = traced_median / nominal_median(result)
        result["layers"] = layers
        tracer.write_spans(args.result.with_suffix(".spans.jsonl"))
    reference = hashlib.sha256()
    for name, data in sorted(runner.reference.items()):
        reference.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    result.update(attempted=runner.attempted, failed=runner.failed,
                  failures=runner.failures[:10], reports_sha256=reference.hexdigest(),
                  inputs=[input_record(p) for p in wl.inputs],
                  numpy=np.__version__, blas=blas_record())
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
