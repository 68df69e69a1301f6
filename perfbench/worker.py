"""One workload in one process: set-up, a warm-up job, then timed jobs.

Started by ``run.py``; not meant to be run by hand.  It prints ``READY``
once the workload's inputs are built, and, unless ``--setup-only`` is
given, one JSON line with the raw timings, counts and checks at the end.

Timing: after every job the reference kernel runs until its total time is
at least ``REF_SHARE`` of the total job time, so jobs and reference runs
sample the host's speed over the same stretch of time.  ``solve_s`` is the
mean job time scaled by the kernel's nominal over its mean measured time.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import refkernel
import workloads
from checks import CheckFailed

REF_SHARE = 0.5


def _timed_jobs(wl, seconds: float, tracer, t_zero: float) -> dict:
    """Warm-up job, then jobs until ``seconds`` have passed.

    With a tracer, jobs alternate untraced and traced, starting untraced.
    Returns the raw record: job and reference seconds, the timeline (kind,
    start from ``t_zero``, seconds), per-traced-job layer summaries, the
    operation counts and the peak resident memory.
    """
    result = wl.job()
    # peak memory of set-up and one job, read before any check or reference
    # run can raise it
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, failed = wl.check(result)
    timeline = []

    def reference():
        t = time.perf_counter()
        parts = []
        dt = refkernel.run_reference(parts)
        timeline.append(["ref", t - t_zero, dt, *parts])
        return dt

    plain, traced, refs, layers = [], [], [reference()], []
    end = time.perf_counter() + seconds
    while True:
        use_trace = tracer is not None and len(plain) > len(traced)
        if use_trace:
            tracer.install()
            first = tracer.mark()
        t0 = time.perf_counter()
        result = wl.job()
        elapsed = time.perf_counter() - t0
        timeline.append(["traced_job" if use_trace else "job", t0 - t_zero, elapsed])
        if use_trace:
            tracer.uninstall()
            self_s, calls = tracer.summarize(first)
            layers.append({"self_s": self_s, "calls": calls, "counters": tracer.take_counters()})
            traced.append(elapsed)
        else:
            plain.append(elapsed)
        a, f = wl.check(result)
        attempted, failed = attempted + a, failed + f
        job_total = sum(plain) + sum(traced)
        while True:
            refs.append(reference())
            if sum(refs) >= REF_SHARE * job_total:
                break
        if time.perf_counter() >= end and (tracer is None or traced):
            return {"correct": True, "attempted": attempted, "failed": failed, "job_s": plain,
                    "traced_job_s": traced, "ref_s": refs, "timeline": timeline, "layers": layers,
                    "peak_rss_kb": peak_rss_kb}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--trace-file", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    args.work.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.work)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    t_zero = time.perf_counter()
    try:
        record = _timed_jobs(wl, args.seconds, tracer, t_zero)
    except Exception as exc:  # any failure makes the run incorrect; report it and stop
        if isinstance(exc, (CheckFailed, workloads.JobFailed)):
            print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        else:
            traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0}), flush=True)
        return 1
    if tracer is not None:
        args.trace_file.write_text(json.dumps(tracer.dump(t_zero)))
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
