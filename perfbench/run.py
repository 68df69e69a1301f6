"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an itkit checkout; itkit is imported from ./src.
Prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Raw seconds, and with ``--trace 1``
every span, go to ``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one thread per library, set before numpy loads here or in any child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import refkernel  # noqa: E402
from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_STARTS = 3
IMPORT_STARTS = 3
REFS_PER_START = 3
DEADLINE_S = 170.0

# (metric, span or counter it is read from, unit); self_s and calls come from spans
LAYER_METRICS = [(f"{layer}.self_s", layer, "s") for layer in LAYERS] + [
    ("core.to_momentum.self_s", "core.to_momentum", "s"),
    ("core.to_position.self_s", "core.to_position", "s"),
    ("core.sample_gaussian.self_s", "core.sample_gaussian", "s"),
    ("imaging.apply_it_free.self_s", "imaging.apply_it_free", "s"),
    ("propagate.interpolate_field.self_s", "propagate.interpolate_field", "s"),
    ("propagate.interpolate_field.calls", "propagate.interpolate_field", "count"),
    ("propagate.evolve_free_exact.self_s", "propagate.evolve_free_exact", "s"),
    ("propagate.evolve_split_operator.self_s", "propagate.evolve_split_operator", "s"),
    ("propagate.split_fft_points", "propagate.split_fft_points", "count"),
    ("propagate.it_field_uniform.self_s", "propagate.it_field_uniform", "s"),
    ("classical.stationary_momentum.calls", "classical.stationary_momentum", "count"),
    ("classical.action_S_tilde_uniform.calls", "classical.action_S_tilde_uniform", "count"),
    ("coincidence.invert_delays_pair.calls", "coincidence.invert_delays_pair", "count"),
    ("coincidence.invert_delays_numeric.self_s", "coincidence.invert_delays_numeric", "s"),
    ("coincidence.coincidence_curve.self_s", "coincidence.coincidence_curve", "s"),
    ("coincidence.synthesize_dataset.self_s", "coincidence.synthesize_dataset", "s"),
    ("coincidence.fit_pair_model.self_s", "coincidence.fit_pair_model", "s"),
    ("scatter.born_amplitude.self_s", "scatter.born_amplitude", "s"),
    ("scatter.green_hyper_hankel.self_s", "scatter.green_hyper_hankel", "s"),
    ("bessel.hankel_h1.self_s", "bessel.hankel_h1", "s"),
    ("bessel.hankel_h1.calls", "bessel.hankel_h1", "count"),
    ("cli.write.self_s", "cli.write", "s"),
    ("cli.bytes_written", "cli.bytes_written", "bytes"),
]


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class Clock:
    """Reference-kernel runs interleaved with the launcher's own measurements."""

    def __init__(self):
        self.refs: list[float] = []

    def ref(self, n: int) -> None:
        self.refs += [refkernel.run_reference() for _ in range(n)]

    def factor(self) -> float:
        return refkernel.NOMINAL_S / statistics.fmean(self.refs)


def _remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError("out of time")
    return left


def _reap(proc: subprocess.Popen) -> None:
    """Kill ``proc`` if it still runs, and wait until it has ended."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def time_setup(argv: list[str], env, deadline: float) -> float:
    """Seconds from starting a fresh worker until it reports READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], _remaining(deadline))
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError("set-up did not finish")
        proc.wait(timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError("set-up timed out") from None
    finally:
        _reap(proc)
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"set-up exited {proc.returncode}")
    return elapsed


def time_import(module: str, env, deadline: float) -> float:
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    try:
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError(f"import {module} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"import {module} failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def run_worker(argv: list[str], env, deadline: float) -> dict:
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError("workload timed out") from None
    finally:
        _reap(proc)
    lines = out.strip().splitlines()
    if not lines or lines[0] != "READY":
        raise BenchError(f"workload exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def end_to_end(record: dict, setup_raw: list[float], clock: Clock) -> dict:
    factor = refkernel.NOMINAL_S / statistics.fmean(record["ref_s"])
    return {
        "solve_s": {"value": statistics.fmean(record["job_s"]) * factor, "unit": "s"},
        "setup_s": {"value": statistics.fmean(setup_raw) * clock.factor(), "unit": "s"},
        "peak_rss_mb": {"value": record["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }


def per_layer(record: dict, import_s: float) -> dict:
    factor = refkernel.NOMINAL_S / statistics.fmean(record["ref_s"])
    jobs = record["layers"]
    n = len(jobs)
    metrics = {}
    for metric, key, unit in LAYER_METRICS:
        if metric.endswith(".calls"):
            value = sum(j["calls"].get(key, 0) for j in jobs) / n
        elif unit != "s":
            value = sum(j["counters"].get(key, 0) for j in jobs) / n
        elif key in LAYERS:
            value = sum(v for j in jobs for name, v in j["self_s"].items()
                        if name.startswith(key + ".")) / n * factor
        else:
            value = sum(j["self_s"].get(key, 0.0) for j in jobs) / n * factor
        metrics[metric] = {"value": value, "unit": unit}
    # jobs alternate untraced and traced, so each traced job is compared
    # with the untraced job just before it, under the same host load
    excess = statistics.median(t / p - 1.0 for p, t in zip(record["job_s"], record["traced_job_s"]))
    metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": excess * statistics.fmean(record["job_s"]) * factor, "unit": "s"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * excess, "unit": "%"}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    # on SIGTERM, unwind so that running children are killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    root = Path.cwd()
    if not (root / "src" / "itkit" / "__init__.py").is_file():
        print("perfbench: no itkit sources under ./src; run from the root of an itkit checkout",
              file=sys.stderr)
        return 2
    env = child_env(root)
    out_dir = root / ".perfbench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_dir / f"work-{tag}-{os.getpid()}"
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    clock = Clock()
    try:
        setup_raw, import_s = [], 0.0
        clock.ref(REFS_PER_START)
        if args.trace:
            cli_s, core_s = [], []
            for _ in range(IMPORT_STARTS):
                cli_s.append(time_import("itkit.cli", env, deadline))
                core_s.append(time_import("itkit.core", env, deadline))
                clock.ref(REFS_PER_START)
            import_s = (statistics.fmean(cli_s) - statistics.fmean(core_s)) * clock.factor()
        else:
            for k in range(SETUP_STARTS):
                setup_raw.append(time_setup(worker + ["--work", str(work / f"setup{k}"), "--setup-only"],
                                            env, deadline))
                clock.ref(REFS_PER_START)
        trace_file = out_dir / f"spans-{tag}.json"
        record = run_worker(worker + ["--work", str(work / "run"), "--trace-file", str(trace_file)],
                            env, deadline)
    except BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": record["correct"], "attempted": max(record["attempted"], 1),
              "failed": record["failed"], "metrics": {}}
    if record["correct"]:
        result["metrics"] = per_layer(record, import_s) if args.trace else end_to_end(record, setup_raw, clock)
        raw = {k: record[k] for k in ("job_s", "traced_job_s", "ref_s", "timeline", "peak_rss_kb")}
        raw.update(setup_s=setup_raw, launcher_ref_s=clock.refs, result=result)
        (out_dir / f"raw-{tag}.json").write_text(json.dumps(raw, indent=1))
    print(json.dumps(result))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
