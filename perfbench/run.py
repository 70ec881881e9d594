"""quiverstab benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads are cli-mix, endo-sums and oracle-weights (see README.md).  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, and the spans are written to perfbench/out/.  ``--workload all``
runs every workload both ways and prints one table.  A human-readable
report goes to standard error.

Nothing is built: the program is imported from src/ of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = {"cli-mix": ("D5tilde", "K3"),
             "endo-sums": ("D5tilde",),
             "oracle-weights": ("D5tilde", "K3")}
SETUP_REPEATS = 7
TAIL_QUANTILE = 0.9
TAIL_MIN_BEYOND = 10
RUN_LIMIT_S = 170  # a single-workload run gives up after this, without a result


class BenchError(Exception):
    pass


def env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]),
                PYTHONHASHSEED="0")


def measure_setup(catalogs: tuple[str, ...]) -> float:
    """Median wall time of a fresh interpreter importing quiverstab and
    loading the workload's catalogs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), *catalogs],
                              env=env(), capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed:\n{proc.stderr}")
    return statistics.median(times)


def run_worker(workload: str, seed: int, seconds: float, traced: bool, ladder: bool,
               work: Path, deadline: float, spans: Path | None = None) -> tuple[dict, float]:
    """Run one worker process; return its result and its peak RSS in MB."""
    result_path = work / f"result-{int(traced)}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(seconds),
           str(int(traced)), str(int(ladder)), str(work), str(result_path)]
    if spans is not None:
        cmd.append(str(spans))
    proc = subprocess.Popen(cmd, env=env(), stdout=sys.stderr)
    while True:
        # wait4 gives the rusage of this child (and what it waited for)
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            break
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise BenchError(f"{workload} did not finish within {RUN_LIMIT_S} s")
        time.sleep(0.05)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(result_path.read_text("utf-8")), usage.ru_maxrss / 1024


def throughput(result: dict) -> float:
    return sum(op["ok"] for op in result["ops"]) / result["timed_s"]


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(result: dict, setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics and details for the report."""
    times = sorted(op["seconds"] for op in result["ops"] if op["ok"])
    if not times:
        raise BenchError("no operation succeeded")
    beyond = len(times) - math.ceil(TAIL_QUANTILE * len(times))
    metrics = {
        "throughput_ops_s": (throughput(result), "1/s"),
        "latency_p50_s": (statistics.median(times), "s"),
        "latency_tail_s": (nearest_rank(times, TAIL_QUANTILE), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "reach": (sum(outcome == "decided" for _, outcome in result["ladder"]), "count"),
    }
    failed = sum(not op["ok"] for op in result["ops"])
    details = {
        "ops": len(result["ops"]), "failed": failed,
        "failure_rate": failed / len(result["ops"]),
        "cycles": result["cycles"], "timed_s": result["timed_s"],
        "tail_percentile": f"p{round(TAIL_QUANTILE * 100)} ({beyond} samples beyond"
                           + (", FEWER THAN 10" if beyond < TAIL_MIN_BEYOND else "") + ")",
        "ladder": result["ladder"], "params": result["params"], "errors": result["errors"],
    }
    return metrics, details


def per_layer(untraced: dict, traced: dict) -> dict:
    import tracer

    metrics = tracer.layer_metrics(traced["layers"])
    plain, with_spans = throughput(untraced), throughput(traced)
    metrics["trace.untraced_throughput_ops_s"] = (plain, "1/s")
    metrics["trace.traced_throughput_ops_s"] = (with_spans, "1/s")
    metrics["trace.overhead_ratio"] = (plain / with_spans, "ratio")
    return metrics


def src_lines() -> int:
    return sum(len(p.read_text("utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def run_workload(workload: str, seed: int, seconds: int, traced: bool, work: Path,
                 deadline: float):
    """(metrics, attempted, failed, details) for one workload."""
    if traced:
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{workload}-seed{seed}.json"
        untraced = run_worker(workload, seed, seconds / 2, False, False, work, deadline)[0]
        traced_result = run_worker(workload, seed, seconds / 2, True, True, work, deadline,
                                   spans)[0]
        results = [untraced, traced_result]
        metrics = per_layer(untraced, traced_result)
        details = {"spans": str(spans.relative_to(ROOT)),
                   "errors": untraced["errors"] + traced_result["errors"]}
    else:
        setup_s = measure_setup(WORKLOADS[workload])
        result, rss = run_worker(workload, seed, seconds, False, True, work, deadline)
        results = [result]
        metrics, details = end_to_end(result, setup_s, rss)
    attempted = sum(len(r["ops"]) + len(r["ladder"]) for r in results)
    failed = sum(sum(not op["ok"] for op in r["ops"]) + (not r["ladder_ok"]) for r in results)
    return metrics, attempted, failed, details


def report(workload: str, metrics: dict, details: dict) -> list[str]:
    lines = [f"== {workload}"]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<48} {value:>14.6g} {unit}")
    for key, value in details.items():
        lines.append(f"  # {key}: {value}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "quiverstab" / "__init__.py").is_file():
        print(f"error: no quiverstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = BENCH / "_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.workload == "all":
            combined, attempted, failed, lines = {}, 0, 0, [f"# src/ lines: {src_lines()}"]
            for workload in WORKLOADS:
                for traced in (False, True):
                    metrics, a, f, details = run_workload(workload, args.seed, args.seconds,
                                                          traced, work, math.inf)
                    attempted, failed = attempted + a, failed + f
                    lines += report(workload + (" (traced)" if traced else ""), metrics, details)
                    combined.update({f"{workload}.{k}": v for k, v in metrics.items()})
            print("\n".join(lines))
            metrics = combined
        else:
            metrics, attempted, failed, details = run_workload(
                args.workload, args.seed, args.seconds, bool(args.trace), work,
                time.monotonic() + RUN_LIMIT_S)
            details["src_lines"] = src_lines()
            print("\n".join(report(args.workload, metrics, details)), file=sys.stderr)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
