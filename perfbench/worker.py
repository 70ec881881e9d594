"""One timed run of one workload, in a fresh interpreter.

Usage: python3 worker.py WORKLOAD SEED SECONDS TRACE LADDER WORKDIR RESULT [SPANS]

The oracle keeps a per-process cache and ``catalog.load`` warms it, so each
timed run gets its own process.  The run repeats whole cycles of the
workload, choosing the number of cycles that brings the timed work nearest
to SECONDS (at least one).  Timed work is the sum of the operations' own
durations; making a cycle's inputs, checking answers and the garbage
collection run before each operation are not timed.
With TRACE = 1 the tracer is installed before the catalogs load.  With
LADDER = 1 the reach ladder runs after the timed cycles.  The result is
written to RESULT as JSON, and a traced run's spans to SPANS.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> None:
    workload, seed, seconds, traced, with_ladder, work, result_path, *spans_path = argv
    seed, seconds = int(seed), float(seconds)
    with_ladder = with_ladder == "1"
    work = Path(work)

    tracer = None
    if traced == "1":
        tracer = tracing.Tracer()
        tracer.install()
    import workloads as W

    if workload == "cli-mix":
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT / "perfbench")]))
        wl = W.CliMix(seed, work, ROOT, env, tracer is not None)
    elif workload == "endo-sums":
        wl = W.EndoSums(seed)
    elif workload == "oracle-weights":
        wl = W.OracleWeights(seed)
    else:
        raise SystemExit(f"unknown workload {workload!r}")

    ops: list[dict] = []
    errors: list[str] = []
    timed = 0.0
    cycles = 0
    while cycles == 0 or timed + timed / cycles / 2 < seconds:
        for label, op, check in wl.cycle():
            if tracer:
                tracer.request = len(ops)
            # every operation starts from a collected heap, so a collection
            # triggered by earlier garbage does not land on it
            gc.collect()
            start = time.perf_counter()
            try:
                result = op()
                elapsed = time.perf_counter() - start
                check(result)
                ok = True
            except Exception as exc:  # a raising or wrong op is a failure, not a crash
                elapsed = time.perf_counter() - start
                ok = False
                if len(errors) < 10:
                    errors.append(f"{label}: {type(exc).__name__}: {exc}")
            timed += elapsed
            ops.append({"label": label, "seconds": elapsed, "ok": ok})
        cycles += 1

    ladder, ladder_ok = [], True
    if with_ladder:
        if tracer:
            tracer.request = -2
        try:
            ladder = wl.ladder()
        except Exception as exc:
            ladder_ok = False
            errors.append(f"ladder: {type(exc).__name__}: {exc}")

    result = {"ops": ops, "cycles": cycles, "timed_s": timed, "errors": errors,
              "ladder": ladder, "ladder_ok": ladder_ok, "params": wl.params}
    if tracer:
        # one entry per process: this worker, then each traced CLI command
        processes = [tracer.record()] + [json.loads(p.read_text("utf-8"))
                                         for p in getattr(wl, "trace_files", [])]
        result["layers"] = tracing.merge([p["summary"] for p in processes])
        Path(spans_path[0]).write_text(json.dumps(
            {"names": tracing.NAMES, "processes": processes}), "utf-8")
    Path(result_path).write_text(json.dumps(result), "utf-8")


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    main(sys.argv[1:])
