#!/usr/bin/env python3
"""dp3ring benchmark: seeded workloads of CLI calls, one closed-loop caller.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout; the package is imported from `src/`.
Each operation is one `dp3ring.cli.main(argv)` call in this process, with its
standard output captured, so argument parsing, rendering and the exit code
are inside the timed interval.  The next call starts only when the previous
one has returned (one caller, one thread).  Every output is checked exactly
right after its timed interval, outside it.  The loop stops once the timed
intervals add up to `--seconds` of wall time.  Times are reported at the
reference speed of speed.py, which takes out the drift of a shared machine.

With `--trace 0` the last line of standard output is a JSON object holding the
end-to-end metrics of BENCHMARK.json.  With `--trace 1` the run is split: the
first half traces the layers (see tracing.py), then the same operations run
again untraced, and the JSON holds the per-layer metrics; the spans go to
`.perfbench_out/`.  `--workload all` runs every workload, each in its own
process, and prints a table of their end-to-end metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
if not (SRC / "dp3ring" / "cli.py").is_file():
    sys.exit(f"error: no {SRC / 'dp3ring'}; run from the root of a dp3ring source checkout")
sys.path.insert(0, str(SRC))

from dp3ring import cli  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 11


def measure_setup() -> float:
    """Median time of a fresh `python -m dp3ring.cli nf x`, at reference
    speed: interpreter start plus import, which every command-line call pays."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    argv = [sys.executable, "-m", "dp3ring.cli", "nf", "x"]
    intervals = []
    with speed.SpeedProbe() as probe:
        for _ in range(SETUP_RUNS):
            start = time.perf_counter()
            done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
            intervals.append((start, time.perf_counter()))
            if done.returncode != 0 or done.stdout != "x\n":
                raise RuntimeError(f"set-up call failed: {done.stderr.strip()}")
    return statistics.median(probe.scale(*interval) for interval in intervals)


def call(argv) -> tuple[int | None, str, float, float]:
    """One CLI call: (exit code, stdout, start, end).  A usage error is exit
    code 2 from argparse; an exception escaping main gives None."""
    out = io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code, error = None, traceback.format_exc()
        end = time.perf_counter()
    if error is not None:
        print(f"dp3ring {' '.join(argv)} raised:\n{error}", file=sys.stderr)
    return code, out.getvalue(), start, end


def measure(ops, seconds: float, tracer=None) -> tuple[list, list[float], int]:
    """Closed loop over `ops` until the timed intervals reach `seconds`.

    Returns the operations run, their latencies at reference speed and how
    many failed their check.
    """
    ran, intervals, failed, busy = [], [], 0, 0.0
    with speed.SpeedProbe() as probe:
        for op in ops:
            if busy >= seconds:
                break
            if tracer is not None:
                tracer.op = len(ran)
                tracer.active = True
            code, out, start, end = call(op.argv)
            if tracer is not None:
                tracer.active = False
            ran.append(op)
            intervals.append((start, end))
            busy += end - start
            if not op.check(code, out):
                failed += 1
                print(f"check failed: dp3ring {' '.join(op.argv)} -> {code}: {out[:200]!r}",
                      file=sys.stderr)
    print(f"{len(ran)} operations in {busy:.3f} s of wall time; reference loop median "
          f"{probe.median_ref() * 1e3:.4f} ms", file=sys.stderr)
    return ran, [probe.scale(*interval) for interval in intervals], failed


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[int, int, dict]:
    setup = measure_setup()
    ran, latencies, failed = measure(workloads.stream(workload, seed), seconds)
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    metrics = {
        "setup_s": setup,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "ok_ratio": (len(ran) - failed) / len(ran),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return len(ran), failed, metrics


def per_layer(workload: str, seed: int, seconds: float, checks: list[str]) -> tuple[int, int, dict]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ran, traced, failed = measure(workloads.stream(workload, seed), seconds / 2, tracer)
    finally:
        tracer.uninstall()
    _, untraced, failed_again = measure(iter(ran), float("inf"))
    metrics = tracer.layer_metrics(len(ran), checks)
    metrics["trace.overhead_ratio"] = sum(traced) / sum(untraced)
    spans = ROOT / ".perfbench_out" / f"spans-{workload}-seed{seed}.csv"
    tracer.write_spans(spans)
    print(f"{len(tracer.spans)} spans written to {spans}", file=sys.stderr)
    return 2 * len(ran), failed + failed_again, metrics


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process; a table of the end-to-end metrics."""
    rows = []
    for entry in SPEC["workloads"]:
        argv = [sys.executable, __file__, "--workload", entry["name"], "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        rows.append((entry["name"], json.loads(done.stdout.splitlines()[-1])))
    print(f"{'workload':10} {'metric':12} {'value':>12}  unit")
    for name, result in rows:
        ratio = result["failed"] / result["attempted"]
        print(f"{name:10} {'failed_ratio':12} {ratio:12.4f}  ratio  "
              f"({result['failed']} of {result['attempted']})")
        for metric, value in result["metrics"].items():
            print(f"{name:10} {metric:12} {value['value']:12.4f}  {value['unit']}")
    return 0 if all(result["correct"] for _, result in rows) else 1


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*names, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    listed = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    if args.trace:
        prefix, suffix = "verify.check.", "_s"
        checks = [m["name"][len(prefix):-len(suffix)] for m in listed
                  if m["name"].startswith(prefix)]
        attempted, failed, values = per_layer(args.workload, args.seed, args.seconds, checks)
    else:
        attempted, failed, values = end_to_end(args.workload, args.seed, args.seconds)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
