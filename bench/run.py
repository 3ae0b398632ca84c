"""cohprobe benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root:

    python3 bench/run.py --workload corpus-fp --seed 1 --seconds 35 --trace 0

Workloads (see ``workloads.py`` and BENCHMARK.json for why each exists):

- ``corpus-fp``: ``cohprobe corpus`` at D=9 over F32003;
- ``sklyanin-q``: ``hilbert -D 9`` over Q on 8 seeded Sklyanin algebras;
- ``modules-q``: ``tor --length 3 -D 7`` on 3 of them, the desk-model
  ``zalg`` Hom table and two ``veronese --cross-check --pm-modules`` runs.

Each run starts fresh worker interpreters (``worker.py``), one at a time and
with no threads.  One worker runs the workload; set-up-only workers run
before and after it.  ``setup_s`` is the median, over the set-up-only spawns,
of the time from spawning a worker until ``cohprobe.cli`` is imported and the
``.alg`` inputs are written.  With ``--trace 0`` the run reports the
end-to-end metrics, measured with no tracing; with ``--trace 1`` it reports
the per-layer metrics of ``tracer.py``.

``wall_s`` and ``slowest_request_s`` are scaled to a reference host speed by
the calibration kernel of ``calibrate.py``, run between requests; the
results record keeps the measured times and kernel times as well.
``setup_s`` is not scaled: spawning and importing is operating-system work
that the kernel does not track.

Every request is checked against an independent reference and against the
sha256 of its JSON report at the commit that pinned ``digests.json``; a
request that fails either check counts in ``failed``.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  A full record (seed, parameters, digests, per-request times and
the per-layer counts apart from the timings) goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 5  # set-up-only spawns before, and again after, the measuring worker
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def spawn(args, workdir, setup_only):
    """Start a worker; returns (process, seconds until it printed ``ready``)."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    # a fixed hash seed keeps set iteration, and with it the counters, repeatable
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc, 10)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready


def finish(proc, timeout):
    """Wait for a worker; returns its remaining stdout.  Kills it on timeout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def setup_samples(args, workdir):
    """Set-up seconds of SETUP_SPAWNS set-up-only workers."""
    samples = []
    for _ in range(SETUP_SPAWNS):
        proc, ready = spawn(args, workdir, setup_only=True)
        finish(proc, 30)
        samples.append(ready)
    return samples


def measure(args):
    (BENCH / "work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "work")
    try:
        setups = setup_samples(args, workdir)
        proc, _ = spawn(args, workdir, setup_only=False)
        out = finish(proc, WORKER_TIMEOUT_S)
        setups += setup_samples(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    return result


def metrics_of(result, trace):
    if not trace:
        return {
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "slowest_request_s": {"value": result["slowest_request_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
            "setup_s": {"value": result["setup_s"], "unit": "s"},
        }
    values = {**result["trace"]["counts"], **result["trace"]["timings"]}
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in tracer.per_layer_metric_specs()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cohprobe" / "cli.py").is_file():
        print(f"error: no cohprobe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted, failed = result["attempted"], result["failed"]
    error_rate = failed / attempted
    print(f"workload {args.workload}  seed {args.seed}  params {result['params']}"
          f"  passes {result['passes']}")
    print(f"error_rate {error_rate} ({failed} failed of {attempted} attempted)")
    if args.trace:
        trace = result["trace"]
        for label in ("missing", "silent"):
            if trace[label]:
                print(f"{label} spans: {', '.join(trace[label])}")
        print("coverage:", "ok" if not trace["silent"] else "SILENT SPANS")
    metrics = metrics_of(result, args.trace)

    (BENCH / "results").mkdir(exist_ok=True)
    record = BENCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "error_rate": error_rate, "metrics": metrics},
                                 indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
