"""One benchmark worker: a fresh interpreter that runs one workload.

Started by ``run.py``; not meant to be run by hand.  The worker imports
``cohprobe.cli`` from the checkout's ``src/``, writes the workload's ``.alg``
inputs into its work directory, prints ``ready`` and then runs the request
list in-process through ``cohprobe.cli.main``, one request at a time (a closed
loop with one client).  With ``--setup-only`` it exits after ``ready``.

Untraced mode repeats the request list while another pass fits in
``--seconds`` (at least one pass).  Traced mode runs one untraced and then
one traced pass.  The calibration kernel of ``calibrate.py`` runs between
requests.  Either way the last line on stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_request(request, call):
    """(exit code, stdout text, seconds) of one request; exceptions exit 1."""
    from cohprobe import cli

    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = call(cli.main, list(request.argv))
    except Exception:  # a crash is a failed request, not a failed run
        print(f"request {request.key!r} raised:", file=sys.stderr)
        traceback.print_exc()
        rc = 1
    return rc, buf.getvalue(), time.perf_counter() - start


def run_pass(requests, call=lambda fn, argv: fn(argv), on_request=None):
    """Run the request list once; returns ([(rc, text, seconds, scaled)], kernels).

    The kernel runs before the first request and after each one; every
    request's time is scaled by the median kernel time of the pass.
    """
    gc.collect()
    kernels = [calibrate.kernel()]
    outcomes = []
    for request in requests:
        outcomes.append(run_request(request, call))
        kernels.append(calibrate.kernel())
        if on_request is not None:
            on_request(request)
    kernel_s = statistics.median(kernels)
    return [(rc, text, s, calibrate.scale(s, kernel_s)) for rc, text, s in outcomes], kernels


def check_pass(requests, outcomes, pinned, verdicts):
    """Check each outcome; returns the number of failed requests."""
    failed = 0
    for request, (rc, text, _, _) in zip(requests, outcomes):
        problems = workloads.check_report(request, rc, text, pinned)
        digest = workloads.report_digest(text)
        verdicts.setdefault(request.key, {
            "digest": digest,
            "pinned": request.key in pinned,
            "problems": problems,
        })
        if problems:
            failed += 1
            print(f"FAILED {request.key}: {'; '.join(problems)}", file=sys.stderr)
    return failed


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import cohprobe.cli  # noqa: F401  (part of set-up)

    requests, params = workloads.build(args.workload, args.seed)
    os.chdir(args.workdir)
    for name, text in workloads.alg_texts(params).items():
        Path(name).write_text(text, encoding="utf-8")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    pinned = workloads.load_digests()
    leftover = tracer.installed_wrappers()
    if leftover:
        raise RuntimeError(f"untraced run found span wrappers: {leftover}")

    verdicts = {}
    walls, raw_walls, kernels, times, attempted, failed = [], [], [], {}, 0, 0

    def record(outcomes, pass_kernels):
        nonlocal attempted, failed
        kernels.append(pass_kernels)
        raw_walls.append(sum(o[2] for o in outcomes))
        walls.append(sum(o[3] for o in outcomes))
        for request, outcome in zip(requests, outcomes):
            times.setdefault(request.key, []).append(outcome[3])
        attempted += len(outcomes)
        failed += check_pass(requests, outcomes, pinned, verdicts)

    result = {"workload": args.workload, "seed": args.seed, "params": params}
    start = time.perf_counter()
    if not args.trace:
        while True:
            record(*run_pass(requests))
            elapsed = time.perf_counter() - start
            if elapsed * (len(walls) + 1) / len(walls) > args.seconds:
                break
    else:
        record(*run_pass(requests))
        spans = tracer.Tracer()
        per_request = []

        def on_request(request):
            per_request.append((request.key, spans.snapshot()))

        spans.install()
        try:
            outcomes, _ = run_pass(requests, spans.request, on_request)
        finally:
            spans.uninstall()
        leftover = tracer.installed_wrappers()
        if leftover:
            raise RuntimeError(f"span wrappers left after the traced run: {leftover}")
        attempted += len(outcomes)
        failed += check_pass(requests, outcomes, pinned, verdicts)
        traced_wall = sum(o[3] for o in outcomes)
        result["trace"] = {
            "untraced_wall_s": walls[0],
            "traced_wall_s": traced_wall,
            "counts": spans.counters(),
            "timings": {**spans.timings(), "trace.overhead_s": traced_wall - walls[0]},
            "missing": spans.missing,
            "silent": [s for s in workloads.EXERCISES[args.workload] if not spans.calls[s]],
            "requests": _per_request(per_request),
        }

    result.update({
        "passes": len(walls),
        "attempted": attempted,
        "failed": failed,
        "wall_s": statistics.median(walls),
        "raw_wall_s": raw_walls,
        "kernel_s": kernels,
        "slowest_request_s": max(statistics.median(ts) for ts in times.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "request_seconds": times,
        "reports": verdicts,
    })
    print(json.dumps(result), flush=True)
    return 0


def _per_request(snapshots):
    """Per-request calls and self time of each span that fired, from snapshots."""
    out, before = [], None
    for key, snap in snapshots:
        spans = {}
        for name, (calls, self_s) in snap.items():
            c0, s0 = before[name] if before else (0, 0.0)
            if calls > c0:
                spans[name] = {"calls": calls - c0, "self_s": self_s - s0}
        out.append({"request": key, "spans": spans})
        before = snap
    return out


if __name__ == "__main__":
    sys.exit(main())
