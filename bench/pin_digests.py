"""Pin the sha256 of every request's JSON report into ``digests.json``.

    python3 bench/pin_digests.py

Runs every request that any seed can produce (``workloads.every_request``)
and records the digest of its report.  Run it only on a commit whose reports
are the reference: the benchmark then fails any request whose report is not
byte-identical to the one pinned here.  It refuses to pin a report that
fails its independent reference.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from worker import BENCH, run_request
import workloads


def main():
    (BENCH / "work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pin-", dir=BENCH / "work")
    here = os.getcwd()
    digests = {}
    try:
        os.chdir(workdir)
        for name, text in workloads.alg_texts(workloads.SKLYANIN_PARAMS).items():
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
        for request in workloads.every_request():
            rc, text, seconds = run_request(request, lambda fn, argv: fn(argv))
            problems = workloads.check_report(request, rc, text, {})
            if problems:
                print(f"not pinned, {request.key}: {problems}", file=sys.stderr)
                return 1
            digests[request.key] = workloads.report_digest(text)
            print(f"{seconds:7.2f} s  {request.key}", flush=True)
    finally:
        os.chdir(here)
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
