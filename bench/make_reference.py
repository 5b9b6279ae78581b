"""Capture the reference outputs that run.py compares against on the
default seed.

Usage (from the root of a checkout): python3 bench/make_reference.py

Run it only on a commit whose outputs are known to be right; the files it
writes under bench/reference/ define what "correct" means for later commits.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from tensor_invariants import cli

    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        work_dir = root / ".bench_out" / f"reference-{workload}"
        argv = workloads.cli_argv(workload, workloads.DEFAULT_SEED, work_dir)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != workloads.expected_exit(workload):
            print(f"{workload}: exit code {code}", file=sys.stderr)
            return 1
        reference = workloads.reference_from_output(workload, work_dir)
        path = workloads.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(reference, indent=1) + "\n")
        print(f"{workload}: wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
