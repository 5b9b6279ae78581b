"""One benchmark job: a single tensor-invariants CLI command in this process.

Usage: python job.py SPEC.json

SPEC is written by run.py and names the source tree, the CLI arguments, the
seed, whether to trace, and where to write the result (and the spans).  The
result records CLOCK_MONOTONIC readings (``time.perf_counter``), which the
parent can compare with its own: ``t_import`` is when the package import
ends, ``t_setup`` when the source and target spaces are built (entry of
``verify_invariance``; None for ``audit-paper``), and ``t_main0``/``t_main1``
bracket ``cli.main``.  ``samples`` are the calibration snippets that ran
in between (see calibration.py).
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
import traceback

from calibration import Sampler


def main() -> int:
    with open(sys.argv[1]) as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    tracer = None
    wrap = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer(spec["run_id"])
        wrap = tracer.calibration_span
    sampler = Sampler(wrap)
    sampler.start()
    random.seed(spec["seed"])
    import numpy as np

    np.random.seed(spec["seed"] % 2**32)
    import tensor_invariants.cli as cli

    t_import = time.perf_counter()
    marks = {"setup": None}
    if tracer is not None:
        tracer.install()
    if spec["argv"][0] == "verify":
        verify = cli.verify_invariance

        def marked(*args, **kwargs):
            marks["setup"] = time.perf_counter()
            return verify(*args, **kwargs)

        cli.verify_invariance = marked

    error = None
    t_main0 = time.perf_counter()
    try:
        code = cli.main(spec["argv"])
    except Exception:  # the benchmark reports the failure instead of dying
        code = None
        error = traceback.format_exc(limit=8)
    t_main1 = time.perf_counter()
    sampler.stop()

    result = {
        "exit_code": code,
        "error": error,
        "samples": sampler.samples,
        "t_import": t_import,
        "t_setup": marks["setup"],
        "t_main0": t_main0,
        "t_main1": t_main1,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result.update(
            self_s=tracer.self_times(),
            counts=tracer.layer_counts(),
            distinct_jets=tracer.distinct_jets(),
        )
        tracer.dump(spec["spans"])
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
