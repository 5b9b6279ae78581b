"""Benchmark: time to a verdict of the tensor-invariants CLI.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job runs one CLI command (see workloads.py) through
``tensor_invariants.cli.main`` in a fresh single-threaded Python process
(BLAS pinned to one thread, seeded from --seed), so connection caches start
cold as in a real CLI call.  Jobs repeat until --seconds have passed; every
job's output is checked (exit code, the exact PASS/FAIL set, finiteness of
every per-point value, and on the default seed a reference within 1e-13).

Timings are calibrated (calibration.py): a fixed snippet is timed every
50 ms inside the job, its time is taken out of the job's time, and the rest
is scaled by REF_S / (mean snippet time in the job).  Raw seconds
and the calibration are reported alongside in the info line, ungated.

--trace 0 prints the end-to-end metrics (medians over the jobs of the run):
  setup_s      interpreter start to both spaces built (import only for audit-paper)
  verdict_s    cli.main call to its return, artefact written
  peak_rss_mb  ru_maxrss of the job process
--trace 1 alternates untraced and traced jobs and prints the per-layer
metrics of tracing.py: exact counts (which must repeat across jobs), self
times, the tracing overhead (traced / untraced verdict_s) and the share of
the traced verdict spent inside layer spans.

The last line of stdout is the result object; the line before it is an
``info`` object (machine, raw seconds, calibration, src line count).  Under
.bench_out/<workload>-seed<seed>/ the run leaves jobs.json (every untraced
job's raw and calibrated times) and spans.jsonl (the last traced job's spans).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibration
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent

THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
MIN_JOBS = 3
RUN_LIMIT_S = 170.0

PER_LAYER = (
    ("expr.parse.calls", "count"),
    ("expr.parse.self_s", "s"),
    ("expr.value.entries", "count"),
    ("expr.value.self_s", "s"),
    ("jets.order1.calls", "count"),
    ("jets.order1.entries", "count"),
    ("jets.order1.self_s", "s"),
    ("jets.order2.calls", "count"),
    ("jets.order2.entries", "count"),
    ("jets.order2.self_s", "s"),
    ("jets.useful_ratio", "ratio"),
    ("geometry.connection_jet.calls", "count"),
    ("geometry.connection_jet.hit_ratio", "ratio"),
    ("geometry.provider.calls", "count"),
    ("geometry.provider.self_s", "s"),
    ("geometry.curvature.calls", "count"),
    ("geometry.curvature.self_s", "s"),
    ("geometry.ricci.calls", "count"),
    ("geometry.weyl.calls", "count"),
    ("geometry.weyl.self_s", "s"),
    ("geometry.cov_deriv.calls", "count"),
    ("geometry.cov_deriv.self_s", "s"),
    ("invariants.omega_jet.calls", "count"),
    ("invariants.omega_jet.self_s", "s"),
    ("invariants.dee.evals", "count"),
    ("invariants.dee.self_s", "s"),
    ("invariants.zeta.evals", "count"),
    ("invariants.zeta.self_s", "s"),
    ("invariants.basic_weyl.evals", "count"),
    ("invariants.basic_weyl.self_s", "s"),
    ("invariants.weyl_chain.evals", "count"),
    ("invariants.weyl_chain.self_s", "s"),
    ("invariants.derived_thomas.evals", "count"),
    ("invariants.derived_thomas.self_s", "s"),
    ("mappings.verify.self_s", "s"),
    ("mappings.fplanar_invariants.evals", "count"),
    ("mappings.fplanar_invariants.self_s", "s"),
    ("mappings.rows", "count"),
    ("configs.load.self_s", "s"),
    ("configs.build_space.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("audit.run.self_s", "s"),
    ("sampling.random_space.self_s", "s"),
    ("numpy.einsum.calls", "count"),
    ("numpy.einsum.self_s", "s"),
    ("numpy.einsum.bytes", "computed_B"),
    ("numpy.linalg.calls", "count"),
    ("numpy.linalg.self_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

# spans each workload reaches at the commit that introduced the benchmark; a
# traced job that records none of one of them fails, so a refactor cannot
# silently empty a layer
_VERIFY_SPANS = {
    "cli.main",
    "configs.load",
    "configs.build_space",
    "expr.parse",
    "expr.value",
    "jets.order1",
    "jets.order2",
    "geometry.connection_jet",
    "geometry.provider",
    "geometry.curvature",
    "geometry.ricci",
    "geometry.weyl",
    "geometry.cov_deriv",
    "invariants.omega_jet",
    "invariants.dee",
    "invariants.zeta",
    "invariants.basic_weyl",
    "invariants.weyl_chain",
    "invariants.derived_thomas",
    "mappings.verify",
    "numpy.einsum",
    "numpy.linalg",
}
REQUIRED_SPANS = {
    "fplanar-demo": _VERIFY_SPANS | {"mappings.fplanar_invariants"},
    "omega-n6": _VERIFY_SPANS,
    "audit-paper": _VERIFY_SPANS
    | {"mappings.fplanar_invariants", "audit.run", "sampling.random_space"},
}

# per-point counts on fplanar-demo recorded in the ROADMAP baseline
FPLANAR_BASELINE_PER_POINT = {
    "jets.order1.calls": 67,
    "jets.order1.entries": 363,
    "jets.order2.calls": 2,
    "geometry.connection_jet.calls": 48,
    "invariants.dee.evals": 10,
    "geometry.curvature.calls": 18,
    "numpy.einsum.calls": 452,
}


def src_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))


class Runner:
    def __init__(self, workload: str, seed: int, root: Path):
        self.workload = workload
        self.seed = seed
        self.src = root / "src"
        self.out = root / ".bench_out" / f"{workload}-seed{seed}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.argv = workloads.cli_argv(workload, seed, self.out)
        self.env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32), **THREAD_ENV)
        self.env.pop("PYTHONPATH", None)
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def warm_up(self) -> None:
        """Compile the package's bytecode and warm the file cache, untimed."""
        code = f"import sys; sys.path.insert(0, {str(self.src)!r}); import tensor_invariants.cli"
        subprocess.run(
            [sys.executable, "-c", code], env=self.env, check=True, timeout=self.remaining()
        )

    def job(self, index: int, trace: bool) -> dict:
        """Run one job, check its output and return its calibrated timings."""
        run_id = f"{self.workload}-seed{self.seed}-job{index}"
        spec_path = self.out / "job-spec.json"
        result_path = self.out / "job-result.json"
        for stale in (result_path, workloads.output_path(self.workload, self.out)):
            stale.unlink(missing_ok=True)
        spec = {
            "src": str(self.src),
            "argv": self.argv,
            "seed": self.seed,
            "trace": trace,
            "run_id": run_id,
            "result": str(result_path),
            "spans": str(self.out / "spans.jsonl"),
        }
        spec_path.write_text(json.dumps(spec))
        t_spawn = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "job.py"), str(spec_path)],
            env=self.env,
            stdout=subprocess.DEVNULL,
            check=True,
            timeout=max(1.0, self.remaining()),
        )
        result = json.loads(result_path.read_text())

        expected = workloads.operations(self.workload)
        self.attempted += expected
        if result["exit_code"] != workloads.expected_exit(self.workload):
            failed = expected
            problems = [f"{run_id}: exit code {result['exit_code']}: {result['error']}"]
        else:
            failed, problems = workloads.check_output(self.workload, self.out, self.seed)
        self.failed += failed
        self.problems.extend(f"{run_id}: {p}" for p in problems)

        samples = result.pop("samples")
        snippets = [end - start for start, end in samples] or [calibration.REF_S]
        result["calibration_s"] = statistics.fmean(snippets)
        scale = calibration.REF_S / result["calibration_s"]
        t_import, t_main0 = result["t_import"], result["t_main0"]
        setup_windows = [(t_spawn, t_import), (t_main0, result["t_setup"] or t_main0)]
        result["raw_setup_s"] = _net(setup_windows, samples)
        result["raw_verdict_s"] = _net([(t_main0, result["t_main1"])], samples)
        result["setup_s"] = result["raw_setup_s"] * scale
        result["verdict_s"] = result["raw_verdict_s"] * scale
        return result

    def run(self, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
        """(untraced jobs, traced jobs), alternating when tracing."""
        self.warm_up()
        plain: list[dict] = []
        traced: list[dict] = []
        deadline = time.perf_counter() + seconds
        while True:
            plain.append(self.job(len(plain) + len(traced), trace=False))
            if trace:
                traced.append(self.job(len(plain) + len(traced), trace=True))
            if time.perf_counter() >= deadline and len(plain) >= MIN_JOBS:
                return plain, traced


def _net(windows, samples) -> float:
    """Seconds in `windows` that calibration snippets did not take."""
    inside = [end - start for start, end in samples if any(a <= start < b for a, b in windows)]
    return sum(b - a for a, b in windows) - sum(inside)


def _median(jobs: list[dict], key: str) -> float:
    return statistics.median(job[key] for job in jobs)


def end_to_end(jobs: list[dict]) -> dict:
    return {
        "setup_s": {"value": _median(jobs, "setup_s"), "unit": "s"},
        "verdict_s": {"value": _median(jobs, "verdict_s"), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(job["maxrss_kb"] / 1024.0 for job in jobs),
            "unit": "MB",
        },
    }


def per_layer(workload: str, plain: list[dict], traced: list[dict], problems: list[str]):
    """Per-layer metrics from the traced jobs; appends to `problems`."""
    counts = traced[0]["counts"]
    for job in traced[1:]:
        if job["counts"] != counts:
            problems.append("traced counts differ between jobs of the same seed")
    for name in sorted(REQUIRED_SPANS[workload]):
        key = f"{name}.{tracing.SPANS[name]}"
        if counts.get(key, 0) == 0:
            problems.append(f"traced job recorded no {key}")

    values: dict[str, float] = {}
    for name, unit in PER_LAYER:
        if unit == "s":
            span = name[: -len(".self_s")]
            values[name] = statistics.median(
                job["self_s"].get(span, 0.0) * calibration.REF_S / job["calibration_s"]
                for job in traced
            )
        elif unit != "ratio":
            values[name] = counts.get(name, 0)
    jet_calls = counts.get("jets.order1.calls", 0) + counts.get("jets.order2.calls", 0)
    conn_calls = counts.get("geometry.connection_jet.calls", 0)
    values["jets.useful_ratio"] = traced[0]["distinct_jets"] / jet_calls if jet_calls else 0.0
    values["geometry.connection_jet.hit_ratio"] = (
        counts.get("geometry.connection_jet.hits", 0) / conn_calls if conn_calls else 0.0
    )
    values["trace.coverage"] = statistics.median(
        1.0 - job["self_s"]["cli.main"] / job["raw_verdict_s"] for job in traced
    )
    values["trace.overhead_ratio"] = _median(traced, "verdict_s") / _median(plain, "verdict_s")
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}


def baseline_match(counts: dict) -> dict:
    """Per-point fplanar-demo counts against the ROADMAP baseline."""
    points = workloads.FPLANAR_POINTS
    return {
        key: {"per_point": counts.get(key, 0) / points, "baseline": expected}
        for key, expected in FPLANAR_BASELINE_PER_POINT.items()
    }


def info(args, runner: Runner, plain, traced) -> dict:
    def quartiles(key):
        values = [job[key] for job in plain]
        return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": len(plain),
        "traced_jobs": len(traced),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": THREAD_ENV,
        "calibration_period_s": calibration.PERIOD_S,
        "calibration_ref_s": calibration.REF_S,
        "calibration_s_median": _median(plain, "calibration_s"),
        "raw_setup_s_median": _median(plain, "raw_setup_s"),
        "raw_verdict_s_median": _median(plain, "raw_verdict_s"),
        "setup_s_quartiles": quartiles("setup_s"),
        "verdict_s_quartiles": quartiles("verdict_s"),
        "failed_frac": runner.failed / runner.attempted,
        "src_lines": src_lines(runner.src),
        "problems": runner.problems[:20],
    }
    if traced:
        out["traced_verdict_s_median"] = _median(traced, "verdict_s")
        if args.workload == "fplanar-demo":
            out["fplanar_baseline_counts"] = baseline_match(traced[0]["counts"])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "tensor_invariants" / "cli.py").is_file():
        print("bench: run from the root of a tensor-invariants checkout", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, root)
    plain, traced = runner.run(args.seconds, bool(args.trace))
    if traced:
        metrics = per_layer(args.workload, plain, traced, runner.problems)
    else:
        metrics = end_to_end(plain)
    records = [{k: v for k, v in job.items() if k not in ("self_s", "counts")} for job in plain]
    (runner.out / "jobs.json").write_text(json.dumps(records, indent=1))
    print(json.dumps({"info": info(args, runner, plain, traced)}))
    print(
        json.dumps(
            {
                "correct": not runner.problems,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
