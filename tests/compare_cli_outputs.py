"""Digest what a fixed list of CLI commands gives, so that two source trees
can be byte-compared.

Usage: python tests/compare_cli_outputs.py SRC OUT_DIR [NAME ...]

Runs each command of ``COMMANDS`` (or only those named) against the package
under ``SRC``, each in a fresh process with ``PYTHONDONTWRITEBYTECODE=1``,
and prints one line per command: its name, its exit code and a SHA-256 of
the exit code, stdout, stderr and every file it wrote to its ``--out``
directory.  A command runs in its own directory ``OUT_DIR/NAME``, with
``--out out`` and any config file given by a path relative to it, so no
output holds ``OUT_DIR``; its stdout and stderr are kept there too.  A
command's config is a bench config, written from this checkout's
``bench/workloads.py``, or one given inline here, so both trees see the
same inputs.  Nothing is written outside ``OUT_DIR``.
Comparing two trees is a ``diff`` of the two runs' printed lines.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _span_error_n6() -> dict:
    """N = 6, 30 listed points, the 22nd outside ln(x1)'s domain: rho's one
    span holds all 30 points, so it fails while the first block runs."""
    names = [f"x{k + 1}" for k in range(6)]
    metric = [[f"1 + {x}^2" if i == j else "0" for j in range(6)] for i, x in enumerate(names)]
    points = (1.0 + np.random.default_rng(3).random((30, 6))).tolist()
    points[21][0] = -0.5
    return {
        "chart": names,
        "space": {"metric": metric},
        "omega": {"s": [1, 0, 0], "rho": ["ln(x1)"] + ["0"] * 5},
        "omega_bar": {"s": [1, 0, 0], "rho": ["x2"] + ["0"] * 5},
        "points": {"list": points},
    }


# s1 = 0, so no row reads rho, whose ln(u - 5) has no value at the points
ZERO_S1 = {
    "chart": ["u", "v"],
    "space": {"metric": [["1 + u^2", "0"], ["0", "1 + v^2"]]},
    "omega": {
        "s": [0, 0.5, 0.5],
        "rho": ["ln(u - 5)", "0"],
        "sigma": ["u", "v"],
        "F": [["1", "u"], ["v", "1"]],
        "phi": ["1", "u*v"],
        "sigma2": [["u", "v"], ["v", "1"]],
    },
    "omega_bar": {
        "s": [0, 0.5, 0.5],
        "rho": ["0", "0"],
        "sigma": ["v", "1"],
        "F": [["u", "0"], ["1", "v"]],
        "phi": ["v", "1"],
        "sigma2": [["1", "u"], ["u", "v"]],
    },
    "points": {"list": [[1.5, 1.5], [1.2, 1.7]]},
}

# literal factors in every place the compiler folds them: signed zeros
# (-0*u, 0*v), a negated one (-2*u*v), a product of literals (3*2*w) and
# c*x*y terms, in the metric (run to order 2) and in both omegas
LITERAL_PRODUCTS = {
    "chart": ["u", "v", "w"],
    "space": {
        "metric": [
            ["12 + 0.1*u^2 + -0*u + -2*u*v", "-0.02*u*v", "0.01*u*w"],
            ["-0.02*u*v", "3 + 0*v + 0.2*v^2", "-0.0*v*w"],
            ["0.01*u*w", "-0.0*v*w", "4 + 3*2*w - 0.05*u*v"],
        ]
    },
    "omega": {
        "s": [0.5, 0.3, 0.2],
        "rho": ["-0*u + 0.1*v", "0*v - 0.2*u*w", "3*2*w"],
        "sigma": ["-2*u*v", "0.5*sin(u)", "-1.5*ln(1 + v^2)"],
        "F": [["-0*u", "0.1*u*v", "3*2*w"], ["-2*u*v", "0*v", "1"], ["0.2", "-0.3*w", "u*2"]],
        "phi": ["0.1*u*v", "-0*w", "2"],
        "sigma2": [["u", "-2*u*v", "0"], ["-2*u*v", "3*2*w", "0.1*v"], ["0", "0.1*v", "-0*u*v"]],
    },
    "omega_bar": {
        "s": [0.5, 0.3, 0.2],
        "rho": ["0*u", "-2*u*v", "0.3*v*w"],
        "sigma": ["3*2*u", "-0*v", "0.1*u*w"],
        "F": [["0*w", "1", "-2*u*v"], ["0.4*v*w", "-0*u", "2*(u + v)"], ["3*2", "0", "w"]],
        "phi": ["-0.0*u*v", "0*w", "-1.5*cos(w)"],
        "sigma2": [["-0*u", "0.2*u*v", "1"], ["0.2*u*v", "-2*w", "0"], ["1", "0", "3*2*v*w"]],
    },
    "points": {"list": [[1.2, 1.5, 1.7], [1.9, 1.1, 1.3], [1.4, 1.8, 1.6]]},
}

# N = 2 connection whose first entry overflows with no check firing and
# whose second fails ln's check at v = -1: the error names the first
OVERFLOW_THEN_LN = {
    "chart": ["u", "v"],
    "space": {"connection": {"1,1,1": "1e300*1e300*u", "1,1,2": "ln(v)"}},
}

# name -> (bench config maker and seed, an inline config, or None; CLI
# arguments before --out)
COMMANDS = {
    "verify-bench-fplanar-demo-11": (("fplanar_demo_config", 11), ["verify"]),
    "verify-bench-omega-n6-7-last": (("omega_n6_config", 7), ["verify"]),
    "verify-bench-omega-n6-7-middle": (
        ("omega_n6_config", 7),
        ["verify", "--ricci-convention", "middle"],
    ),
    "verify-geodesic-demo": (None, ["verify", "--config", "geodesic-demo"]),
    "verify-geodesic-demo-far-point": (
        None,
        ["verify", "--config", "geodesic-demo", "--point", "3e7,4e7,5e7"],
    ),
    "verify-geodesic-demo-zero-point": (
        None,
        ["verify", "--config", "geodesic-demo", "--point", "0,1,1"],
    ),
    "verify-example-r3-middle": (
        None,
        ["verify", "--config", "example-r3", "--ricci-convention", "middle"],
    ),
    "verify-fplanar-demo-seed-7": (
        None,
        ["verify", "--config", "fplanar-demo", "--points-seed", "7"],
    ),
    "invariants-fplanar-demo-json": (
        None,
        ["invariants", "--config", "fplanar-demo", "--format", "json"],
    ),
    "invariants-geodesic-demo-csv": (
        None,
        ["invariants", "--config", "geodesic-demo", "--format", "csv"],
    ),
    "invariants-bench-omega-n6-7": (("omega_n6_config", 7), ["invariants"]),
    "weyl-sphere2": (None, ["weyl", "--config", "sphere2"]),
    "christoffel-sphere2-pole": (None, ["christoffel", "--config", "sphere2", "--point", "0,1"]),
    "audit-paper-7": (None, ["audit-paper", "--points-seed", "7"]),
    "audit-paper-11-middle": (
        None,
        ["audit-paper", "--points-seed", "11", "--ricci-convention", "middle"],
    ),
    "example-r3": (None, ["example-r3"]),
    "verify-span-error-n6": (_span_error_n6(), ["verify"]),
    "verify-zero-s1": (ZERO_S1, ["verify"]),
    "verify-literal-products": (LITERAL_PRODUCTS, ["verify"]),
    "christoffel-overflow-then-ln": (OVERFLOW_THEN_LN, ["christoffel", "--point", "1,-1"]),
}


def _bench_workloads():
    """bench/workloads.py of this checkout, loaded from its file."""
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(code: int, stdout: bytes, stderr: bytes, out_dir: Path) -> str:
    """SHA-256 over the exit code, both streams and each file under
    `out_dir` by its relative path, each part framed by its label and length."""
    parts = [("exit", str(code).encode()), ("stdout", stdout), ("stderr", stderr)]
    if out_dir.is_dir():
        files = sorted(p for p in out_dir.rglob("*") if p.is_file())
        parts += [(f"file {p.relative_to(out_dir).as_posix()}", p.read_bytes()) for p in files]
    digest = hashlib.sha256()
    for label, data in parts:
        digest.update(f"{label}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def run(src: Path, out_dir: Path, names) -> list[str]:
    """Run the named commands against `src`; one line per command."""
    workloads = None
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(src.resolve()))
    lines = []
    for name in names:
        config, args = COMMANDS[name]
        work = out_dir / name
        work.mkdir(parents=True, exist_ok=False)
        argv = list(args)
        if config is not None:
            if not isinstance(config, dict):
                workloads = workloads or _bench_workloads()
                maker, seed = config
                config = getattr(workloads, maker)(seed)
            (work / "config.json").write_text(json.dumps(config))
            argv += ["--config", "config.json"]
        done = subprocess.run(
            [sys.executable, "-m", "tensor_invariants.cli", *argv, "--out", "out"],
            cwd=work,
            env=env,
            capture_output=True,
            check=False,
        )
        (work / "stdout").write_bytes(done.stdout)
        (work / "stderr").write_bytes(done.stderr)
        digest = _digest(done.returncode, done.stdout, done.stderr, work / "out")
        lines.append(f"{name} exit {done.returncode} {digest}")
    return lines


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: python tests/compare_cli_outputs.py SRC OUT_DIR [NAME ...]", file=sys.stderr)
        return 2
    names = argv[2:] or list(COMMANDS)
    unknown = [name for name in names if name not in COMMANDS]
    if unknown:
        print(f"unknown commands: {unknown}; known: {list(COMMANDS)}", file=sys.stderr)
        return 2
    for line in run(Path(argv[0]), Path(argv[1]), names):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
