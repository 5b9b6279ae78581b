"""Digest what a fixed list of CLI commands gives, so that two source trees
can be byte-compared.

Usage: python tests/compare_cli_outputs.py SRC OUT_DIR [NAME ...]

Runs each command of ``COMMANDS`` (or only those named) against the package
under ``SRC``, each in a fresh process with ``PYTHONDONTWRITEBYTECODE=1``,
and prints one line per command: its name, its exit code and a SHA-256 of
the exit code, stdout, stderr and every file it wrote to its ``--out``
directory.  A command runs in its own directory ``OUT_DIR/NAME``, with
``--out out`` and any config file given by a path relative to it, so no
output holds ``OUT_DIR``; its stdout and stderr are kept there too.  The
bench configs are written from this checkout's ``bench/workloads.py``, so
both trees see the same inputs.  Nothing is written outside ``OUT_DIR``.
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

ROOT = Path(__file__).resolve().parents[1]

# name -> (bench config maker and seed, or None; CLI arguments before --out)
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
            workloads = workloads or _bench_workloads()
            maker, seed = config
            (work / "config.json").write_text(json.dumps(getattr(workloads, maker)(seed)))
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
