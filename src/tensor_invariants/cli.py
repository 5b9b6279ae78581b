"""Config-driven command line front end.

Commands take a JSON job config (a file path or a builtin name), compute
tensor tables at the configured points, run invariance verification, or run
the paper audit.  Index bases in configs and outputs are 1-based; internal
storage is 0-based, converted only here.

Exit codes: 0 success, 1 config error, 2 math or domain error,
3 verification failure (some invariant discrepancy above tolerance).  A
reader that closes stdout early (``| head -1``) does not change the code:
the rest of the output is dropped and the command runs to its end.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .audit import findings_to_json, run_paper_audit
from .configs import ConfigError, JobConfig, builtin_config, points_seed, tolerance
from .expr import DomainError, ExprError
from .geometry import (
    SingularMetricError,
    curvature,
    ricci,
    thomas,
    weyl,
)
from .invariants import (
    MODE_STRUCTURED,
    basic_thomas,
    basic_weyl,
    dee,
    derived_thomas,
    derived_weyl_chain,
    zeta,
)
from .mappings import (
    FPlanarSpec,
    UnknownInvariantError,
    apply_mapping,
    evaluate_points,
    fplanar_as_omega,
    fplanar_build,
    verify_invariance,
)

COMMANDS = (
    "christoffel",
    "curvature",
    "ricci",
    "thomas",
    "weyl",
    "invariants",
    "verify",
    "example-r3",
    "audit-paper",
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are config errors (exit 1)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tensor-invariants",
        description="projective invariants of affine connection spaces",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="job config: a JSON file path or a builtin name")
    parser.add_argument("--point", help="evaluate at one point, e.g. 1,2,3 (overrides config points)")
    parser.add_argument(
        "--points-seed", type=points_seed, default=None, help="seed for sampled points"
    )
    parser.add_argument("--tol", type=tolerance, default=None, help="verification tolerance")
    parser.add_argument("--format", choices=("text", "csv", "json"), default="text")
    parser.add_argument(
        "--ricci-convention", choices=("last", "middle"), default="last"
    )
    parser.add_argument("--out", help="directory for CSV/JSON artifacts")
    return parser


def _load_config(args) -> JobConfig:
    if not args.config:
        raise ConfigError(f"command {args.command!r} requires --config")
    path = Path(args.config)
    if path.exists():
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: {err}") from err
        return JobConfig.from_dict(raw)
    return builtin_config(args.config)


def _resolve_points(args, job: JobConfig) -> list[tuple]:
    if args.point:
        try:
            point = tuple(float(x) for x in args.point.split(","))
        except ValueError as err:
            raise ConfigError(f"bad --point {args.point!r}") from err
        if len(point) != job.chart.dim:
            raise ConfigError(
                f"--point has {len(point)} coordinates, chart has {job.chart.dim}"
            )
        points = [point]
    else:
        points = job.points(seed=args.points_seed)
    for point in points:
        for name, x in zip(job.chart.names, point):
            if not math.isfinite(x):
                raise ValueError(f"coordinate {name} = {float(x)!r} is not finite")
    return points


def _emit(text: str, end: str = "\n") -> None:
    """Write `text` to stdout at once; if the reader has gone, send this and
    all later output (the interpreter's last flush too) to the null device."""
    try:
        sys.stdout.write(text + end)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# --- table rendering ---------------------------------------------------------

def _labels(shape) -> list:
    """Each element's 1-based index as text, "i,j,..." ("" for a scalar),
    row-major."""
    return [",".join(str(i + 1) for i in index) for index in np.ndindex(*shape)]


def _csv_text(job, rank, points, arrays) -> str:
    header = list(job.chart.names) + [f"i{k + 1}" for k in range(rank)] + ["value"]
    # a point's lines, formatted from its cells and then its element values
    cells = (label + "," if label else "" for label in _labels(arrays.shape[1:]))
    block = "\n".join(f"{{0}},{index}{{{k + 1}!r}}" for k, index in enumerate(cells))
    lines = [",".join(header)]
    for point, data in zip(points, arrays):
        lines.append(block.format(",".join(repr(float(c)) for c in point), *data.ravel().tolist()))
    return "\n".join(lines) + "\n"


def _json_text(job, name, variance, points, arrays) -> str:
    payload = {
        "object": name,
        "variance": variance,
        "chart": list(job.chart.names),
        "points": [
            {"point": [float(c) for c in point], "data": data.tolist()}
            for point, data in zip(points, arrays)
        ],
    }
    return json.dumps(payload, indent=2)


def _text_table(name, points, arrays) -> str:
    lines = [f"# {name}"]
    # a point's lines, formatted from its element values
    heads = (f"  ({label}) = " if label else "  value = " for label in _labels(arrays.shape[1:]))
    block = "\n".join(f"{head}{{{k}!r}}" for k, head in enumerate(heads))
    last_point = None
    for point, data in zip(points, arrays):
        if point != last_point:
            coords = ", ".join(f"{c:.6g}" for c in point)
            lines.append(f"at ({coords}):")
            last_point = point
        lines.append(block.format(*data.ravel().tolist()))
    return "\n".join(lines)


def _emit_tables(args, job, objects, points) -> None:
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    # verify's block loop: every object on a block of points before the
    # next, so the objects share the results in the block's cache
    per_object = evaluate_points([evaluate for _, _, evaluate in objects], points)
    for (name, variance, _), arrays in zip(objects, per_object):
        kinds = ("csv", "json") if out_dir else (args.format,)  # each formatted once
        csv_text = _csv_text(job, len(variance), points, arrays) if "csv" in kinds else None
        json_text = _json_text(job, name, variance, points, arrays) if "json" in kinds else None
        if out_dir:
            (out_dir / f"{name}.csv").write_text(csv_text)
            (out_dir / f"{name}.json").write_text(json_text)
        if args.format == "csv":
            _emit(csv_text, end="")
        elif args.format == "json":
            _emit(json_text)
        else:
            _emit(_text_table(name, points, arrays))


# --- commands ----------------------------------------------------------------

def _tensor_objects(args, job, command):
    space = job.build_space()
    convention = args.ricci_convention
    if command == "christoffel":
        return [("christoffel", "ull", space.connection)]
    if command == "curvature":
        return [("curvature", "ulll", curvature(space))]
    if command == "ricci":
        evaluator = ricci(space, convention)
        return [
            ("ricci", "ll", lambda p: evaluator(p)[0]),
            ("ricci_antisymmetric", "ll", lambda p: evaluator(p)[1]),
        ]
    if command == "thomas":
        return [("thomas", "ull", thomas(space))]
    if command == "weyl":
        return [("weyl", "ulll", weyl(space, convention))]
    raise ConfigError(f"unknown tensor command {command!r}")


def _invariant_objects(args, job):
    if job.omega is None and job.fplanar is None:
        raise ConfigError("'invariants' needs an omega block (or an fplanar block)")
    space = job.build_space()
    if job.omega is not None:
        spec = job.omega
    else:
        spec = fplanar_as_omega(space, job.fplanar).omega_src
    convention = args.ricci_convention
    chain = derived_weyl_chain(space, spec, convention)
    return [
        ("basic_thomas", "ull", basic_thomas(space, spec)),
        ("zeta", "ll", zeta(space, spec)),
        ("dee", "ulll", dee(space, spec)),
        ("basic_weyl", "ulll", basic_weyl(space, spec, MODE_STRUCTURED)),
        ("derived_thomas", "ull", derived_thomas(space, spec)),
        ("derived_weyl", "ulll", chain.final),
        ("derived_weyl_first_corrected", "ulll", chain.first_corrected),
    ]


def _run_verify(args, job) -> int:
    mapping = job.mapping()
    if mapping is None:
        raise ConfigError("'verify' needs an omega/omega_bar pair or an fplanar block")
    source = job.build_space()
    if isinstance(mapping, FPlanarSpec):
        target = fplanar_build(source, mapping)
    else:
        target = apply_mapping(source, mapping)
    points = _resolve_points(args, job)
    tol = args.tol if args.tol is not None else job.tol
    report = verify_invariance(
        source,
        target,
        mapping,
        points,
        invariants=job.invariants,
        tol=tol,
        convention=args.ricci_convention,
    )
    text = report.to_text()
    _emit(text)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "report.json", "w") as out:
            out.writelines(report.json_pieces())  # a row at a time
        (out_dir / "report.txt").write_text(text + "\n")
    return 0 if report.passed else 3


def _run_audit(args) -> int:
    findings = run_paper_audit(seed=args.points_seed or 0, convention=args.ricci_convention)
    text = findings_to_json(findings)
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "audit-findings.json"
    out_path.write_text(text)
    _emit(f"paper audit: {len(findings)} findings -> {out_path}")
    for finding in findings:
        _emit(f"  [{finding.verdict:11s}] {finding.id}: {finding.claim}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    job = None
    try:
        args = parser.parse_args(argv)
        if args.command == "example-r3":
            job = builtin_config("example-r3")
            text = job.to_json()
            if args.out:
                out_dir = Path(args.out)
                out_dir.mkdir(parents=True, exist_ok=True)
                (out_dir / "example-r3.json").write_text(text + "\n")
            _emit(text)
            return 0
        if args.command == "audit-paper":
            return _run_audit(args)
        job = _load_config(args)
        if args.command == "verify":
            return _run_verify(args, job)
        if args.command == "invariants":
            objects = _invariant_objects(args, job)
        else:
            objects = _tensor_objects(args, job, args.command)
        points = _resolve_points(args, job)
        _emit_tables(args, job, objects, points)
        return 0
    except (ConfigError, UnknownInvariantError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except DomainError as err:
        print(f"math error: {err.describe(job and job.chart)}", file=sys.stderr)
        return 2
    except (ExprError, SingularMetricError, np.linalg.LinAlgError, ValueError) as err:
        print(f"math error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
