"""Workload inputs, expected verdicts and correctness checks.

Every input the program sees is generated here from the benchmark seed, so a
change to the library (its samplers or built-in configs) cannot change what
a workload asks for.  Each workload is one CLI command; one run of it is one
"job" in a fresh process.

* fplanar-demo: ``verify`` on the built-in fplanar-demo geometry (N=3,
  g = diag(u^2, v^2, w^2), F-planar mapping, all 13 invariants) at P=256
  points in [1,2]^3.  Jets are about half the time and P is large, so point
  batching and jet dedup both show here.
* omega-n6: ``verify`` on a random diagonally dominant N=6 metric with a
  general omega pair (all three s nonzero, all five fields set), P=64, the
  10 general invariants.  Only this workload reaches the s2/s3 branches of
  D, zeta and the Weyl chain, and N^4 = 1296-entry assembly.
* audit-paper: ``audit-paper --points-seed <seed>``: 14 findings over about
  30 freshly generated spaces at 2-8 points each.  Per-space construction
  dominates and no space sees more than 8 points, so a batching change has
  nothing to amortise here; the prediction for such a change is no gain.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 7
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# discrepancies and audit measurements must match the reference captured on
# DEFAULT_SEED within REFERENCE_RTOL * max(1, |ref|)
REFERENCE_RTOL = 1e-13

GENERAL_INVARIANTS = (
    "classical_thomas",
    "classical_weyl",
    "basic_thomas",
    "basic_weyl_direct",
    "basic_weyl_structured",
    "derived_thomas",
    "weyl_first_printed",
    "weyl_first_corrected",
    "weyl_second",
    "weyl_final",
)
FPLANAR_INVARIANTS = ("fplanar_thomas", "fplanar_wbasic", "fplanar_wderived")

FPLANAR_PASS = {
    "basic_thomas",
    "basic_weyl_direct",
    "basic_weyl_structured",
    "derived_thomas",
    "weyl_first_corrected",
    "fplanar_thomas",
}
OMEGA_N6_VERDICTS = "FFPPPFFPFF"  # in GENERAL_INVARIANTS order

AUDIT_VERDICTS = (
    ("christoffel-example-table", "discrepancy"),
    ("example-curvature-cases", "discrepancy"),
    ("fcal-tables", "confirmed"),
    ("omega-square-expansion", "confirmed"),
    ("basic-weyl-direct-vs-structured", "confirmed"),
    ("correlation-identities", "confirmed"),
    ("derived-thomas-s1-coefficient", "discrepancy"),
    ("theorem2-general-omega", "discrepancy"),
    ("weyl-first-stage-trace-sign", "discrepancy"),
    ("fplanar-invariance-readings", "discrepancy"),
    ("fplanar-zeta-reduction", "discrepancy"),
    ("fplanar-dee-reduction", "discrepancy"),
    ("fplanar-wbasic-reduction", "discrepancy"),
    ("trace-equation-index-reading", "info"),
)

FPLANAR_POINTS = 256
OMEGA_N6_POINTS = 64
OMEGA_N6_DIM = 6

# the fplanar-demo geometry as built into the CLI at the time this benchmark
# was written, copied so that the workload stays fixed
_R3_CHART = ["u", "v", "w"]
_R3_METRIC = [["u^2", "0", "0"], ["0", "v^2", "0"], ["0", "0", "w^2"]]
_R3_F = [["sin(u)", "0", "0"], ["0", "cos(v)", "0"], ["0", "0", "w"]]
_R3_SIGMA = ["0", "0", "ln(1+u^2+v^2+w^2)"]


def _box_points(rng: np.random.Generator, dim: int, count: int) -> list[list[float]]:
    return [[float(x) for x in 1.0 + rng.random(dim)] for _ in range(count)]


def fplanar_demo_config(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "chart": _R3_CHART,
        "space": {"metric": _R3_METRIC},
        "fplanar": {"psi": ["0", "0", "0"], "sigma": _R3_SIGMA, "F": _R3_F},
        "points": {"list": _box_points(rng, 3, FPLANAR_POINTS)},
        "tol": 1e-8,
        "invariants": list(GENERAL_INVARIANTS + FPLANAR_INVARIANTS),
    }


# Entry k of a field takes form _FORMS[k % 6]; only coefficients and variable
# names are random, so every seed asks for the same amount of work.
_FORMS = (
    "{c}",
    "{c}*{x}",
    "{c}*{x}*{y}",
    "{c}*sin({x})",
    "{c}*cos({x})",
    "{c}*ln(1+{x}^2)",
)


class _Exprs:
    def __init__(self, rng: np.random.Generator, names: list[str]):
        self.rng = rng
        self.names = names
        self.k = 0

    def next(self) -> str:
        form = _FORMS[self.k % len(_FORMS)]
        self.k += 1
        pick = self.rng.integers(len(self.names), size=2)
        return form.format(
            c=f"{self.rng.uniform(-0.3, 0.3):.4f}",
            x=self.names[pick[0]],
            y=self.names[pick[1]],
        )

    def field(self, rank: int):
        n = len(self.names)
        if rank == 0:
            return self.next()
        return [self.field(rank - 1) for _ in range(n)]

    def symmetric(self):
        n = len(self.names)
        out = [[None] * n for _ in range(n)]
        for j in range(n):
            for k in range(j, n):
                out[j][k] = out[k][j] = self.next()
        return out


def omega_n6_config(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n = OMEGA_N6_DIM
    names = [f"x{i + 1}" for i in range(n)]
    metric = [["0"] * n for _ in range(n)]
    for j, name in enumerate(names):
        metric[j][j] = f"{1.0 + j}+{rng.uniform(0.1, 0.3):.4f}*{name}^2"
    for j in range(n):
        for k in range(j + 1, n):
            coeff = rng.uniform(-0.05, 0.05)
            metric[j][k] = metric[k][j] = f"{coeff:.4f}*{names[j]}*{names[k]}"
    # s away from 0 and 1 so that the verdict set does not depend on the seed
    signs = rng.choice([-1.0, 1.0], 3)
    s = [float(sign * mag) for sign, mag in zip(signs, rng.uniform(0.3, 0.7, 3))]
    exprs = _Exprs(rng, names)

    def omega_block():
        return {
            "s": s,
            "rho": exprs.field(1),
            "sigma": exprs.field(1),
            "F": exprs.field(2),
            "phi": exprs.field(1),
            "sigma2": exprs.symmetric(),
        }

    return {
        "chart": names,
        "space": {"metric": metric},
        "omega": omega_block(),
        "omega_bar": omega_block(),
        "points": {"list": _box_points(rng, n, OMEGA_N6_POINTS)},
        "tol": 1e-8,
        "invariants": list(GENERAL_INVARIANTS),
    }


WORKLOADS = ("fplanar-demo", "omega-n6", "audit-paper")
VERIFY_CONFIGS = {"fplanar-demo": fplanar_demo_config, "omega-n6": omega_n6_config}


def cli_argv(workload: str, seed: int, work_dir: Path) -> list[str]:
    """CLI arguments for one job; writes the job config into `work_dir`."""
    work_dir.mkdir(parents=True, exist_ok=True)
    if workload == "audit-paper":
        return ["audit-paper", "--points-seed", str(seed), "--out", str(work_dir)]
    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(VERIFY_CONFIGS[workload](seed)))
    return ["verify", "--config", str(config_path), "--out", str(work_dir)]


def expected_exit(workload: str) -> int:
    return 0 if workload == "audit-paper" else 3


def expected_verdicts(workload: str) -> dict[str, bool]:
    """Invariant name -> PASS for verify workloads."""
    if workload == "fplanar-demo":
        names = GENERAL_INVARIANTS + FPLANAR_INVARIANTS
        return {name: name in FPLANAR_PASS for name in names}
    return {name: flag == "P" for name, flag in zip(GENERAL_INVARIANTS, OMEGA_N6_VERDICTS)}


def _points(workload: str) -> int:
    return FPLANAR_POINTS if workload == "fplanar-demo" else OMEGA_N6_POINTS


def operations(workload: str) -> int:
    """Operations one job attempts: (invariant, point) rows, or findings."""
    if workload == "audit-paper":
        return len(AUDIT_VERDICTS)
    return _points(workload) * len(expected_verdicts(workload))


def output_path(workload: str, work_dir: Path) -> Path:
    return work_dir / ("audit-findings.json" if workload == "audit-paper" else "report.json")


def load_reference(workload: str):
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def _close(value, ref) -> bool:
    return abs(value - ref) <= REFERENCE_RTOL * max(1.0, abs(ref))


def _finite_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def check_verify(workload: str, report: dict, reference: dict | None) -> tuple[int, list[str]]:
    """Count failed (invariant, point) rows of a verify report.

    A row fails if its discrepancy is missing or non-finite, if it exceeds
    the tolerance for an invariant that must PASS, or if it leaves the
    reference.  Every row of an invariant whose verdict is wrong fails.
    Discrepancies are compared one by one: Python ``max`` drops NaN.
    """
    expected = expected_verdicts(workload)
    points = _points(workload)
    tol = report.get("tol")
    rows = {row.get("name"): row for row in report.get("invariants", [])}
    problems: list[str] = []
    failed = 0
    for name, must_pass in expected.items():
        row = rows.get(name)
        discs = [p.get("discrepancy") for p in row.get("points", [])] if row else []
        if len(discs) != points or not isinstance(tol, float):
            problems.append(f"{name}: {len(discs)} of {points} points reported")
            failed += points
            continue
        ref = reference[name] if reference is not None else None
        bad = [False] * points
        above = False
        for k, d in enumerate(discs):
            if not _finite_number(d):
                bad[k] = True
                continue
            if d > tol:
                above = True
                bad[k] = must_pass
            if ref is not None and not _close(d, ref[k]):
                bad[k] = True
        if above == must_pass or row.get("passed") != must_pass:
            problems.append(f"{name}: expected {'PASS' if must_pass else 'FAIL'}")
            bad = [True] * points
        failed += sum(bad)
        if any(bad):
            problems.append(f"{name}: {sum(bad)} failed rows")
    return failed, problems


def _numbers_match(value, ref) -> bool:
    """Every number in `ref` is present, finite and close in `value`."""
    if isinstance(ref, dict):
        return isinstance(value, dict) and all(
            key in value and _numbers_match(value[key], item) for key, item in ref.items()
        )
    if isinstance(ref, list):
        return (
            isinstance(value, list)
            and len(value) == len(ref)
            and all(_numbers_match(v, r) for v, r in zip(value, ref))
        )
    if _finite_number(ref):
        return _finite_number(value) and _close(value, ref)
    return True


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def check_audit(findings: list, reference: list | None) -> tuple[int, list[str]]:
    """Count failed findings: wrong id or verdict, a non-finite measurement,
    or a measurement that leaves the reference."""
    problems: list[str] = []
    failed = 0
    by_id = {f.get("id"): f for f in findings if isinstance(f, dict)}
    ref_by_id = {f["id"]: f for f in reference} if reference is not None else {}
    for fid, verdict in AUDIT_VERDICTS:
        finding = by_id.get(fid)
        ok = (
            finding is not None
            and finding.get("verdict") == verdict
            and _all_finite(finding.get("measurement"))
        )
        if ok and reference is not None:
            ok = _numbers_match(finding.get("measurement"), ref_by_id[fid]["measurement"])
        if not ok:
            failed += 1
            problems.append(f"finding {fid} failed")
    return failed, problems


def check_output(workload: str, work_dir: Path, seed: int) -> tuple[int, list[str]]:
    """(failed operations, problems) for the artefact one job wrote."""
    reference = load_reference(workload) if seed == DEFAULT_SEED else None
    path = output_path(workload, work_dir)
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as err:
        return operations(workload), [f"cannot read {path.name}: {err}"]
    if workload == "audit-paper":
        if not isinstance(data, list):
            return operations(workload), ["audit-findings.json is not a list"]
        return check_audit(data, reference)
    if not isinstance(data, dict):
        return operations(workload), ["report.json is not an object"]
    return check_verify(workload, data, reference)


def reference_from_output(workload: str, work_dir: Path):
    """The reference record kept for DEFAULT_SEED, taken from one job's output."""
    data = json.loads(output_path(workload, work_dir).read_text())
    if workload == "audit-paper":
        return data
    return {
        row["name"]: [p["discrepancy"] for p in row["points"]] for row in data["invariants"]
    }
