"""Job configuration: a JSON document describing spaces, mappings and points.

Expression values are strings parsed by the expression front-end; index keys
in sparse connection maps are 1-based to mirror the usual tensor notation,
and all conversion to 0-based storage happens here at the boundary.
Normalization reprints every expression canonically, so parse -> emit ->
parse is a fixed point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .expr import Chart, ExprError, print_expr
from .geometry import Space
from .invariants import OmegaSpec, SValues
from .mappings import FPlanarSpec, sample_points
from .tensor import TensorField

__all__ = ["ConfigError", "JobConfig", "builtin_config", "BUILTIN_CONFIGS"]


class ConfigError(Exception):
    """Invalid or inconsistent job configuration."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _parse_entries(chart: Chart, variance: str, raw, label: str) -> TensorField:
    try:
        return TensorField(chart, variance, raw)
    except (ExprError, ValueError) as err:
        raise ConfigError(f"{label}: {err}") from err


def _connection_from_sparse(chart: Chart, mapping: dict) -> TensorField:
    n = chart.dim
    entries = [[["0"] * n for _ in range(n)] for _ in range(n)]
    for key, text in mapping.items():
        parts = key.split(",")
        _require(len(parts) == 3, f"connection key {key!r} must be 'i,j,k'")
        try:
            i, j, k = (int(p) for p in parts)
        except ValueError as err:
            raise ConfigError(f"connection key {key!r} must hold integers") from err
        _require(
            all(1 <= idx <= n for idx in (i, j, k)),
            f"connection key {key!r} out of range for dimension {n}",
        )
        entries[i - 1][j - 1][k - 1] = text
    return _parse_entries(chart, "ull", entries, "connection")


@dataclass
class JobConfig:
    chart: Chart
    metric: TensorField | None = None
    connection: TensorField | None = None
    omega: OmegaSpec | None = None
    omega_bar: OmegaSpec | None = None
    fplanar: FPlanarSpec | None = None
    point_list: list = field(default_factory=list)
    seed: int = 7
    count: int = 20
    box: list | None = None
    tol: float = 1e-8
    invariants: list | None = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "JobConfig":
        _require(isinstance(raw, dict), "config must be a JSON object")
        _require("chart" in raw, "config needs a 'chart' list of coordinate names")
        try:
            chart = Chart(tuple(raw["chart"]))
        except ValueError as err:
            raise ConfigError(str(err)) from err

        space_block = raw.get("space")
        _require(isinstance(space_block, dict), "config needs a 'space' object")
        has_metric = "metric" in space_block
        has_connection = "connection" in space_block
        _require(
            has_metric != has_connection,
            "space must define exactly one of 'metric' or 'connection'",
        )
        metric = connection = None
        if has_metric:
            metric = _parse_entries(chart, "ll", space_block["metric"], "metric")
        else:
            _require(
                isinstance(space_block["connection"], dict),
                "connection must map 'i,j,k' keys to expressions",
            )
            connection = _connection_from_sparse(chart, space_block["connection"])

        job = cls(chart=chart, metric=metric, connection=connection)
        job.omega = cls._omega_from_dict(chart, raw.get("omega"), "omega")
        job.omega_bar = cls._omega_from_dict(chart, raw.get("omega_bar"), "omega_bar")
        _require(
            (job.omega is None) == (job.omega_bar is None),
            "omega and omega_bar must be given together",
        )
        if job.omega is not None and job.omega.s != job.omega_bar.s:
            raise ConfigError("omega and omega_bar must share the same s values")

        fp = raw.get("fplanar")
        if fp is not None:
            _require(isinstance(fp, dict), "fplanar must be an object")
            job.fplanar = FPlanarSpec(
                psi=_parse_entries(chart, "l", fp.get("psi", ["0"] * chart.dim), "fplanar.psi"),
                sigma=_parse_entries(
                    chart, "l", fp.get("sigma", ["0"] * chart.dim), "fplanar.sigma"
                ),
                F=_parse_entries(
                    chart,
                    "ul",
                    fp.get("F", [["0"] * chart.dim for _ in range(chart.dim)]),
                    "fplanar.F",
                ),
            )
        _require(
            job.omega is None or job.fplanar is None,
            "config may define an omega pair or an fplanar block, not both",
        )

        points = raw.get("points", {})
        _require(isinstance(points, dict), "points must be an object")
        job.point_list = [tuple(float(x) for x in p) for p in points.get("list", [])]
        for point in job.point_list:
            _require(len(point) == chart.dim, "explicit point of wrong dimension")
        job.seed = int(points.get("seed", 7))
        job.count = int(points.get("count", 20))
        box = points.get("box")
        if box is not None:
            _require(
                len(box) == chart.dim and all(len(pair) == 2 for pair in box),
                "box must list one [lo, hi] pair per coordinate",
            )
            job.box = [[float(a), float(b)] for a, b in box]
        job.tol = float(raw.get("tol", 1e-8))
        inv = raw.get("invariants")
        if inv is not None:
            _require(isinstance(inv, list), "invariants must be a list of names")
            job.invariants = list(inv)
        job._validate_omega_symmetry()
        return job

    def _validate_omega_symmetry(self) -> None:
        try:
            probes = self.points()[:3]
        except ConfigError:
            return
        for spec in (self.omega, self.omega_bar):
            if spec is None:
                continue
            try:
                spec.validate(probes)
            except ValueError as err:
                raise ConfigError(str(err)) from err

    @staticmethod
    def _omega_from_dict(chart: Chart, raw, label: str) -> OmegaSpec | None:
        if raw is None:
            return None
        _require(isinstance(raw, dict), f"{label} must be an object")
        _require("s" in raw and len(raw["s"]) == 3, f"{label} needs s = [s1, s2, s3]")
        s = SValues(*(float(x) for x in raw["s"]))
        fields = {}
        for name, variance in (
            ("rho", "l"),
            ("sigma", "l"),
            ("F", "ul"),
            ("phi", "u"),
            ("sigma2", "ll"),
        ):
            if name in raw:
                fields[name] = _parse_entries(chart, variance, raw[name], f"{label}.{name}")
        return OmegaSpec(chart, s, **fields)

    # -- normalized emission ----------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {"chart": list(self.chart.names)}
        if self.metric is not None:
            out["space"] = {"metric": self.metric.strings()}
        else:
            sparse = {}
            n = self.chart.dim
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        text = print_expr(self.connection.entry(i, j, k), self.chart)
                        if text != "0.0":
                            sparse[f"{i + 1},{j + 1},{k + 1}"] = text
            out["space"] = {"connection": dict(sorted(sparse.items()))}
        if self.omega is not None:
            out["omega"] = self._omega_to_dict(self.omega)
            out["omega_bar"] = self._omega_to_dict(self.omega_bar)
        if self.fplanar is not None:
            out["fplanar"] = {
                "psi": self.fplanar.psi.strings(),
                "sigma": self.fplanar.sigma.strings(),
                "F": self.fplanar.F.strings(),
            }
        points: dict = {"seed": self.seed, "count": self.count}
        if self.point_list:
            points["list"] = [list(p) for p in self.point_list]
        if self.box is not None:
            points["box"] = self.box
        out["points"] = points
        out["tol"] = self.tol
        if self.invariants is not None:
            out["invariants"] = self.invariants
        return out

    @staticmethod
    def _omega_to_dict(spec: OmegaSpec) -> dict:
        out = {"s": list(spec.s.as_tuple())}
        for name in ("rho", "sigma", "F", "phi", "sigma2"):
            fld = getattr(spec, name)
            if isinstance(fld, TensorField):
                out[name] = fld.strings()
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    # -- realization -------------------------------------------------------------

    def build_space(self) -> Space:
        if self.metric is not None:
            return Space.from_metric(self.metric)
        return Space.from_connection(self.connection)

    def mapping(self):
        """Return the configured mapping: a MappingSpec, an FPlanarSpec or None."""
        if self.fplanar is not None:
            return self.fplanar
        if self.omega is not None:
            from .mappings import MappingSpec

            return MappingSpec(self.omega, self.omega_bar)
        return None

    def points(self, seed: int | None = None) -> list[tuple]:
        out = list(self.point_list)
        if self.box is not None:
            out.extend(sample_points(self.box, self.count, self.seed if seed is None else seed))
        if not out:
            raise ConfigError("no points: give points.list or points.box")
        return out


# ---------------------------------------------------------------------------
# built-in configs
# ---------------------------------------------------------------------------

_R3_CHART = ["u", "v", "w"]
_R3_METRIC = [["u^2", "0", "0"], ["0", "v^2", "0"], ["0", "0", "w^2"]]
_R3_BOX = [[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]
_R3_F = [["sin(u)", "0", "0"], ["0", "cos(v)", "0"], ["0", "0", "w"]]
_R3_SIGMA = ["0", "0", "ln(1+u^2+v^2+w^2)"]

BUILTIN_CONFIGS: dict[str, dict] = {
    "example-r3": {
        "chart": _R3_CHART,
        "space": {"metric": _R3_METRIC},
        "fplanar": {"psi": ["0", "0", "0"], "sigma": _R3_SIGMA, "F": _R3_F},
        "points": {"list": [[1.0, 2.0, 3.0]], "seed": 7, "count": 20, "box": _R3_BOX},
        "tol": 1e-8,
    },
    "flat3": {
        "chart": _R3_CHART,
        "space": {"connection": {}},
        "points": {"seed": 7, "count": 10, "box": _R3_BOX},
        "tol": 1e-8,
    },
    "sphere2": {
        "chart": ["u", "v"],
        "space": {"metric": [["1", "0"], ["0", "sin(u)^2"]]},
        "points": {"seed": 7, "count": 10, "box": [[0.5, 2.5], [0.0, 6.0]]},
        "tol": 1e-8,
    },
    "geodesic-demo": {
        "chart": _R3_CHART,
        "space": {"metric": _R3_METRIC},
        "omega": {"s": [1.0, 0.0, 0.0], "rho": ["0", "0", "0"]},
        "omega_bar": {"s": [1.0, 0.0, 0.0], "rho": ["1", "2*v", "0"]},
        "points": {"seed": 7, "count": 20, "box": _R3_BOX},
        "tol": 1e-9,
    },
    "fplanar-demo": {
        "chart": _R3_CHART,
        "space": {"metric": _R3_METRIC},
        "fplanar": {"psi": ["0", "0", "0"], "sigma": _R3_SIGMA, "F": _R3_F},
        "points": {"seed": 7, "count": 20, "box": _R3_BOX},
        "tol": 1e-8,
    },
}


def builtin_config(name: str) -> JobConfig:
    if name not in BUILTIN_CONFIGS:
        raise ConfigError(
            f"unknown builtin config {name!r}; available: {', '.join(sorted(BUILTIN_CONFIGS))}"
        )
    return JobConfig.from_dict(BUILTIN_CONFIGS[name])
