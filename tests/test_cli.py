import json
import math
from collections import Counter

import numpy as np
import pytest

from tensor_invariants import cli, geometry
from tensor_invariants.cli import main
from tensor_invariants.configs import BUILTIN_CONFIGS, ConfigError, JobConfig, builtin_config


def run_cli(*argv):
    return main(list(argv))


def test_thomas_table_row(capsys):
    assert run_cli("thomas", "--config", "example-r3", "--point", "1,2,3") == 0
    out = capsys.readouterr().out
    assert "(1,1,1) = 0.5" in out


def test_christoffel_flat_is_zero(capsys):
    assert run_cli("christoffel", "--config", "flat3", "--point", "1,2,3") == 0
    out = capsys.readouterr().out
    values = {line.split(" = ")[-1] for line in out.splitlines() if " = " in line}
    assert values == {"0.0"}


def test_verify_geodesic_demo_passes(tmp_path, capsys):
    assert run_cli("verify", "--config", "geodesic-demo", "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert all(row["max_discrepancy"] < 1e-9 for row in report["invariants"])


def test_verify_fplanar_demo_exit_code_3(tmp_path, capsys):
    # the printed Weyl-type specializations are not invariant; exit code 3
    assert run_cli("verify", "--config", "fplanar-demo", "--out", str(tmp_path)) == 3
    report = json.loads((tmp_path / "report.json").read_text())
    by_name = {row["name"]: row for row in report["invariants"]}
    assert by_name["fplanar_thomas"]["passed"] is True
    assert by_name["fplanar_wbasic"]["passed"] is False


def test_bad_config_exit_code_1(capsys):
    assert run_cli("thomas", "--config", "no-such-config") == 1
    assert run_cli("thomas") == 1
    assert run_cli("frobnicate", "--config", "flat3") == 1


def test_domain_error_exit_code_2(capsys):
    # metric singular at u = 0
    assert run_cli("christoffel", "--config", "example-r3", "--point", "0,2,3") == 2


def test_pow_overflow_is_a_math_error(capsys):
    # (1e200)^2 overflows a float
    assert run_cli("christoffel", "--config", "example-r3", "--point", "1e200,1,1") == 2
    err = capsys.readouterr().err
    assert err.startswith("math error:") and "pow overflow" in err


def test_domain_error_names_chart_coordinates(capsys):
    assert run_cli("christoffel", "--config", "example-r3", "--point", "1e200,1,1") == 2
    err = capsys.readouterr().err
    assert "'u^2.0'" in err and "x0" not in err


@pytest.mark.parametrize(
    "point, message",
    [("nan,1.5,1.5", "coordinate u = nan is not finite"), ("1,inf,1", "coordinate v = inf")],
)
def test_non_finite_point_is_a_math_error(capsys, point, message):
    assert run_cli("verify", "--config", "fplanar-demo", "--point", point) == 2
    err = capsys.readouterr().err
    assert err.startswith("math error:") and message in err
    assert "overflow" not in err


def test_non_finite_listed_point_is_a_math_error(tmp_path, capsys):
    config = dict(BUILTIN_CONFIGS["example-r3"])
    config["points"] = {"list": [[1.0, 2.0, 3.0], [1.0, "nan", 3.0]]}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    assert run_cli("christoffel", "--config", str(path)) == 2
    assert "coordinate v = nan is not finite" in capsys.readouterr().err


def test_tiny_log_argument_is_not_an_overflow(tmp_path, capsys):
    # the connection is jetted to order 1, so 1/u^3 (which overflows here)
    # is never formed
    config = {
        "chart": ["u", "v"],
        "space": {"connection": {"1,1,1": "ln(u)"}},
        "points": {"list": [[1.0, 1.0]]},
    }
    path = tmp_path / "log.json"
    path.write_text(json.dumps(config))
    assert run_cli("christoffel", "--config", str(path), "--point", "1e-105,1") == 0
    assert "(1,1,1) = " in capsys.readouterr().out


def test_overflowing_metric_jet_is_a_math_error(tmp_path, capsys):
    # the metric is jetted to order 2; 1/u^2 overflows to inf at u = 1e-160
    config = {
        "chart": ["u", "v"],
        "space": {"metric": [["1 + ln(u)^2", "0"], ["0", "1"]]},
        "points": {"list": [[1.0, 1.0]]},
    }
    path = tmp_path / "log.json"
    path.write_text(json.dumps(config))
    assert run_cli("curvature", "--config", str(path), "--point", "1e-160,1") == 2
    # no numpy overflow warning ahead of the error line
    assert capsys.readouterr().err.splitlines() == [
        "math error: non-finite value or derivative in subexpression '1.0 + ln(u)^2.0'"
    ]


def test_overflowing_field_value_is_a_math_error(tmp_path, capsys):
    # u*u*u overflows to inf at u = 1e120; a float product does not raise
    omega = {"s": [1, 1, 1], "rho": ["u*u*u", "0"]}
    config = {
        "chart": ["u", "v"],
        "space": {"connection": {}},
        "omega": omega,
        "omega_bar": omega,
        "points": {"list": [[1.0, 1.0]]},
    }
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(config))
    assert run_cli("invariants", "--config", str(path), "--point", "1e120,1") == 2
    out, err = capsys.readouterr()
    assert err.startswith("math error: non-finite") and "'u*u*u'" in err
    assert "inf" not in out and "nan" not in out


def test_small_scale_metric_is_accepted(capsys):
    # diag(u^2, v^2, w^2) at 1e-3 has det 1e-18 but condition number 1
    assert run_cli("christoffel", "--config", "example-r3", "--point", "1e-3,1e-3,1e-3") == 0
    assert "(1,1,1) = 1000.0" in capsys.readouterr().out


def test_rank_deficient_metric_exit_code_2(tmp_path, capsys):
    config = {
        "chart": ["u", "v", "w"],
        "space": {"metric": [["u^2", "u*v", "0"], ["u*v", "v^2", "0"], ["0", "0", "1"]]},
        "points": {"list": [[1.0, 2.0, 3.0]]},
    }
    path = tmp_path / "rank2.json"
    path.write_text(json.dumps(config))
    assert run_cli("christoffel", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("math error: metric is singular") and "condition number" in err


def test_point_dimension_checked(capsys):
    assert run_cli("thomas", "--config", "example-r3", "--point", "1,2") == 1


def test_csv_and_json_outputs_identical_values(tmp_path):
    assert (
        run_cli(
            "weyl", "--config", "sphere2", "--point", "1.1,0.7", "--out", str(tmp_path)
        )
        == 0
    )
    csv_lines = (tmp_path / "weyl.csv").read_text().strip().splitlines()
    header = csv_lines[0].split(",")
    payload = json.loads((tmp_path / "weyl.json").read_text())
    data = np.array(payload["points"][0]["data"])
    assert payload["points"][0]["point"] == [1.1, 0.7]
    for line in csv_lines[1:]:
        cells = line.split(",")
        point = [float(c) for c in cells[:2]]
        index = tuple(int(c) - 1 for c in cells[2:-1])
        value = float(cells[-1])
        assert value == data[index]  # bit-identical through repr round-trip


def test_table_commands_evaluate_each_point_once(tmp_path, monkeypatch):
    # text, CSV and JSON come from one evaluation per (object, point), so the
    # metric provider runs once per point
    evaluated = Counter()
    tensor_objects = cli._tensor_objects

    def counting_objects(args, job, command):
        def counted(name, evaluate):
            def wrapper(point):
                evaluated[(name, tuple(point))] += 1
                return evaluate(point)

            return wrapper

        return [(name, var, counted(name, ev)) for name, var, ev in tensor_objects(args, job, command)]

    provided = Counter()
    metric_jets = geometry._MetricConnection.jets

    def counting_metric(self, point):
        provided[tuple(point)] += 1
        return metric_jets(self, point)

    monkeypatch.setattr(cli, "_tensor_objects", counting_objects)
    monkeypatch.setattr(geometry._MetricConnection, "jets", counting_metric)
    config = dict(BUILTIN_CONFIGS["example-r3"])
    config["points"] = {"list": [[1.0, 2.0, 3.0], [1.5, 1.25, 2.0], [2.0, 1.0, 1.5]]}
    path = tmp_path / "three.json"
    path.write_text(json.dumps(config))
    for fmt in ("text", "csv", "json"):
        evaluated.clear()
        provided.clear()
        out = str(tmp_path / fmt)
        assert run_cli("curvature", "--config", str(path), "--format", fmt, "--out", out) == 0
        assert len(evaluated) == 3 and set(evaluated.values()) == {1}
        assert len(provided) == 3 and set(provided.values()) == {1}


def test_ricci_emits_antisymmetric_part(tmp_path):
    assert run_cli("ricci", "--config", "sphere2", "--point", "1.0,2.0", "--out", str(tmp_path)) == 0
    assert (tmp_path / "ricci.csv").exists()
    assert (tmp_path / "ricci_antisymmetric.csv").exists()


def test_ricci_convention_flag(tmp_path, capsys):
    assert run_cli("ricci", "--config", "sphere2", "--point", "1.0,2.0", "--format", "json") == 0
    last = json.loads(capsys.readouterr().out.split("\n{", 1)[0])
    assert run_cli(
        "ricci",
        "--config",
        "sphere2",
        "--point",
        "1.0,2.0",
        "--format",
        "json",
        "--ricci-convention",
        "middle",
    ) == 0
    # both runs print two JSON documents (ricci + antisymmetric part)
    # just check the command accepted the flag and produced output
    assert "ricci" in json.dumps(last)


def test_invariants_command(tmp_path):
    assert run_cli("invariants", "--config", "geodesic-demo", "--point", "1,2,3", "--out", str(tmp_path)) == 0
    for name in ("basic_thomas", "zeta", "dee", "basic_weyl", "derived_thomas", "derived_weyl"):
        assert (tmp_path / f"{name}.csv").exists()


def test_invariants_requires_omega(capsys):
    assert run_cli("invariants", "--config", "flat3", "--point", "1,2,3") == 1


def test_verify_requires_a_mapping(capsys):
    assert run_cli("verify", "--config", "flat3") == 1


def test_points_seed_changes_sampled_points(tmp_path):
    for seed, name in ((3, "a"), (4, "b")):
        assert run_cli(
            "christoffel", "--config", "flat3", "--points-seed", str(seed),
            "--out", str(tmp_path / name),
        ) == 0
    a = json.loads((tmp_path / "a" / "christoffel.json").read_text())
    b = json.loads((tmp_path / "b" / "christoffel.json").read_text())
    assert a["points"][0]["point"] != b["points"][0]["point"]


def test_example_r3_command_emits_config(tmp_path, capsys):
    assert run_cli("example-r3", "--out", str(tmp_path)) == 0
    emitted = json.loads((tmp_path / "example-r3.json").read_text())
    reloaded = JobConfig.from_dict(emitted)
    assert reloaded.chart.names == ("u", "v", "w")
    assert reloaded.fplanar is not None


def test_audit_paper_command(tmp_path, capsys):
    assert run_cli("audit-paper", "--out", str(tmp_path)) == 0
    findings = json.loads((tmp_path / "audit-findings.json").read_text())
    ids = {f["id"] for f in findings}
    assert "christoffel-example-table" in ids
    assert "basic-weyl-direct-vs-structured" in ids
    assert "theorem2-general-omega" in ids


def test_verify_with_file_config(tmp_path):
    config = dict(BUILTIN_CONFIGS["geodesic-demo"])
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    assert run_cli("verify", "--config", str(path)) == 0


def test_verify_invariant_selection(tmp_path):
    # restricting fplanar-demo to its passing rows flips the exit code to 0
    config = dict(BUILTIN_CONFIGS["fplanar-demo"])
    config["invariants"] = ["basic_thomas", "basic_weyl_direct", "fplanar_thomas"]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_cli("verify", "--config", str(path), "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert [row["name"] for row in report["invariants"]] == config["invariants"]


# --- config round trips ---------------------------------------------------------

def test_config_normalization_round_trip():
    for name in BUILTIN_CONFIGS:
        job = builtin_config(name)
        normalized = job.to_dict()
        again = JobConfig.from_dict(normalized)
        assert again.to_dict() == normalized


def test_config_requires_exactly_one_space():
    with pytest.raises(ConfigError, match="exactly one"):
        JobConfig.from_dict({"chart": ["u", "v"], "space": {}})
    with pytest.raises(ConfigError, match="exactly one"):
        JobConfig.from_dict(
            {"chart": ["u", "v"], "space": {"metric": [["1", "0"], ["0", "1"]], "connection": {}}}
        )


def test_config_rejects_mismatched_omega_pair():
    base = {
        "chart": ["u", "v", "w"],
        "space": {"connection": {}},
        "omega": {"s": [1, 0, 0]},
        "omega_bar": {"s": [0.5, 0, 0]},
    }
    with pytest.raises(ConfigError, match="share"):
        JobConfig.from_dict(base)


def test_config_rejects_omega_and_fplanar_together():
    base = {
        "chart": ["u", "v", "w"],
        "space": {"connection": {}},
        "omega": {"s": [1, 0, 0]},
        "omega_bar": {"s": [1, 0, 0]},
        "fplanar": {"psi": ["0", "0", "0"]},
    }
    with pytest.raises(ConfigError, match="not both"):
        JobConfig.from_dict(base)


def test_config_sparse_connection_keys_validated():
    base = {"chart": ["u", "v", "w"], "space": {"connection": {"4,1,1": "u"}}}
    with pytest.raises(ConfigError, match="out of range"):
        JobConfig.from_dict(base)


def test_config_expression_errors_are_config_errors():
    base = {"chart": ["u", "v", "w"], "space": {"metric": [["q", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}}
    with pytest.raises(ConfigError, match="unknown identifier"):
        JobConfig.from_dict(base)


def test_config_points_required():
    job = JobConfig.from_dict({"chart": ["u", "v"], "space": {"connection": {}}})
    with pytest.raises(ConfigError, match="no points"):
        job.points()


def test_config_rejects_asymmetric_sigma2():
    base = {
        "chart": ["u", "v", "w"],
        "space": {"connection": {}},
        "omega": {
            "s": [0.0, 0.0, 1.0],
            "sigma2": [["0", "u", "0"], ["0", "0", "0"], ["0", "0", "0"]],
        },
        "omega_bar": {"s": [0.0, 0.0, 1.0]},
        "points": {"list": [[1.0, 2.0, 3.0]]},
    }
    with pytest.raises(ConfigError, match="symmetric"):
        JobConfig.from_dict(base)
