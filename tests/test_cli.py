import contextlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tensor_invariants import cli, geometry, tensor
from tensor_invariants.cli import main
from tensor_invariants.configs import BUILTIN_CONFIGS, ConfigError, JobConfig, builtin_config
from tensor_invariants.invariants import reduced_space
from tensor_invariants.mappings import sample_points


ROOT = Path(__file__).resolve().parents[1]


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


def test_report_file_is_written_a_row_at_a_time(tmp_path, monkeypatch, capsys):
    # the CLI writes report.json from the report's pieces, one per row: the
    # file holds the text of to_json, which equals json.dumps(to_dict())
    real, reports = cli.verify_invariance, []

    def verify(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "verify_invariance", verify)
    assert run_cli("verify", "--config", "fplanar-demo", "--out", str(tmp_path)) == 3
    (report,) = reports
    assert len(list(report.json_pieces())) == len(report.rows) + 2
    text = (tmp_path / "report.json").read_text()
    assert text == report.to_json() == json.dumps(report.to_dict(), indent=2)


def test_bad_config_exit_code_1(capsys):
    assert run_cli("thomas", "--config", "no-such-config") == 1
    assert run_cli("thomas") == 1
    assert run_cli("frobnicate", "--config", "flat3") == 1


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_bad_tolerance_is_a_config_error(tol, tmp_path, capsys):
    # NaN or a negative tolerance would fail every row, inf pass every one
    assert run_cli("verify", "--config", "geodesic-demo", f"--tol={tol}") == 1
    assert capsys.readouterr().err == (
        f"config error: tolerance must be a finite non-negative number, not {tol!r}\n"
    )
    raw = builtin_config("geodesic-demo").to_dict()
    raw["tol"] = float(tol)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(raw))  # NaN and Infinity, as json.loads reads them
    assert run_cli("verify", "--config", str(path)) == 1
    assert capsys.readouterr().err == (
        f"config error: tolerance must be a finite non-negative number, not {float(tol)!r}\n"
    )


def test_a_zero_tolerance_is_reported_as_positive_zero(tmp_path, capsys):
    # "-0" passes the range check, and a tolerance of -0.0 printed as
    # "tolerance -0" and went into report.json as -0.0
    argv = ("verify", "--config", "geodesic-demo", "--tol", "-0", "--out", str(tmp_path))
    assert run_cli(*argv) == 3
    assert capsys.readouterr().out.splitlines()[-1] == "tolerance 0; overall FAIL"
    text = (tmp_path / "report.json").read_text()
    assert '\n  "tol": 0.0,\n' in text
    assert math.copysign(1.0, json.loads(text)["tol"]) == 1.0
    raw = builtin_config("geodesic-demo").to_dict()
    raw["tol"] = -0.0
    assert math.copysign(1.0, JobConfig.from_dict(raw).tol) == 1.0


# s1 = 0 and a rho with no value at the points: no row reads rho
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


def test_a_zero_s1_reads_no_rho(tmp_path, capsys):
    # Lambda = L - omega was Lambda' - 0 * (d rho + rho d), so basic_thomas
    # and basic_weyl_direct read rho, and verify exited 2 on ln(u - 5)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(ZERO_S1))
    assert run_cli("verify", "--config", str(path)) == 3
    out = capsys.readouterr()
    assert out.err == ""
    assert re.search(r"^basic_thomas +0\.000e\+00  PASS$", out.out, re.M)
    job = JobConfig.from_dict(ZERO_S1)
    space = job.build_space()
    for spec in (job.omega, job.omega_bar):
        assert reduced_space(space, spec).key == reduced_space(space, spec, rho=False).key


@pytest.mark.parametrize("command", ["verify", "thomas", "audit-paper"])
@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_bad_points_seed_flag_is_a_config_error(command, seed, capsys):
    # numpy takes no negative seed; the flag used to exit 2 as a math error
    assert run_cli(command, "--config", "geodesic-demo", f"--points-seed={seed}") == 1
    assert capsys.readouterr().err == (
        f"config error: points seed must be a non-negative integer, not {seed!r}\n"
    )


@pytest.mark.parametrize(
    "key, value, kind",
    [
        ("seed", -1, "non-negative"),
        ("seed", 1.5, "non-negative"),
        ("seed", True, "non-negative"),
        ("count", 2.5, "positive"),
        ("count", 4.0, "positive"),
        ("count", -2, "positive"),
        ("count", 0, "positive"),
    ],
)
def test_bad_points_seed_or_count_in_a_config(key, value, kind, tmp_path, capsys):
    # a fraction used to be truncated, a negative count to read as no points
    raw = builtin_config("geodesic-demo").to_dict()
    raw["points"][key] = value
    path = tmp_path / "job.json"
    path.write_text(json.dumps(raw))
    assert run_cli("verify", "--config", str(path)) == 1
    assert capsys.readouterr().err == (
        f"config error: points {key} must be a {kind} integer, not {value!r}\n"
    )


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


@pytest.mark.parametrize(
    "form", ["sin({})", "cos({})", "exp({})", "ln({})", "sqrt({})", "({})^1.5", "({})^(-2)"]
)
@pytest.mark.parametrize(
    "argument, u",
    [
        ("u", "0"),
        ("u", "-2.5"),
        ("u", "709.9"),
        ("u", "710"),
        ("u*u", "1e200"),  # the product overflows to inf
        ("u*u - u*u", "1e200"),  # inf - inf is NaN
    ],
)
def test_scalar_maps_at_edge_arguments_exit_cleanly(form, argument, u, tmp_path, capsys):
    # every map at every edge argument either evaluates or is a math error
    # naming a subexpression: never a traceback, never a bare math message
    config = {
        "chart": ["u", "v"],
        "space": {"connection": {"1,1,1": form.format(argument)}},
        "points": {"list": [[1.0, 1.0]]},
    }
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(config))
    code = run_cli("christoffel", "--config", str(path), f"--point={u},1")
    err = capsys.readouterr().err
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("math error:") and " in subexpression '" in err, err


@pytest.mark.parametrize(
    "entry, point, reason",
    [
        ("u^10^400", "2,1", "chained exponent is not a finite real number (at position 4)"),
        ("u^1e999", "-2,1", "number 1e999 is not finite (at position 2)"),
    ],
)
def test_non_finite_number_in_a_config_is_a_config_error(entry, point, reason, tmp_path, capsys):
    # the fold 10^400 overflows and 1e999 reads as inf: each is rejected where
    # it is written, as a config error naming the position, not a traceback
    config = {"chart": ["u", "v"], "space": {"connection": {"1,1,1": entry}}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(config))
    assert run_cli("christoffel", "--config", str(path), f"--point={point}") == 1
    assert capsys.readouterr().err == f"config error: connection: {reason}\n"


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_texts_are_formatted_once_for_files_and_stdout(fmt, tmp_path, monkeypatch, capsys):
    calls = Counter()

    def counting(name):
        real = getattr(cli, name)

        def format_text(*args):
            calls[name] += 1
            return real(*args)

        return format_text

    for name in ("_csv_text", "_json_text"):
        monkeypatch.setattr(cli, name, counting(name))
    argv = ("ricci", "--config", "sphere2", "--point", "1.1,0.7", "--format", fmt)
    assert run_cli(*argv, "--out", str(tmp_path)) == 0
    # two objects, each with a CSV and a JSON file; stdout reuses the file's text
    assert calls == {"_csv_text": 2, "_json_text": 2}
    end = "" if fmt == "csv" else "\n"
    files = [(tmp_path / f"{name}.{fmt}").read_text() for name in ("ricci", "ricci_antisymmetric")]
    assert capsys.readouterr().out == "".join(text + end for text in files)


def test_table_commands_evaluate_each_point_once(tmp_path, monkeypatch):
    # text, CSV and JSON come from one evaluation per (object, block), every
    # object on a block before the next block, so the metric provider runs
    # once per block; blocks of two points cut the three points in two
    evaluated = Counter()

    def counting(make_objects):
        def counting_objects(*args):
            def counted(name, evaluate):
                def wrapper(batch):
                    evaluated[(name, tuple(batch))] += 1
                    return evaluate(batch)

                return wrapper

            return [(name, var, counted(name, ev)) for name, var, ev in make_objects(*args)]

        return counting_objects

    provided = Counter()
    metric_jets = geometry._MetricConnection.jets

    def counting_metric(self, point):
        provided[tuple(point)] += 1
        return metric_jets(self, point)

    monkeypatch.setattr(cli, "_tensor_objects", counting(cli._tensor_objects))
    monkeypatch.setattr(cli, "_invariant_objects", counting(cli._invariant_objects))
    monkeypatch.setattr(geometry._MetricConnection, "jets", counting_metric)
    monkeypatch.setattr(tensor, "block_size", lambda dim: 2)
    listed = [[1.0, 2.0, 3.0], [1.5, 1.25, 2.0], [2.0, 1.0, 1.5]]
    blocks = {tuple(listed[0] + listed[1]), tuple(listed[2])}
    paths = {}
    for name in ("example-r3", "geodesic-demo"):
        config = dict(BUILTIN_CONFIGS[name])
        config["points"] = {"list": listed}
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(config))
    # command, config, objects
    cases = [
        ("curvature", "example-r3", 1),
        ("ricci", "example-r3", 2),
        ("invariants", "geodesic-demo", 7),
    ]
    for command, name, count in cases:
        for fmt in ("text", "csv", "json"):
            evaluated.clear()
            provided.clear()
            out = str(tmp_path / f"{command}-{fmt}")
            argv = ("--config", str(paths[name]), "--format", fmt, "--out", out)
            assert run_cli(command, *argv) == 0
            assert len(evaluated) == 2 * count and set(evaluated.values()) == {1}, command
            assert {batch for _, batch in evaluated} == blocks, command
            assert set(provided) == blocks and set(provided.values()) == {1}, command


_TABLE_COMMANDS = ("christoffel", "curvature", "ricci", "thomas", "weyl", "invariants")


def _cli_output(capsys, *argv):
    code = run_cli(*argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("entry, bad", [("2+ln(w-1.3)", 1.2), ("w-1.5", 1.5)])
@pytest.mark.parametrize("command", _TABLE_COMMANDS)
def test_a_failing_table_names_the_point_alone_would(command, entry, bad, tmp_path, capsys):
    # a table over listed points, of which the third fails (ln of a negative
    # value, a singular metric), says what --point says at that point alone;
    # the fourth fails too, in an earlier entry, which a whole block's run
    # would name first
    config = dict(BUILTIN_CONFIGS["geodesic-demo"])
    metric = [["2+ln(u-1.15)", "0", "0"], ["0", "v^2", "0"], ["0", "0", entry]]
    config["space"] = {"metric": metric}
    listed = [[1.2, 1.3, 1.9], [1.4, 1.1, 1.7], [1.3, 1.2, bad], [1.1, 1.6, 1.9]]
    config["points"] = {"list": listed}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = _cli_output(capsys, command, "--config", str(path))
    alone = _cli_output(capsys, command, "--config", str(path), "--point", "1.3,1.2," + str(bad))
    assert code == 2 and out == "" and err.startswith("math error: ")
    assert (code, out, err) == alone


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("command", _TABLE_COMMANDS)
def test_a_table_over_points_is_its_one_point_runs_joined(command, fmt, tmp_path, capsys):
    # each point's rows are those of a run at that point alone: each object's
    # table is its opening line (text '# name', the CSV header, the JSON
    # head) and then every one-point run's rows for it in turn
    points = sample_points([[1.0, 2.0]] * 3, 5, seed=3)
    config = dict(BUILTIN_CONFIGS["geodesic-demo"])
    config["points"] = {"list": [list(map(float, p)) for p in points]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = (command, "--config", str(path), "--format", fmt)
    code, out, err = _cli_output(capsys, *argv)
    assert (code, err) == (0, "")
    alone = []
    for point in points:
        text = ",".join(repr(float(x)) for x in point)
        one = _cli_output(capsys, *argv, "--point", text)
        assert one[0] == 0
        alone.append(one[1])
    if fmt == "json":
        tables = _joined_json(alone)
        assert out == "".join(json.dumps(table, indent=2) + "\n" for table in tables)
    else:
        start = "# " if fmt == "text" else "u,v,w,"  # the line that opens a table
        assert _tables(out, start) == _joined_tables(alone, start)
        assert out.endswith("\n")


def _element_tables(name, payload, names) -> tuple:
    """The text and CSV tables of one object's JSON table, formatted one
    element at a time: the tables' reference format."""
    text, csv, last = [f"# {name}"], [], None
    for entry in payload["points"]:
        point, data = tuple(entry["point"]), np.array(entry["data"])
        if not csv:
            csv.append(",".join(names + [f"i{k + 1}" for k in range(data.ndim)] + ["value"]))
        if point != last:
            text.append("at (" + ", ".join(f"{c:.6g}" for c in point) + "):")
            last = point
        for index in np.ndindex(*data.shape):
            label = ",".join(str(i + 1) for i in index)
            value = float(data[index])
            text.append(f"  ({label}) = {value!r}")
            csv.append(",".join([repr(c) for c in point] + [label, repr(value)]))
    return "\n".join(text) + "\n", "\n".join(csv) + "\n"


@pytest.mark.parametrize("command", _TABLE_COMMANDS)
def test_tables_are_formatted_element_by_element(command, tmp_path, capsys):
    # the text and CSV tables, each point formatted from its values at once,
    # are the element-by-element format of the JSON table's values; a point
    # repeated next to itself is listed under one "at" line in the text
    points = [[1.25, 1.5, 1.75], [1.25, 1.5, 1.75], [1.0, 2.0, 1.5], [1.125, 1.75, 1.0]]
    config = dict(BUILTIN_CONFIGS["geodesic-demo"])
    config["points"] = {"list": points}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outputs = {}
    for fmt in ("text", "csv"):
        code, outputs[fmt], err = _cli_output(
            capsys, command, "--config", str(path), "--format", fmt, "--out", str(tmp_path / fmt)
        )
        assert (code, err) == (0, "")
    names = [line[2:] for line in outputs["text"].splitlines() if line.startswith("# ")]
    expected = {"text": "", "csv": ""}
    for name in names:
        payload = json.loads((tmp_path / "text" / f"{name}.json").read_text())
        text, csv = _element_tables(name, payload, ["u", "v", "w"])
        assert (tmp_path / "text" / f"{name}.csv").read_text() == csv
        expected["text"] += text
        expected["csv"] += csv
    assert outputs == expected
    assert outputs["text"].count("at (1.25, 1.5, 1.75):") == len(names)


def _tables(text, start) -> list:
    """The lines of each table in `text`, a table opened by a line that
    begins with `start`."""
    tables = []
    for line in text.splitlines():
        if line.startswith(start):
            tables.append([])
        tables[-1].append(line)
    return tables


def _joined_tables(runs, start) -> list:
    """Per object, its opening line and every run's rows for it in turn."""
    per_run = [_tables(run, start) for run in runs]
    return [tables[0][:1] + [row for t in tables for row in t[1:]] for tables in zip(*per_run)]


def _json_objects(text) -> list:
    """The JSON documents of `text`, one per line break after each."""
    decoder, out, at = json.JSONDecoder(), [], 0
    while at < len(text):
        value, at = decoder.raw_decode(text, at)
        out.append(value)
        at += 1
    return out


def _joined_json(runs) -> list:
    """Per object, the first run's table with every run's points in turn."""
    per_run = [_json_objects(run) for run in runs]
    joined = []
    for tables in zip(*per_run):
        table = dict(tables[0])
        table["points"] = [entry for t in tables for entry in t["points"]]
        joined.append(table)
    return joined


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


def test_config_with_negative_zero_exponents_round_trips():
    # u^(-0) normalises to u^(-0.0), which loads again (u^-0.0 did not)
    omega = {"s": [1, 0, 0], "rho": ["v", "u"]}
    raw = {
        "chart": ["u", "v"],
        "space": {"connection": {}},
        "omega": omega,
        "omega_bar": dict(omega, rho=["u^(-0)", "2^(-0)*v"]),
        "points": {"list": [[1.0, 1.0]]},
    }
    normalized = json.loads(JobConfig.from_dict(raw).to_json())
    assert normalized["omega_bar"]["rho"] == ["u^(-0.0)", "2.0^(-0.0)*v"]
    assert JobConfig.from_dict(normalized).to_dict() == normalized


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


def test_config_accepts_a_large_sigma2_whose_mirror_entries_differ_by_rounding():
    # the mirror entries differ by 1.2e-10 here, far below 1e-12 of the
    # largest entry (about 8e5)
    sigma2 = [["u", "(u/3+v/7)*1e6"], ["u*1e6/3+v*1e6/7", "v"]]
    job = JobConfig.from_dict(
        {
            "chart": ["u", "v"],
            "space": {"connection": {}},
            "omega": {"s": [0.0, 0.0, 1.0], "sigma2": sigma2},
            "omega_bar": {"s": [0.0, 0.0, 1.0]},
            "points": {"list": [[1.755118106560127, 1.4851271756896405]]},
        }
    )
    assert job.omega.sigma2.shape == (2, 2)


@pytest.mark.parametrize(
    "argv, code",
    [(["example-r3"], 0), (["verify", "--config", "fplanar-demo"], 3)],
)
def test_closed_stdout_keeps_the_exit_code(argv, code):
    # a reader that has gone before the first write, as with `| head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "tensor_invariants.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
    finally:
        os.close(write_end)
    assert done.returncode == code
    assert done.stderr == ""


def test_the_output_compare_script_digests_a_command_alike_in_any_directory(tmp_path):
    # tests/compare_cli_outputs.py, which byte-compares two source trees:
    # one line per command, the same in any output directory, and a digest
    # that covers every file the command wrote under --out
    script = ROOT / "tests" / "compare_cli_outputs.py"
    lines = []
    for where in ("a", "bb"):
        done = subprocess.run(
            [sys.executable, str(script), str(ROOT / "src"), str(tmp_path / where), "example-r3"],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        assert done.returncode == 0 and done.stderr == ""
        lines.append(done.stdout)
    assert lines[0] == lines[1]
    name, _, code, digest = lines[0].split()
    assert (name, code, len(digest)) == ("example-r3", "0", 64)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "bb"]
    work = tmp_path / "a" / "example-r3"
    written = work / "out" / "example-r3.json"
    assert written.read_text() == builtin_config("example-r3").to_json() + "\n"
    spec = importlib.util.spec_from_file_location("compare_cli_outputs", script)
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    streams = [(work / stream).read_bytes() for stream in ("stdout", "stderr")]
    assert compare._digest(0, *streams, work / "out") == digest
    written.write_text(written.read_text() + " ")
    assert compare._digest(0, *streams, work / "out") != digest


# --- malformed configs -------------------------------------------------------

@pytest.mark.parametrize(
    "key, value, message",
    [
        (("chart",), 5, "'chart' list of coordinate names"),
        (("chart",), ["u", 5, "w"], "'chart' list of coordinate names"),
        (("space",), {"metric": 5}, "metric must be nested lists of expression strings"),
        (("space", "metric"), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "metric must be nested lists"),
        (("space",), {"connection": {"1,1,1": 5}}, "connection entry '1,1,1' must be"),
        (("omega", "s"), 5, "omega needs s = [s1, s2, s3]"),
        (("omega", "s"), ["a", 1, 0], "omega.s must hold numbers, not 'a'"),
        (("points",), {"box": 5}, "box must list one [lo, hi] pair per coordinate"),
        (("points",), {"list": [1, 2]}, "points.list must be a list of points"),
        (("points",), {"list": [["a", 1, 2]]}, "points.list must hold numbers, not 'a'"),
        (("points", "box"), [["a", 1], [1, 2], [1, 2]], "points.box must hold numbers, not 'a'"),
        (("invariants",), [["x"]], "invariants must be a non-empty list of names"),
        (("invariants",), [], "invariants must be a non-empty list of names"),
        (("invariants",), ["nope"], "unknown invariants: ['nope']"),
    ],
)
def test_a_malformed_config_is_a_config_error(key, value, message, tmp_path, capsys):
    # each used to end in a traceback, or in a math error (exit 2), or, for
    # an empty invariant list, in an overall PASS with no rows
    config = json.loads(json.dumps(BUILTIN_CONFIGS["geodesic-demo"]))
    parent = config
    for part in key[:-1]:
        parent = parent[part]
    parent[key[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli("verify", "--config", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: ")
    assert message in captured.err


def test_a_malformed_fplanar_block_is_a_config_error(tmp_path, capsys):
    config = dict(BUILTIN_CONFIGS["fplanar-demo"], fplanar={"F": 5})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli("verify", "--config", str(path)) == 1
    assert capsys.readouterr().err == (
        "config error: fplanar.F must be nested lists of expression strings\n"
    )


def test_an_infinite_box_bound_names_the_coordinate(tmp_path, capsys):
    config = dict(BUILTIN_CONFIGS["geodesic-demo"])
    config["points"] = {"box": [[1.0, "inf"], [1.0, 2.0], [1.0, 2.0]], "count": 2}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli("verify", "--config", str(path)) == 2
    assert capsys.readouterr().err == "math error: coordinate u = inf is not finite\n"


# a config's keys, one level deep, each one the property below may replace
_CONFIG_KEYS = [
    (name, (key,) + ((sub,) if sub else ()))
    for name in ("geodesic-demo", "fplanar-demo", "sphere2", "flat3")
    for key, value in BUILTIN_CONFIGS[name].items()
    for sub in [None] + (list(value) if isinstance(value, dict) else [])
] + [("geodesic-demo", ("invariants",)), ("geodesic-demo", ("omega", "sigma2"))]

_SMALL_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 24)  # a count of at most 24 points
    | st.floats(-3.0, 3.0)
    | st.sampled_from(["0", "u", "v*w", "ln(u)", "x", "nan", "inf", "1,1,1", "classical_weyl"])
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["list", "box", "seed", "count", "metric", "connection", "s", "F"])
        | st.text(max_size=3),
        inner,
        max_size=3,
    ),
    max_leaves=10,
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    where=st.sampled_from(_CONFIG_KEYS),
    value=_SMALL_JSON,
    command=st.sampled_from(["verify", "christoffel", "invariants"]),
)
def test_any_small_json_in_a_config_gives_an_exit_code(where, value, command, tmp_path):
    # one key of a built-in config replaced by an arbitrary small JSON
    # value: the CLI ends with an exit code, never with a traceback
    name, key = where
    config = json.loads(json.dumps(BUILTIN_CONFIGS[name]))
    parent = config
    for part in key[:-1]:
        parent = parent[part]
    parent[key[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(command, "--config", str(path))
    assert type(code) is int and 0 <= code <= 3
