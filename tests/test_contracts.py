"""Guards on the package's surface: its exports, and the hooks the traced
benchmark (bench/tracing.py) wraps."""

import importlib
import importlib.util
import json
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest

from tensor_invariants import cli, mappings
from tensor_invariants.configs import builtin_config
from tensor_invariants.expr import Chart
from tensor_invariants.geometry import RICCI_LAST
from tensor_invariants.mappings import FPlanarSpec, MappingSpec
from tensor_invariants.sampling import random_mapping, random_metric_space
from tensor_invariants.tensor import PointBatch

ROOT = Path(__file__).resolve().parents[1]
MODULES = [
    "tensor_invariants",
    "tensor_invariants.audit",
    "tensor_invariants.cli",
    "tensor_invariants.configs",
    "tensor_invariants.deformation",
    "tensor_invariants.expr",
    "tensor_invariants.geometry",
    "tensor_invariants.invariants",
    "tensor_invariants.jets",
    "tensor_invariants.mappings",
    "tensor_invariants.sampling",
    "tensor_invariants.tensor",
]
# spans that only the audit reaches
AUDIT_ONLY_SPANS = {"audit.run", "sampling.random_space"}

# runs the CLI arguments given as JSON under the benchmark's tracer
TRACED_CLI = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracing import SPANS, Tracer
import tensor_invariants.cli as cli

tracer = Tracer("contract")
tracer.install()
code = cli.main(json.loads(sys.argv[3]))
print(json.dumps({"code": code, "spans": SPANS, "counts": tracer.layer_counts()}))
"""


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ names missing objects: {missing}"


def _traced(*argv) -> dict:
    """The exit code, span kinds and layer counts of a traced CLI run."""
    script = [sys.executable, "-c", TRACED_CLI, str(ROOT / "bench"), str(ROOT / "src")]
    done = subprocess.run(
        script + [json.dumps(argv)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_traced_verify_reaches_every_verify_span():
    # a refactor that moves a function the tracer wraps makes install()
    # raise or leaves its span empty
    result = _traced("verify", "--config", "fplanar-demo", "--point", "1.25,1.5,1.75")
    assert result["code"] == 3  # the printed Weyl-type reductions fail
    counts = result["counts"]
    empty = [
        name
        for name, kind in result["spans"].items()
        if name not in AUDIT_ONLY_SPANS and counts.get(f"{name}.{kind}", 0) < 1
    ]
    assert not empty, f"verify-path spans with no call: {empty}"
    # one point is one block: each space's curvature, Ricci and Weyl tensor is
    # computed once, whichever rows read it (source, target and L - omega in
    # each for the curvature)
    shared = [counts[f"geometry.{name}.calls"] for name in ("curvature", "ricci", "weyl")]
    assert shared == [4, 2, 2]
    # einsum forms traces only (Kronecker-delta products and contractions go
    # through tensor), and the F-planar rho, which takes two traces of the
    # source connection, is computed once for its four readers
    assert counts["numpy.einsum.calls"] == 18


def test_traced_verifies_of_one_config_count_alike(tmp_path):
    # the benchmark fails a traced verify job whose counts differ from its
    # first job's; 250 points at N = 3 are three blocks of 101, 101 and 48
    config = json.loads(builtin_config("fplanar-demo").to_json())
    config["points"]["count"] = 250
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    first, again = (_traced("verify", "--config", str(path)) for _ in range(2))
    assert first["code"] == again["code"] == 3
    assert first["counts"]["geometry.provider.calls"] == 3  # one metric run per block
    assert again["counts"] == first["counts"]


@pytest.fixture(scope="module")
def traced_audit(tmp_path_factory):
    out = tmp_path_factory.mktemp("audit")
    return _traced("audit-paper", "--points-seed", "7", "--out", str(out))


def test_traced_audit_reaches_every_audit_span(traced_audit):
    # the tracer wraps what the audit module imports, so a change to those
    # imports must keep install() working; the benchmark requires a call of
    # every span of audit-paper, the Theorem 2 finding's verify among them
    result = traced_audit
    assert result["code"] == 0
    counts = result["counts"]
    spans = result["spans"].items()
    empty = [name for name, kind in spans if counts.get(f"{name}.{kind}", 0) < 1]
    assert not empty, f"audit spans with no call: {empty}"
    # the omega-square finding contracts all of its 50 draws in one einsum,
    # the correlation finding takes each of its 7 traces (2 Ricci, 2 Thomas,
    # 3 of D) once for its 10 draws, not once per draw (145 before), and the
    # Theorem 2 finding asks verify for its six rows only (52 with all ten)
    assert counts["numpy.einsum.calls"] == 48
    assert counts["mappings.rows"] == 36


def test_traced_audits_at_one_seed_count_alike(traced_audit, tmp_path):
    # the benchmark fails a traced run whose counts differ between its jobs
    again = _traced("audit-paper", "--points-seed", "7", "--out", str(tmp_path))
    assert again["counts"] == traced_audit["counts"]


def _bench_workloads():
    """bench/workloads.py, loaded from its file without touching bench/."""
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed, distinct", [(7, 1863), (11, 1848)])
def test_bench_report_json_formats_each_distinct_discrepancy_once(
    seed, distinct, tmp_path, monkeypatch
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_bench_workloads().fplanar_demo_config(seed)))
    reports, formatted = [], []
    verify, distinct_texts = cli.verify_invariance, mappings._distinct_texts

    def kept(*args, **kwargs):
        reports.append(verify(*args, **kwargs))
        return reports[-1]

    def counted(values):
        texts, index = distinct_texts(values)
        formatted.append((len(texts), len(index)))
        return texts, index

    monkeypatch.setattr(cli, "verify_invariance", kept)
    monkeypatch.setattr(mappings, "_distinct_texts", counted)
    assert cli.main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 3
    (report,) = reports
    assert (tmp_path / "report.json").read_text() == json.dumps(report.to_dict(), indent=2)
    discs = [d for row in report.rows for _, d in row.discrepancies]
    patterns = len(set(np.array(discs).view(np.int64).tolist()))
    assert formatted == [(patterns, len(discs))]  # one call, one text per bit pattern
    assert (patterns, len(discs)) == (distinct, 13 * 256)


def test_default_rows_follow_the_table_for_each_mapping_kind():
    # the report's rows, in order, decide its bytes; the benchmark checks
    # the verdicts in this order
    workloads = _bench_workloads()
    general = list(workloads.GENERAL_INVARIANTS)
    fplanar = general + list(workloads.FPLANAR_INVARIANTS)
    job = builtin_config("fplanar-demo")
    source, fspec = job.build_space(), job.mapping()
    mapping = random_mapping(source.chart, np.random.default_rng(3))
    for given, target, expected in (
        (None, source, ["classical_thomas", "classical_weyl"]),
        (mapping, mappings.apply_mapping(source, mapping), general),
        (fspec, mappings.fplanar_build(source, fspec), fplanar),
    ):
        report = mappings.verify_invariance(source, target, given, job.points()[:1])
        assert [row.name for row in report.rows] == expected
    assert list(mappings.ROWS) == fplanar


def _key_parts(key):
    """A cache key and, if it is a tuple, every part of it, nested too."""
    yield key
    if isinstance(key, tuple):
        for part in key:
            yield from _key_parts(part)


@pytest.mark.parametrize("count", [1, 3])
def test_no_cache_key_is_a_function(count):
    # every shared result is kept under a key that names what it holds, so
    # that a row built on its own finds what another row computed: a
    # function object as a key would name only the closure that made it
    job = builtin_config("fplanar-demo")
    source, fspec = job.build_space(), job.mapping()
    rng = np.random.default_rng(9)
    space = random_metric_space(Chart(("x1", "x2", "x3")), rng)
    mapping = random_mapping(space.chart, rng)
    worlds = (
        (source, mappings.fplanar_build(source, fspec), mappings.fplanar_as_omega(source, fspec)),
        (space, mappings.apply_mapping(space, mapping), mapping),
    )
    for (src, tgt, pair), kind in zip(worlds, (FPlanarSpec, MappingSpec)):
        points = job.points()
        batch = PointBatch(points[0] if count == 1 else points[:count])
        for needs, build in mappings.ROWS.values():
            if issubclass(kind, needs):
                build(src, pair.omega_src, RICCI_LAST)(batch)
                build(tgt, pair.omega_tgt, RICCI_LAST)(batch)
        functions = [key for key in batch.cache if any(map(callable, _key_parts(key)))]
        assert not functions, functions


# token kinds the budget leaves out: comments and layout
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


MODULE_FILES = sorted((ROOT / "src" / "tensor_invariants").glob("*.py"))


@pytest.mark.parametrize("path", MODULE_FILES, ids=lambda path: path.name)
def test_every_module_stays_under_4096_tokens(path):
    # compiling a module past a power of two in tokens raises the import's
    # memory high-water mark, which every job's later peak builds on (ROADMAP,
    # "Memory and module size")
    with open(path, "rb") as source:
        count = sum(tok.type not in _LAYOUT for tok in tokenize.tokenize(source.readline))
    assert count < 4096, f"{path.name} has {count} tokens"
