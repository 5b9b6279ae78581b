"""Guards on the package's surface: its exports, and the hooks the traced
benchmark (bench/tracing.py) wraps."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = [
    "tensor_invariants",
    "tensor_invariants.audit",
    "tensor_invariants.cli",
    "tensor_invariants.configs",
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

TRACED_VERIFY = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracing import SPANS, Tracer
import tensor_invariants.cli as cli

tracer = Tracer("contract")
tracer.install()
code = cli.main(["verify", "--config", "fplanar-demo", "--point", "1.25,1.5,1.75"])
print(json.dumps({"code": code, "spans": SPANS, "counts": tracer.layer_counts()}))
"""


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ names missing objects: {missing}"


def test_traced_verify_reaches_every_verify_span():
    # a refactor that moves a function the tracer wraps makes install()
    # raise or leaves its span empty
    done = subprocess.run(
        [sys.executable, "-c", TRACED_VERIFY, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["code"] == 3  # the printed Weyl-type reductions fail
    counts = result["counts"]
    empty = [
        name
        for name, kind in result["spans"].items()
        if name not in AUDIT_ONLY_SPANS and counts.get(f"{name}.{kind}", 0) < 1
    ]
    assert not empty, f"verify-path spans with no call: {empty}"
