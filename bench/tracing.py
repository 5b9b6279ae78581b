"""Outside-in tracing of tensor_invariants for the traced benchmark job.

The library has no instrumentation of its own, so this module replaces the
public functions of each layer with wrappers that record a span (name,
start, end, parent) and a few counts.  A function imported by name into
another module is a separate binding there, so every module of the package
is searched for the original object and each binding is replaced.
Evaluator closures are wrapped when their factory returns them.

Spans stay in memory; :meth:`Tracer.dump` writes them when the job ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time

import numpy as np

MODULES = (
    "tensor_invariants",
    "tensor_invariants.expr",
    "tensor_invariants.jets",
    "tensor_invariants.tensor",
    "tensor_invariants.geometry",
    "tensor_invariants.invariants",
    "tensor_invariants.mappings",
    "tensor_invariants.configs",
    "tensor_invariants.sampling",
    "tensor_invariants.audit",
    "tensor_invariants.cli",
)

# span name -> the count reported for it ("calls" for functions, "evals" for
# evaluator closures)
SPANS = {
    "cli.main": "calls",
    "configs.load": "calls",
    "configs.build_space": "calls",
    "expr.parse": "calls",
    "expr.value": "calls",
    "jets.order1": "calls",
    "jets.order2": "calls",
    "geometry.connection_jet": "calls",
    "geometry.provider": "calls",
    "geometry.curvature": "calls",
    "geometry.ricci": "calls",
    "geometry.weyl": "calls",
    "geometry.cov_deriv": "calls",
    "invariants.omega_jet": "calls",
    "invariants.dee": "evals",
    "invariants.zeta": "evals",
    "invariants.basic_weyl": "evals",
    "invariants.weyl_chain": "evals",
    "invariants.derived_thomas": "evals",
    "mappings.verify": "calls",
    "mappings.fplanar_invariants": "evals",
    "audit.run": "calls",
    "sampling.random_space": "calls",
    "numpy.einsum": "calls",
    "numpy.linalg": "calls",
}


CALIBRATION_SPAN = "bench.calibration"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self._jet_keys: set = set()
        # keeps jetted fields alive so that their ids stay distinct
        self._jet_fields: dict[int, object] = {}

    def _add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name: str, fn, before=None, after=None):
        """`fn` wrapped so that each call records one span named `name`."""
        names, starts, ends, parents, stack = (
            self.names,
            self.starts,
            self.ends,
            self.parents,
            self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def calibration_span(self, fn):
        """`fn` recorded as a span that no layer count includes, so that
        calibration snippets fall out of their parents' self time."""
        return self.span(CALIBRATION_SPAN, fn)

    # -- count hooks ------------------------------------------------------------

    def _jet_hook(self, order: int):
        key = f"jets.order{order}.entries"

        def before(args):
            field, point = args[0], args[1]
            self._add(key, len(field.entries))
            self._jet_fields[id(field)] = field
            self._jet_keys.add((id(field), tuple(float(x) for x in point), order))

        return before

    def _value_hook(self, args):
        self._add("expr.value.entries", len(args[0].entries))

    def _connection_hook(self, args):
        space, point = args[0], args[1]
        key = tuple(float(x) for x in point)
        if key in getattr(space, "_cache", ()):
            self._add("geometry.connection_jet.hits", 1)

    def _einsum_bytes(self, args, result):
        total = getattr(result, "nbytes", 8)
        for operand in args[1:]:
            total += getattr(operand, "nbytes", None) or np.asarray(operand).nbytes
        self._add("numpy.einsum.bytes", total)

    def _rows(self, args, report):
        self._add("mappings.rows", sum(len(row.discrepancies) for row in report.rows))

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        mods = [importlib.import_module(name) for name in MODULES]
        expr, _, tensor, geometry, invariants, mappings, configs, sampling, audit, cli = mods[1:]

        def rebind(original, replacement):
            found = 0
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, replacement)
                        found += 1
            if not found:
                raise RuntimeError(f"no binding of {original!r} to wrap")

        def function(original, name, **hooks):
            rebind(original, self.span(name, original, **hooks))

        def method(cls, attr, name, **hooks):
            setattr(cls, attr, self.span(name, getattr(cls, attr), **hooks))

        def factory(original, name, wrap_result=None):
            wrap_result = wrap_result or (lambda ev: self.span(name, ev))

            @functools.wraps(original)
            def make(*args, **kwargs):
                return wrap_result(original(*args, **kwargs))

            rebind(original, make)

        def wrap_chain(chain):
            return dataclasses.replace(
                chain,
                **{
                    f.name: self.span("invariants.weyl_chain", getattr(chain, f.name))
                    for f in dataclasses.fields(chain)
                },
            )

        function(cli.main, "cli.main")
        from_dict = configs.JobConfig.__dict__["from_dict"].__func__
        configs.JobConfig.from_dict = classmethod(self.span("configs.load", from_dict))
        method(configs.JobConfig, "build_space", "configs.build_space")
        function(expr.parse, "expr.parse")
        method(tensor.TensorField, "value", "expr.value", before=self._value_hook)
        method(tensor.TensorField, "jet", "jets.order1", before=self._jet_hook(1))
        method(tensor.TensorField, "jet2", "jets.order2", before=self._jet_hook(2))
        method(
            geometry.Space,
            "connection_jet",
            "geometry.connection_jet",
            before=self._connection_hook,
        )
        method(geometry._MetricConnection, "jets", "geometry.provider")
        function(geometry.curvature_arrays, "geometry.curvature")
        function(geometry.ricci_arrays, "geometry.ricci")
        function(geometry.weyl_arrays, "geometry.weyl")
        function(geometry.covariant_derivative_arrays, "geometry.cov_deriv")
        function(invariants.omega_jet, "invariants.omega_jet")
        factory(invariants.dee, "invariants.dee")
        factory(invariants.zeta, "invariants.zeta")
        factory(invariants.basic_weyl, "invariants.basic_weyl")
        factory(invariants.derived_thomas, "invariants.derived_thomas")
        factory(invariants.derived_weyl_chain, "invariants.weyl_chain", wrap_chain)
        function(mappings.verify_invariance, "mappings.verify", after=self._rows)
        factory(
            mappings.fplanar_invariants,
            "mappings.fplanar_invariants",
            lambda evals: {
                key: self.span("mappings.fplanar_invariants", ev) for key, ev in evals.items()
            },
        )
        function(audit.run_paper_audit, "audit.run")
        for name in (
            "random_connection_space",
            "random_metric_space",
            "random_omega_spec",
            "random_mapping",
        ):
            function(getattr(sampling, name), "sampling.random_space")
        np.einsum = self.span("numpy.einsum", np.einsum, after=self._einsum_bytes)
        # det and inv are used today; the others are the usual replacements
        # for a conditioning test, so the layer stays measured if one comes in
        for name in ("det", "inv", "solve", "slogdet", "norm", "cond"):
            setattr(np.linalg, name, self.span("numpy.linalg", getattr(np.linalg, name)))

    # -- results --------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span name -> summed duration minus the part of it that child
        spans cover."""
        starts, ends = self.starts, self.ends
        child = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                overlap = min(ends[idx], ends[parent]) - max(starts[idx], starts[parent])
                child[parent] += max(0.0, overlap)
        out: dict[str, float] = {}
        for idx, name in enumerate(self.names):
            out[name] = out.get(name, 0.0) + (ends[idx] - starts[idx] - child[idx])
        return out

    def layer_counts(self) -> dict[str, int]:
        counts = dict(self.counts)
        for name in self.names:
            if name == CALIBRATION_SPAN:
                continue
            key = f"{name}.{SPANS[name]}"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def distinct_jets(self) -> int:
        """Distinct (field, point, order) jet evaluations."""
        return len(self._jet_keys)

    def dump(self, path) -> None:
        """Write every span as one JSON line: run id, name, start, end, parent."""
        with open(path, "w") as out:
            for idx, name in enumerate(self.names):
                out.write(
                    json.dumps(
                        [self.run_id, name, self.starts[idx], self.ends[idx], self.parents[idx]]
                    )
                    + "\n"
                )
