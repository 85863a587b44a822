"""Spans for the traced run, recorded from outside the program.

The traced run wraps the rfloc functions and methods that sit on a module
boundary, at the place each caller looks them up: a module global (``cli``
imported ``read_dataset_csv`` from ``io``, so the wrapper goes on
``rfloc.cli.read_dataset_csv``) or a class attribute (``Model.predict``).
No file of the program changes. Each call becomes a span (name, start, end,
parent) kept in memory, following Sigelman et al., "Dapper" (Google TR 2010):
one span tree per workload pass, written out when the benchmark ends. A span's
name starts with the layer (module) that owns the code it times.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

ROOT = "bench.pass"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    facts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Keeps spans in memory; wrappers record only while ``enabled``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self._open: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._open.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def root(self):
        """Record one pass: a root span with every wrapped call below it."""
        self.enabled = True
        span = self.begin(ROOT)
        try:
            yield span
        finally:
            self.end(span)
            self.enabled = False

    def write_jsonl(self, path: str, t0: float) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "start_s": s.start - t0, "end_s": s.end - t0, "facts": s.facts,
                }) + "\n")


def _layer_of(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _wrap_function(rec: Recorder, fn, facts):
    name = f"{_layer_of(fn.__module__)}.{fn.__name__}"

    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        span = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(span)
        if facts is not None:
            span.facts.update(facts(args, result))
        return result

    return wrapper


def _wrap_method(rec: Recorder, fn, facts):
    names: dict[type, str] = {}

    def wrapper(self, *args, **kwargs):
        if not rec.enabled:
            return fn(self, *args, **kwargs)
        cls = type(self)
        name = names.get(cls)
        if name is None:
            name = names[cls] = f"{_layer_of(cls.__module__)}.{cls.__name__}.{fn.__name__}"
        span = rec.begin(name)
        try:
            result = fn(self, *args, **kwargs)
        finally:
            rec.end(span)
        span.facts["kind"] = cls.kind
        if facts is not None:
            span.facts.update(facts(self))
        return result

    return wrapper


# -- facts attached to spans, read after the call returns --------------------

def _tree_facts(model) -> dict:
    return {"nodes": model.node_count,
            "split_features": len({r.feature for r in model.split_log})}


def _fit_facts(args, model) -> dict:
    facts = {"kind": model.kind}
    if hasattr(model, "split_log"):
        facts.update(_tree_facts(model))
    return facts


def _importance_facts(args, report) -> dict:
    model, test = args[0], args[1]
    log = getattr(model, "split_log", None)
    read = len({r.feature for r in log}) if log is not None else test.m
    return {"columns_read": read, "columns_shuffled": test.m}


def _rows(args, dataset) -> dict:
    return {"rows": dataset.n}


def _bytes_at(index):
    return lambda args, result: {"bytes": os.path.getsize(args[index])}


def _boundaries(rf):
    """(owner, attribute, facts) for every wrapped name, module by module."""
    from rfloc.ensemble import GradientBoosting
    from rfloc.regressors import CartRegressor, Model

    functions = [
        (rf.simulate, "make_reference_scenario", None),
        (rf.simulate, "make_fullband_scenario", None),
        (rf.simulate, "generate_dataset", _rows),
        (rf.core, "train_test_split", None),
        (rf.evaluate, "benchmark", None),
        (rf.evaluate, "evaluate_model", None),
        (rf.evaluate, "rmse", None),
        (rf.evaluate, "r2", None),
        (rf.evaluate, "ce95", None),
        (rf.bandselect, "permutation_importance", _importance_facts),
        (rf.bandselect, "select_rated_band", None),
        (rf.bandselect, "rmse", None),
        (rf.registry, "fit_model", None),
        (rf.registry, "_fit_stacking_spec", None),
        (rf.registry, "build_stacking_plan", None),
        (rf.registry, "stacking_fit_from_plan", None),
        (rf.registry, "svr_fit", _fit_facts),
        (rf.registry, "knn_fit", _fit_facts),
        (rf.registry, "gpr_fit", _fit_facts),
        (rf.registry, "cart_fit", _fit_facts),
        (rf.registry, "mlp_fit", _fit_facts),
        (rf.registry, "gradient_boost_fit", _fit_facts),
        (rf.cli, "main", None),
        (rf.cli, "cmd_simulate", None),
        (rf.cli, "cmd_split", None),
        (rf.cli, "cmd_pca", None),
        (rf.cli, "make_fullband_scenario", None),
        (rf.cli, "generate_dataset", _rows),
        (rf.cli, "train_test_split", None),
        (rf.cli, "read_dataset_csv", _bytes_at(0)),
        (rf.cli, "write_dataset_csv", _bytes_at(1)),
        (rf.cli, "write_pca_csv", _bytes_at(2)),
        (rf.cli, "pca_fit", None),
        (rf.cli, "pca_transform", None),
    ]
    methods = [
        (Model, "predict", None),
        (CartRegressor, "fit", _tree_facts),
        (GradientBoosting, "fit", None),
    ]
    return functions, methods


@contextmanager
def installed(rec: Recorder):
    """Put the wrappers in place for the duration of the block."""
    import rfloc as rf
    import rfloc.cli  # noqa: F401  (not imported by the package itself)

    functions, methods = _boundaries(rf)
    saved = []
    try:
        for owner, attr, facts in functions:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap_function(rec, fn, facts))
        for owner, attr, facts in methods:
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap_method(rec, fn, facts))
        yield rec
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# -- shape checks and per-layer metrics over one pass's span tree ------------

def subtree(spans: list[Span], root: Span) -> list[Span]:
    """The root and every span below it (spans are stored in start order)."""
    inside = {root.id}
    out = [root]
    for s in spans[root.id + 1:]:
        if s.parent in inside:
            inside.add(s.id)
            out.append(s)
    return out


def self_times(tree: list[Span]) -> dict[int, float]:
    """Duration minus the part covered by children. Spans come from one
    stack on one thread, so children never overlap and the self times of a
    pass add up to its duration."""
    covered = defaultdict(float)
    for s in tree:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in tree}


# in an expected shape: at least one span, however many
SOME = -1


def shape_errors(tree: list[Span], expected: dict[tuple[str, str], int]) -> list[str]:
    """Compare a pass's (parent name, span name) counts with ``expected``.

    A wrapper that no longer sees its calls, or a call that moved to another
    parent, shows here instead of as a layer that suddenly reads 0 s."""
    by_id = {s.id: s for s in tree}
    counts = Counter((by_id[s.parent].name, s.name) for s in tree if s.parent is not None)
    errors = []
    for (parent, name), want in expected.items():
        got = counts[(parent, name)]
        if got != want and not (want == SOME and got > 0):
            errors.append(f"{got} {name} spans under {parent}, expected "
                          f"{'at least 1' if want == SOME else want}")
    return errors


def _ancestors(span: Span, by_id: dict[int, Span]):
    while span.parent is not None:
        span = by_id[span.parent]
        yield span


# spans whose summed duration is reported as "<name>.s"
_SUMMED = ("bandselect.permutation_importance", "io.write_dataset_csv", "io.read_dataset_csv",
           "pca.pca_fit", "pca.pca_transform", "simulate.generate_dataset",
           "core.train_test_split")


def pass_metrics(tree: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    by_id = {s.id: s for s in tree}
    selfs = self_times(tree)
    m: dict[str, float] = defaultdict(float)

    def parent_name(s):
        return by_id[s.parent].name if s.parent is not None else None

    def top_level(s):
        # called by the user of the model, not by an ensemble around it
        return not any(a.layer in ("regressors", "ensemble") for a in _ancestors(s, by_id))

    first_dtr = None
    for s in tree:
        name, d, kind = s.name, s.duration, s.facts.get("kind")
        m[f"{s.layer}.self.s"] += selfs[s.id]
        if name in _SUMMED:
            m[f"{name}.s"] += d
        if name.endswith("_fit") and parent_name(s) == "registry.fit_model":
            m[f"regressors.fit.{kind}.s"] += d
            if kind == "dtr" and first_dtr is None:
                first_dtr = s
        if name.endswith(".predict"):
            if kind == "dtr":
                m["regressors.cart.predict.calls"] += 1
            if top_level(s):
                m[f"regressors.predict.{kind}.s"] += d
                if kind == "stacking":
                    m["ensemble.stacking.predict.s"] += d
            if parent_name(s) == "bandselect.permutation_importance":
                m["bandselect.predict_calls"] += 1
        if name == "regressors.CartRegressor.fit":
            m["regressors.cart.fit.s"] += d
            m["regressors.cart.fit.calls"] += 1
            if parent_name(s) == "ensemble.GradientBoosting.fit":
                m["ensemble.gbr.trees"] += 1
        if name == "registry._fit_stacking_spec":
            m["ensemble.stacking.fit.s"] += d
        if name in ("registry._fit_stacking_spec", "ensemble.build_stacking_plan",
                    "ensemble.stacking_fit_from_plan"):
            m["ensemble.stacking.self.s"] += selfs[s.id]
        if name.endswith("_fit") and parent_name(s) == "ensemble.build_stacking_plan":
            m["ensemble.stacking.member_fits"] += 1
            m["ensemble.stacking.member_fit.s"] += d
        if name == "bandselect.permutation_importance":
            m["bandselect.useful_column_ratio"] = (
                s.facts["columns_read"] / s.facts["columns_shuffled"])
        if name in ("io.write_dataset_csv", "io.write_pca_csv"):
            m["io.bytes_written"] += s.facts["bytes"]
        if name == "io.read_dataset_csv":
            m["io.bytes_read"] += s.facts["bytes"]
        if name == "simulate.generate_dataset":
            m["simulate.rows"] += s.facts["rows"]
        if name.startswith("cli.cmd_"):
            m[f"cli.{name[len('cli.cmd_'):]}.s"] += d
        if name in ("evaluate.rmse", "evaluate.r2", "evaluate.ce95"):
            m["evaluate.metrics.s"] += d
    if first_dtr is not None:
        m["regressors.dtr.nodes"] = first_dtr.facts["nodes"]
        m["regressors.dtr.split_features"] = first_dtr.facts["split_features"]
    m["trace.spans"] = len(tree)
    return dict(m)


def median_metrics(per_pass: list[dict[str, float]], names) -> dict[str, float]:
    """Median over passes of each named metric; a metric a pass never
    produced (a layer the workload does not reach) counts as 0."""
    if not per_pass:
        return {}
    return {n: statistics.median(p.get(n, 0.0) for p in per_pass) for n in names}
