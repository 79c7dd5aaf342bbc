"""Tracing coverage: every layer wrapper fires, spans nest, rows sum.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload runs once for 3 s with the tracer installed (the first
run in a checkout also trains the cached weights and synthesizes the
recording bank).
"""

from __future__ import annotations

import json

import pytest

from perfbench import report, substrate, workloads
from perfbench.tracing import LAYER_PATCHES, Tracer, _resolve

#: Largest |total - (rows + unattributed)| accepted, in ms per request.
RESIDUAL_MS = 1e-6

#: Layers each workload must reach.
EXPECTED = {
    "verify-seq": {"dsp.onset", "dsp.outliers", "dsp.filters", "dsp.normalize",
                   "frontend", "extractor", "scoring"},
    "identify-churn": {"dsp.onset", "dsp.outliers", "dsp.filters", "dsp.normalize",
                       "frontend", "extractor", "scoring", "gallery.best_match",
                       "gallery.sync", "gallery.mutation"},
    "serve-open": {"dsp.onset", "extractor", "scoring", "serve.batch"},
    "stream": {"stream.filter", "stream.onset", "stream.push", "dsp.onset",
               "extractor", "serve.batch"},
}


@pytest.fixture(scope="module")
def ctx():
    substrate.load_model()
    return workloads.Context(bank=substrate.load_bank(), seed=5)


@pytest.fixture(scope="module")
def traced(ctx):
    """``name -> (tracer, outcome)`` for one short traced run each."""
    runs = {}
    for name, workload in workloads.WORKLOADS.items():
        tracer = Tracer()
        patched = [(_resolve(path), attr) for path, attr, _ in LAYER_PATCHES]
        originals = [getattr(owner, attr) for owner, attr in patched]
        tracer.install()
        try:
            out = workload(ctx, 3.0, tracer, 1)
        finally:
            tracer.uninstall()
        assert [getattr(owner, attr) for owner, attr in patched] == originals
        runs[name] = (tracer, out)
    return runs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_reaches_its_layers(traced, name):
    tracer, out = traced[name]
    assert out.failed == 0, out.errors
    missing = EXPECTED[name] - set(tracer.fired)
    assert not missing, f"{name}: wrappers never fired: {sorted(missing)}"


def test_every_wrapper_fires_somewhere(traced):
    # Every individual patch, not only every span name, must be reached:
    # a caller resolving an unpatched alias would silently read zero.
    called = set()
    for tracer, _ in traced.values():
        called |= set(tracer.patch_calls)
    missing = {(path, attr) for path, attr, _ in LAYER_PATCHES} - called
    assert not missing, sorted(missing)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_children_stay_inside_parents(traced, name):
    tracer, _ = traced[name]
    for span in tracer.spans:
        parent = span.parent
        if parent is not None:
            assert parent.start <= span.start <= span.end <= parent.end, (
                span.name, parent.name)
        assert span.self_s >= -1e-9, span.name


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rows_sum_to_total(traced, name):
    _, out = traced[name]
    assert out.extra["requests_traced"] > 0
    assert "unattributed" in out.rows
    assert out.rows["unattributed"] >= -RESIDUAL_MS
    assert abs(sum(out.rows.values()) - out.total_ms) <= RESIDUAL_MS * max(1.0, out.total_ms)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_per_layer_metrics_match_the_benchmark_file(traced, name):
    tracer, out = traced[name]
    metrics = report.per_layer(name, out, out, tracer)
    spec = json.loads((substrate.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in metrics.items()
    }


def test_split_matches_the_prediction(traced):
    verify = traced["verify-seq"][1].rows
    dsp = sum(v for k, v in verify.items() if k.startswith("dsp."))
    assert dsp > 0.5 * traced["verify-seq"][1].total_ms
    assert not any(k.startswith("gallery.") for k in verify)
    churn = traced["identify-churn"][1]
    gallery = sum(v for k, v in churn.rows.items() if k.startswith("gallery."))
    assert gallery > 0.5 * churn.total_ms
    assert traced["serve-open"][1].rows["serve.queue_wait"] > 0
