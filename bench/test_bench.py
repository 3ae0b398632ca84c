"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import check_pass, run_pass  # noqa: E402

ABC = (1, 2, -1)


@pytest.fixture
def algdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in workloads.alg_texts([ABC]).items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


def small_requests():
    name = workloads.sklyanin_name(ABC)
    return [
        workloads.Request(("hilbert", name, "-D", "5", "--json"), lambda r: []),
        workloads.Request(("tor", "commutative.alg", "-D", "5", "--json"), lambda r: []),
    ]


def error_rate(requests, pinned):
    outcomes, _ = run_pass(requests)
    return check_pass(requests, outcomes, pinned, {}) / len(requests)


def test_seeded_rule():
    assert len(workloads.SKLYANIN_PARAMS) == 24
    assert workloads.sklyanin_params(7) == workloads.sklyanin_params(7)
    assert workloads.sklyanin_params(7) != workloads.sklyanin_params(8)
    for a, b, c in workloads.SKLYANIN_PARAMS:
        assert 0 not in (a, b, c) and len({a, b, c}) == 3  # never ATV-degenerate


def test_pinned_digests_cover_every_request():
    pinned = workloads.load_digests()
    assert {r.key for r in workloads.every_request()} == set(pinned)


def test_reference_passes(algdir):
    request = workloads.hilbert_request(ABC)
    assert error_rate([request], workloads.load_digests()) == 0


def test_negative_control_wrong_expectation_raises_error_rate(algdir):
    right = workloads.hilbert_request(ABC)
    # k[x,y] numbers instead of k[x,y,z]: a wrong expectation must fail
    wrong = workloads.Request(right.argv, lambda r: (
        [] if r["hilbert"]["dims"] == list(range(1, 12)) else ["dims are not d+1"]))
    assert error_rate([right, wrong], workloads.load_digests()) == 0.5


def test_negative_control_changed_report_raises_error_rate(algdir):
    request = workloads.hilbert_request(ABC)
    assert error_rate([request], {request.key: "0" * 64}) == 1


def test_tracer_patches_every_binding_and_restores_identity():
    import cohprobe.cli
    from cohprobe import coherence, gbasis, veronese, zalg

    original = gbasis.complete_to_degree
    assert tracer.installed_wrappers() == []
    spans = tracer.Tracer()
    spans.install()
    try:
        for module in (gbasis, coherence, veronese, zalg, cohprobe.cli):
            assert getattr(module.complete_to_degree, tracer.MARK) == "gbasis.complete_to_degree"
        assert "cohprobe.zalg.free_basis" in tracer.installed_wrappers()
        assert "cohprobe.linalg.SpanSolver.add" in tracer.installed_wrappers()
    finally:
        spans.uninstall()
    assert tracer.installed_wrappers() == []
    for module in (gbasis, coherence, veronese, zalg, cohprobe.cli):
        assert module.complete_to_degree is original


def test_missing_span_is_reported_not_fatal(monkeypatch):
    monkeypatch.setitem(tracer.SPANS, "gbasis.deleted_api", ("gbasis", "deleted_api"))
    spans = tracer.Tracer()
    spans.install()
    spans.uninstall()
    assert spans.missing == ["gbasis.deleted_api"]


def traced_counters(requests):
    spans = tracer.Tracer()
    spans.install()
    try:
        run_pass(requests, spans.request)
    finally:
        spans.uninstall()
    return spans.counters()


def test_counters_repeat_exactly(algdir):
    first = traced_counters(small_requests())
    assert first == traced_counters(small_requests())
    assert first["gbasis.complete_to_degree.calls"] == 2
    assert first["grmod.minimal_resolution.calls"] == 1
    assert 0 < first["grmod.free_basis.distinct_ratio"] <= 1


def test_metric_names_match_benchmark_json():
    import json

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == tracer.per_layer_metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    # every span is exercised by some workload, and only real spans are listed
    assert set().union(*workloads.EXERCISES.values()) == set(tracer.SPAN_NAMES)
