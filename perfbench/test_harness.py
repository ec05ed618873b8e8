"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from harness import (  # noqa: E402
    Span,
    SpanRecorder,
    by_slice,
    histogram_mean,
    metric_delta,
    metric_sum,
    parse_metrics,
    percentile,
    self_times,
    self_times_by_name,
)
from served import Sample  # noqa: E402
from workloads import Expected, Inputs, SetOracle, StringOracle  # noqa: E402

# -- percentile ---------------------------------------------------------------


@pytest.mark.parametrize("q", [0, 1, 25, 50, 90, 99, 100])
def test_percentile_matches_numpy_linear(q):
    rng = random.Random(q)
    for size in (1, 2, 7, 1000):
        values = [rng.expovariate(1.0) for _ in range(size)]
        assert percentile(values, q) == pytest.approx(float(np.percentile(values, q)))


def test_percentile_interpolates_and_rejects_bad_input():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_by_slice_groups_by_time_and_drops_values_outside_the_slices():
    times = [-0.1, 0.0, 0.9, 1.0, 2.5, 3.0, 7.0]
    assert by_slice(times, [1, 2, 3, 4, 5, 6, 7], 1.0, 3) == [[2, 3], [4], [5]]


def test_one_slow_slice_does_not_move_the_recorded_p50_or_throughput(monkeypatch):
    monkeypatch.setattr(run, "SLICE_S", 1.0)
    # Five 1-s slices of 100 searches each, 5 ms apiece; the third slice is
    # twice as slow and half as busy, as under a short burst of host steal.
    samples = []
    for second in range(5):
        latency, count = (0.010, 50) if second == 2 else (0.005, 100)
        for i in range(count):
            due = second + i / count
            samples.append(Sample("search", 0, due, due, due + latency, 200, b""))
    info = {"server_rss_mb": 1.0, "server_cpu_s": 1.5, "requests": len(samples)}
    metrics = run.end_to_end(samples, 0.0, 5, [1.0, 3.0, 2.0], info)
    assert info["search_p50_ms"] == pytest.approx(5.0)
    assert info["search_qps"] == pytest.approx(100.0, rel=0.02)
    assert metrics == {
        "cpu_ms_per_request": pytest.approx(1500.0 / 450),
        "setup_s": 2.0,
        "server_rss_mb": 1.0,
    }


# -- span self-time fold --------------------------------------------------------


def _span(span_id, start, end, parent=None, name="x"):
    return Span(span_id, name, start, end, parent, request=0)


def test_self_time_subtracts_nested_children_once():
    spans = [
        _span(0, 0.0, 10.0, name="request"),
        _span(1, 1.0, 3.0, 0, name="decode"),
        _span(2, 3.0, 8.0, 0, name="search"),
        _span(3, 4.0, 7.0, 2, name="candidates"),  # grandchild: only its parent pays
    ]
    folded = self_times(spans)
    assert folded == {0: pytest.approx(3.0), 1: 2.0, 2: pytest.approx(2.0), 3: 3.0}


def test_self_time_counts_the_union_of_overlapping_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 2.0, 6.0, 0),
        _span(2, 4.0, 8.0, 0),  # overlaps its sibling on [4, 6]
        _span(3, 5.0, 5.5, 0),  # inside both
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0)


def test_self_time_clips_children_to_the_parent():
    spans = [_span(0, 0.0, 4.0), _span(1, 3.0, 9.0, 0), _span(2, -2.0, 1.0, 0)]
    assert self_times(spans)[0] == pytest.approx(2.0)
    assert min(self_times(spans).values()) >= 0.0


def test_recorder_nests_by_with_blocks_and_disabled_records_nothing():
    rec = SpanRecorder()
    with rec.span("outer", 1):
        with rec.span("inner", 1):
            pass
        with rec.span("inner", 1):
            pass
    with rec.span("outer", 2):
        pass
    parents = [(s.name, s.parent) for s in rec.spans]
    assert parents == [("outer", None), ("inner", 0), ("inner", 0), ("outer", None)]
    assert all(s.end >= s.start for s in rec.spans)
    grouped = self_times_by_name(rec.spans)
    assert len(grouped["inner"]) == 2 and len(grouped["outer"]) == 2
    off = SpanRecorder(enabled=False)
    with off.span("outer"):
        pass
    assert off.spans == []


# -- /metrics parsing ---------------------------------------------------------

SCRAPE_BEFORE = """\
# HELP server_batches_total coalesced micro-batches executed
# TYPE server_batches_total counter
server_batches_total 10
server_batch_queries_total 25
server_rejected_total{reason="busy"} 1
http_request_seconds_bucket{route="/search",le="0.005"} 8 # {trace_id="ab12"} 0.004 1700000000.0
http_request_seconds_sum{route="/search"} 0.05
http_request_seconds_count{route="/search"} 10
http_request_seconds_sum{route="/stats"} 3.0
http_request_seconds_count{route="/stats"} 1
"""

SCRAPE_AFTER = """\
server_batches_total 30
server_batch_queries_total 85
server_rejected_total{reason="busy"} 1
server_rejected_total{reason="invalid"} 2
http_request_seconds_bucket{route="/search",le="0.005"} 20
http_request_seconds_sum{route="/search"} 0.17
http_request_seconds_count{route="/search"} 40
http_request_seconds_sum{route="/stats"} 3.0
http_request_seconds_count{route="/stats"} 1
engine_auto_compactions_total{backend="strings"} 3
"""


def test_parse_metrics_reads_labels_and_skips_comments_and_exemplars():
    samples = parse_metrics(SCRAPE_BEFORE)
    key = ("http_request_seconds_bucket", frozenset({("route", "/search"), ("le", "0.005")}))
    assert samples[key] == 8.0
    assert samples[("server_batches_total", frozenset())] == 10.0
    assert not any(name.startswith("#") for name, _ in samples)
    with pytest.raises(ValueError):
        parse_metrics("not a metric line at all {")


def test_counter_deltas_label_filters_and_histogram_means():
    delta = metric_delta(parse_metrics(SCRAPE_BEFORE), parse_metrics(SCRAPE_AFTER))
    assert metric_sum(delta, "server_batches_total") == 20.0
    assert metric_sum(delta, "server_batch_queries_total") == 60.0
    assert metric_sum(delta, "server_rejected_total") == 2.0  # busy unchanged, invalid new
    assert metric_sum(delta, "server_rejected_total", reason="invalid") == 2.0
    assert metric_sum(delta, "engine_auto_compactions_total") == 3.0  # appeared mid-run
    assert metric_sum(delta, "server_errors_total") == 0.0  # never exposed
    assert histogram_mean(delta, "http_request_seconds", route="/search") == pytest.approx(
        0.12 / 30
    )
    assert math.isnan(histogram_mean(delta, "http_request_seconds", route="/stats"))


# -- answer checks -------------------------------------------------------------


def _ledger():
    inputs = Inputs(
        records=[], queries=[[1], [2]], topk_queries=[1],
        batches=[[{"op": "upsert", "record": [1], "id": 9}, {"op": "delete", "id": 4}]],
    )
    expected = Expected(threshold=[[1, 2], []], topk={1: ([5, 3], [0.5, 1.0])})
    return run.Ledger(inputs, expected)


def _sample(kind, item, status, body):
    return Sample(kind, item, 0.0, 0.0, 0.001, status, json.dumps(body).encode())


def test_ledger_passes_right_answers_and_fails_wrong_refused_or_lost_ones():
    ledger = _ledger()
    samples = [
        _sample("search", 0, 200, {"ids": [2, 1]}),  # order-free threshold ids
        _sample("search", 0, 200, {"ids": [1]}),  # a missing id
        _sample("search", 1, 200, {"ids": [7]}),  # a spurious id
        _sample("topk", 1, 200, {"ids": [5, 3], "scores": [0.5, 1.0]}),
        _sample("topk", 1, 200, {"ids": [3, 5], "scores": [1.0, 0.5]}),  # wrong rank order
        _sample("search", 0, 429, {"error": "busy"}),
        Sample("search", 0, 0.0, 0.0, 10.0, 0, b""),  # timeout
        _sample("mutate", 0, 200, {"results": [{"id": 9}, {"deleted": True}]}),
        _sample("mutate", 0, 200, {"results": [{"id": 8}, {"deleted": True}]}),  # wrong id
    ]
    passed = ledger.check(samples)
    assert [samples.index(s) for s in passed] == [0, 3, 7]
    assert (ledger.attempted, ledger.failed, ledger.wrong) == (9, 6, 4)
    assert ledger.acked_batches == [0]


def test_a_wrong_answer_makes_the_run_exit_nonzero(monkeypatch, capsys):
    def fake_run(wl, seed, seconds, trace):
        metrics = {m["name"]: 1.0 for m in json.loads(
            (HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
        context = {"workload": wl.name, "why": wl.why, "seed": seed, "trace": 0}
        return {"context": context, "correct": False, "attempted": 10, "failed": 1,
                "metrics": metrics}

    monkeypatch.setattr(run, "run_workload", fake_run)
    assert run.main(["--workload", "strings-rw", "--seconds", "1"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is False and last["failed"] == 1


# -- oracles against the engine's linear algorithm ----------------------------------


@pytest.mark.parametrize("backend", ["sets", "strings"])
def test_oracles_match_the_linear_algorithm(backend):
    from repro.engine import Query, SearchEngine

    with SearchEngine(cache_size=0) as engine:
        dataset, queries = engine.backend(backend).make_workload(1500, 40, 5)
        engine.add_dataset(backend, dataset)
        if backend == "sets":
            oracle = SetOracle(dataset.raw_records, 0.8)
            ask = oracle.threshold
            tau = 0.8
        else:
            oracle = StringOracle(dataset.records)
            ask = lambda q: oracle.threshold(q, 2)  # noqa: E731
            tau = 2
        for query in queries:
            linear = engine.search(Query(backend, query, tau=tau, algorithm="linear"))
            assert ask(query) == sorted(linear.ids)
