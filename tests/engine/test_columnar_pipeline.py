"""Property tests: the columnar pipeline is byte-identical to the scalar
searchers, for threshold and top-k queries, including after mutations.

The columnar searchers (served as algorithm ``ring``) must return exactly
the ids and scores the retained scalar pigeonring searchers (algorithm
``ring-scalar``) return, on randomised datasets across all four domains --
the scalar implementations are the reference oracles of the vectorised
kernels.  Hamming serves no ``ring-scalar`` algorithm: its array chain
check is compared with the incremental per-object check, kept as a test
oracle in ``tests/hamming/test_searchers.py``, and its served answers are
checked against ``linear`` here.
"""

from __future__ import annotations

import random

import pytest

from repro.datasets.binary import clustered_binary_workload
from repro.datasets.molecules import aids_like
from repro.datasets.text import name_workload
from repro.datasets.tokens import zipfian_set_workload
from repro.engine import Query, SearchEngine
from repro.graphs import ColumnarGraphSearcher, GraphDataset, RingGraphSearcher
from repro.hamming import BinaryVectorDataset
from repro.sets import ColumnarSetSearcher, RingSetSearcher, SetDataset
from repro.sets.similarity import JaccardPredicate, OverlapPredicate
from repro.strings import ColumnarStringSearcher, RingStringSearcher, StringDataset

#: The scalar reference algorithm per domain.
REFERENCE = {
    "hamming": "linear",
    "sets": "ring-scalar",
    "strings": "ring-scalar",
    "graphs": "ring-scalar",
}


@pytest.fixture(scope="module")
def workloads():
    return {
        "hamming": clustered_binary_workload(180, 64, 5, seed=31),
        "sets": zipfian_set_workload(250, 10, seed=32),
        "strings": name_workload(160, 8, seed=33),
        "graphs": aids_like(num_graphs=20, num_queries=3, seed=34),
    }


@pytest.fixture(scope="module")
def datasets(workloads):
    return {
        "hamming": BinaryVectorDataset(workloads["hamming"].vectors, num_parts=4),
        "sets": SetDataset(workloads["sets"].records, num_classes=4),
        "strings": StringDataset(workloads["strings"].records, kappa=2),
        "graphs": GraphDataset(workloads["graphs"].graphs),
    }


@pytest.fixture(scope="module")
def payloads(workloads):
    return {
        "hamming": [row for row in workloads["hamming"].queries],
        "sets": list(workloads["sets"].queries),
        "strings": list(workloads["strings"].queries),
        "graphs": list(workloads["graphs"].queries),
    }


TAUS = {"hamming": 14, "sets": 0.6, "strings": 2, "graphs": 3}
#: Graph top-k escalates an exponential-cost GED radius, so it gets a small
#: ``k`` and a single query to keep the suite fast.
TOPK = {"hamming": 5, "sets": 5, "strings": 5, "graphs": 2}


def topk_payloads(name, payloads):
    return payloads[name][:1] if name == "graphs" else payloads[name]


def fresh_engine(datasets, names=None):
    engine = SearchEngine(cache_size=0)
    for name in names or datasets:
        engine.add_dataset(name, datasets[name])
    return engine


# ---------------------------------------------------------------------------
# Direct searcher equivalence on randomised datasets
# ---------------------------------------------------------------------------


def test_sets_columnar_matches_scalar_on_random_datasets():
    rng = random.Random(91)
    for _ in range(6):
        records = [
            [rng.randint(0, 70) for _ in range(rng.randint(1, 16))]
            for _ in range(rng.randint(20, 150))
        ]
        dataset = SetDataset(records, num_classes=rng.choice([1, 2, 4]))
        for predicate in (
            OverlapPredicate(rng.randint(1, 4)),
            JaccardPredicate(rng.choice([0.4, 0.6, 0.8])),
        ):
            for chain_length in (1, 2, 3):
                scalar = RingSetSearcher(dataset, predicate, chain_length=chain_length)
                columnar = ColumnarSetSearcher(dataset, predicate, chain_length=chain_length)
                for _ in range(6):
                    query = [rng.randint(0, 80) for _ in range(rng.randint(1, 12))]
                    expected = scalar.search(query)
                    got = columnar.search(query)
                    # Identical candidate *set* and identical results; the
                    # columnar searcher emits both ascending.
                    assert got.candidates == sorted(expected.candidates)
                    assert got.results == sorted(expected.results)
                    assert set(got.results) <= set(got.candidates)


def test_strings_columnar_matches_scalar_on_random_datasets():
    rng = random.Random(92)
    alphabet = "abcdef"
    for _ in range(5):
        records = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 18)))
            for _ in range(rng.randint(20, 120))
        ]
        dataset = StringDataset(records, kappa=rng.choice([2, 3]))
        for tau in (1, 2, 3):
            scalar = RingStringSearcher(dataset, tau)
            columnar = ColumnarStringSearcher(dataset, tau)
            for _ in range(6):
                query = "".join(
                    rng.choice(alphabet + "gh") for _ in range(rng.randint(0, 16))
                )
                expected = scalar.search(query)
                got = columnar.search(query)
                # The columnar pipeline adds a complete content prefilter,
                # so its candidates are a subset -- results must be equal.
                assert set(got.candidates) <= set(expected.candidates)
                assert got.results == sorted(expected.results)


def test_graphs_columnar_matches_scalar(datasets, payloads):
    dataset = datasets["graphs"]
    for tau in (2, 3):
        scalar = RingGraphSearcher(dataset, tau)
        columnar = ColumnarGraphSearcher(dataset, tau)
        for query in payloads["graphs"]:
            expected = scalar.search(query)
            got = columnar.search(query)
            assert got.candidates == expected.candidates
            assert got.results == expected.results


# ---------------------------------------------------------------------------
# Engine-level equivalence: threshold and top-k
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_threshold_ids_byte_identical(name, datasets, payloads):
    engine = fresh_engine(datasets, [name])
    for payload in payloads[name]:
        ring = engine.search(Query(backend=name, payload=payload, tau=TAUS[name]))
        reference = engine.search(
            Query(backend=name, payload=payload, tau=TAUS[name], algorithm=REFERENCE[name])
        )
        assert sorted(ring.ids) == sorted(reference.ids)


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_topk_ids_and_scores_byte_identical(name, datasets, payloads):
    engine = fresh_engine(datasets, [name])
    for payload in topk_payloads(name, payloads):
        ring = engine.search(
            Query(backend=name, payload=payload, k=TOPK[name], tau=TAUS[name])
        )
        reference = engine.search(
            Query(
                backend=name,
                payload=payload,
                k=TOPK[name],
                tau=TAUS[name],
                algorithm=REFERENCE[name],
            )
        )
        assert ring.ids == reference.ids
        assert ring.scores == reference.scores


def test_sets_threshold_both_predicates(datasets, payloads):
    engine = fresh_engine(datasets, ["sets"])
    for tau in (0.7, 3):  # Jaccard float and overlap int
        for payload in payloads["sets"]:
            ring = engine.search(Query(backend="sets", payload=payload, tau=tau))
            reference = engine.search(
                Query(backend="sets", payload=payload, tau=tau, algorithm="ring-scalar")
            )
            assert sorted(ring.ids) == sorted(reference.ids)


# ---------------------------------------------------------------------------
# Mutations: delta records flow through the vectorised scan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["sets", "strings", "graphs", "hamming"])
def test_mutated_index_byte_identical_to_rebuild(name, datasets, payloads, workloads):
    engine = fresh_engine(datasets, [name])
    backend = engine.backend(name)
    store = engine.store(name)
    records = list(backend.store_records(store))
    rng = random.Random(77)
    # Upsert recycled records (fresh ids), overwrite one id, delete a few.
    for index in range(8):
        engine.upsert(name, records[rng.randrange(len(records))])
    engine.upsert(name, records[0], obj_id=1)
    for obj_id in (2, 5, len(records) + 2):
        engine.delete(name, obj_id)

    delta = engine.delta(name)
    live_ids, live_records = delta.live_records(backend.store_records(store))
    rebuilt = fresh_engine({}, [])
    rebuilt.add_dataset(name, backend.make_dataset(store, live_records))

    for payload in payloads[name]:
        for algorithm in ("ring", REFERENCE[name]):
            mutated = engine.search(
                Query(backend=name, payload=payload, tau=TAUS[name], algorithm=algorithm)
            )
            fresh = rebuilt.search(
                Query(backend=name, payload=payload, tau=TAUS[name], algorithm=algorithm)
            )
            expected = sorted(live_ids[position] for position in fresh.ids)
            assert mutated.ids == expected, (name, algorithm)
        # And the columnar path agrees with the scalar reference on the
        # mutated index (delta scan included) at threshold ...
        ring = engine.search(Query(backend=name, payload=payload, tau=TAUS[name]))
        reference = engine.search(
            Query(backend=name, payload=payload, tau=TAUS[name], algorithm=REFERENCE[name])
        )
        assert ring.ids == reference.ids
    # ... and for top-k (escalation rungs walk the mutated ladder).
    for payload in topk_payloads(name, payloads):
        ring_topk = engine.search(
            Query(backend=name, payload=payload, k=TOPK[name], tau=TAUS[name])
        )
        reference_topk = engine.search(
            Query(
                backend=name,
                payload=payload,
                k=TOPK[name],
                tau=TAUS[name],
                algorithm=REFERENCE[name],
            )
        )
        assert ring_topk.ids == reference_topk.ids
        assert ring_topk.scores == reference_topk.scores


# ---------------------------------------------------------------------------
# Pipeline stats: the funnel counters surface per backend
# ---------------------------------------------------------------------------


def test_engine_stats_report_filter_funnel(datasets, payloads):
    engine = fresh_engine(datasets, ["sets"])
    for payload in payloads["sets"]:
        engine.search(Query(backend="sets", payload=payload, tau=TAUS["sets"]))
    snapshot = engine.stats.snapshot()["per_backend"]["sets"]
    assert snapshot["avg_generated_candidates"] >= snapshot["avg_candidates"]
    assert snapshot["avg_candidates"] >= snapshot["avg_results"]
    assert snapshot["avg_candidate_time_ms"] >= 0.0
    assert snapshot["avg_verify_time_ms"] >= 0.0
