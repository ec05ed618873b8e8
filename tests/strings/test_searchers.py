"""Correctness and containment tests for the string edit distance searchers."""

import pytest

from repro.datasets.text import name_workload, title_workload
from repro.strings.columnar import ColumnarStringSearcher
from repro.strings.dataset import StringDataset
from repro.strings.linear import LinearStringSearcher
from repro.strings.pivotal import PivotalSearcher
from repro.strings.qgrams import PositionalGram
from repro.strings.ring import RingStringSearcher


@pytest.fixture(scope="module")
def workload():
    return name_workload(num_records=250, num_queries=12, max_edits=3, seed=3)


@pytest.fixture(scope="module")
def dataset(workload):
    return StringDataset(workload.records, kappa=2)


def ground_truth(dataset, query, tau):
    return sorted(LinearStringSearcher(dataset).search(query, tau).results)


class TestExactness:
    @pytest.mark.parametrize("tau", (1, 2, 3, 4))
    def test_pivotal_matches_linear_scan(self, workload, dataset, tau):
        searcher = PivotalSearcher(dataset, tau)
        for query in workload.queries:
            assert sorted(searcher.search(query).results) == ground_truth(
                dataset, query, tau
            )

    @pytest.mark.parametrize("tau", (1, 2, 3, 4))
    @pytest.mark.parametrize("chain_length", (1, 2, 3, None))
    def test_ring_matches_linear_scan(self, workload, dataset, tau, chain_length):
        searcher = RingStringSearcher(dataset, tau, chain_length=chain_length)
        for query in workload.queries:
            assert sorted(searcher.search(query).results) == ground_truth(
                dataset, query, tau
            )

    def test_exactness_on_long_strings(self):
        workload = title_workload(num_records=80, num_queries=6, max_edits=6, seed=4)
        dataset = StringDataset(workload.records, kappa=4)
        for tau in (4, 6):
            ring = RingStringSearcher(dataset, tau)
            pivotal = PivotalSearcher(dataset, tau)
            for query in workload.queries:
                expected = ground_truth(dataset, query, tau)
                assert sorted(ring.search(query).results) == expected
                assert sorted(pivotal.search(query).results) == expected

    def test_queries_have_results(self, workload, dataset):
        total = sum(len(ground_truth(dataset, q, 3)) for q in workload.queries)
        assert total > 0

    def test_exactness_on_adversarial_short_strings(self):
        records = ["ab", "abc", "abcd", "zzzz", "a", "", "abcabc", "xyxyxyxy"]
        dataset = StringDataset(records, kappa=2)
        queries = ["ab", "abcd", "zz", "", "xyxy"]
        for tau in (0, 1, 2, 3):
            ring = RingStringSearcher(dataset, tau)
            pivotal = PivotalSearcher(dataset, tau)
            for query in queries:
                expected = ground_truth(dataset, query, tau)
                assert sorted(ring.search(query).results) == expected
                assert sorted(pivotal.search(query).results) == expected

    @pytest.mark.parametrize(
        "searcher_cls", (PivotalSearcher, RingStringSearcher, ColumnarStringSearcher)
    )
    def test_case1_probes_grams_tied_with_the_prefix_end(self, searcher_cls):
        # Both prefixes end on gram "ma" (the query's duplicate ("ma", 5) is
        # cut off by the position tie-break), so Case 1 applies and the data
        # pivotal ("ma", 5) can only match that cut-off copy.
        records = ["liel mae", "lima mae", "el", "el", "el", "li", "li"]
        dataset = StringDataset(records, kappa=2)
        query = "lima mae"
        expected = ground_truth(dataset, query, 2)
        assert expected == [0, 1]
        assert sorted(searcher_cls(dataset, 2).search(query).results) == expected
        plan = PivotalSearcher(dataset, 2).query_plan(query)
        assert PositionalGram("ma", 5) not in plan.prefix
        assert PositionalGram("ma", 5) in plan.case1_grams


class TestCandidateContainment:
    @pytest.mark.parametrize("tau", (2, 3))
    def test_ring_candidates_within_pivotal_cand1(self, workload, dataset, tau):
        pivotal = PivotalSearcher(dataset, tau)
        ring = RingStringSearcher(dataset, tau)
        for query in workload.queries:
            cand1, _cand2 = pivotal.candidates(query)
            assert set(ring.candidates(query)) <= set(cand1)

    def test_candidates_contain_results(self, workload, dataset):
        ring = RingStringSearcher(dataset, 3)
        for query in workload.queries:
            outcome = ring.search(query)
            assert set(outcome.results) <= set(outcome.candidates)

    def test_pivotal_cand2_within_cand1(self, workload, dataset):
        pivotal = PivotalSearcher(dataset, 3)
        for query in workload.queries:
            cand1, cand2 = pivotal.candidates(query)
            assert set(cand2) <= set(cand1)

    def test_pivotal_reports_extra_counters(self, workload, dataset):
        outcome = PivotalSearcher(dataset, 2).search(workload.queries[0])
        assert outcome.extra["cand2"] <= outcome.extra["cand1"]

    def test_candidates_shrink_with_chain_length(self, workload, dataset):
        tau = 3
        searchers = {
            length: RingStringSearcher(dataset, tau, chain_length=length)
            for length in (1, 2, 4)
        }
        for query in workload.queries:
            previous = None
            for length in (1, 2, 4):
                current = set(searchers[length].candidates(query))
                if previous is not None:
                    assert current <= previous
                previous = current


class TestConstruction:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            StringDataset([], kappa=2)

    def test_invalid_tau(self, dataset):
        with pytest.raises(ValueError):
            PivotalSearcher(dataset, -1)

    def test_invalid_chain_length(self, dataset):
        with pytest.raises(ValueError):
            RingStringSearcher(dataset, 2, chain_length=0)

    def test_default_chain_length(self, dataset):
        assert RingStringSearcher(dataset, 1).chain_length == 2
        assert RingStringSearcher(dataset, 4).chain_length == 3
