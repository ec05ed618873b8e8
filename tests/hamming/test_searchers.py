"""Correctness and containment tests for the Hamming searchers.

The two key invariants from the paper:

* every searcher is exact -- its result set equals the brute-force scan;
* the Ring candidates are a subset of the GPH candidates and shrink as the
  chain length grows (Lemmas 1 and 4).

The array chain check is also compared, order included, against the
incremental per-object formulation kept below as a reference oracle.
"""

import numpy as np
import pytest

from repro.datasets.binary import clustered_binary_workload
from repro.hamming.dataset import BinaryVectorDataset
from repro.hamming.gph import GPHSearcher
from repro.hamming.linear import LinearHammingSearcher
from repro.hamming.ring import RingHammingSearcher


@pytest.fixture(scope="module")
def workload():
    return clustered_binary_workload(
        num_vectors=400, d=64, num_queries=8, num_clusters=8,
        cluster_fraction=0.5, cluster_radius=0.08, query_radius=0.1, seed=11,
    )


@pytest.fixture(scope="module")
def dataset(workload):
    return BinaryVectorDataset(workload.vectors, num_parts=8)


TAUS = (8, 16, 24)


def scalar_gph_candidates(searcher, query, tau):
    """Reference GPH first step: probe part by part, keep first appearances."""
    dataset = searcher.dataset
    query_codes = dataset.query_codes(query)
    thresholds = searcher.thresholds(query, tau)
    seen: set[int] = set()
    ordered: list[int] = []
    for part in range(dataset.m):
        ids, _distances = searcher.index.probe_arrays(
            part, int(query_codes[part]), thresholds[part]
        )
        for obj_id in ids.tolist():
            if obj_id not in seen:
                seen.add(obj_id)
                ordered.append(obj_id)
    return ordered


def scalar_ring_candidates(searcher, query, tau):
    """Reference pigeonring chain check: incremental, one object at a time.

    Parts are probed in order; each probed object's chain from the probing
    part is checked prefix by prefix (Theorem 7), box values are cached per
    object, and a chain failing at offset ``o`` rules out the starts up to
    ``o`` parts ahead for that object (Corollary 2).
    """
    dataset = searcher.dataset
    m = dataset.m
    length = searcher.chain_length
    query_codes = dataset.query_codes(query)
    thresholds = searcher.thresholds(query, tau)
    part_codes = dataset.part_codes
    query_code_ints = [int(code) for code in query_codes]
    chain_bounds = [
        [
            sum(thresholds[(start + offset) % m] for offset in range(plen)) + plen - 1
            for plen in range(1, length + 1)
        ]
        for start in range(m)
    ]
    emitted: set[int] = set()
    ordered: list[int] = []
    skip_state: dict[int, set[int]] = {}
    box_cache: dict[int, dict[int, int]] = {}
    for part in range(m):
        threshold = thresholds[part]
        if threshold < 0:
            continue
        probe_ids, probe_distances = searcher.index.probe_arrays(
            part, query_code_ints[part], threshold
        )
        for obj_id, part_distance in zip(probe_ids.tolist(), probe_distances.tolist()):
            if obj_id in emitted:
                continue
            skips = skip_state.get(obj_id)
            if skips is not None and part in skips:
                continue
            cache = box_cache.setdefault(obj_id, {})
            cache[part] = part_distance
            bounds = chain_bounds[part]
            running = 0
            passed = True
            for offset in range(length):
                box_index = (part + offset) % m
                value = cache.get(box_index)
                if value is None:
                    value = (
                        int(part_codes[obj_id, box_index]) ^ query_code_ints[box_index]
                    ).bit_count()
                    cache[box_index] = value
                running += value
                if running > bounds[offset]:
                    if skips is None:
                        skips = set()
                        skip_state[obj_id] = skips
                    for skipped in range(offset + 1):
                        skips.add((part + skipped) % m)
                    passed = False
                    break
            if passed:
                emitted.add(obj_id)
                ordered.append(obj_id)
    return ordered


class TestExactness:
    @pytest.mark.parametrize("tau", TAUS)
    def test_gph_matches_linear_scan(self, workload, dataset, tau):
        gph = GPHSearcher(dataset)
        linear = LinearHammingSearcher(dataset)
        for query in workload.queries:
            assert sorted(gph.search(query, tau).results) == sorted(
                linear.search(query, tau).results
            )

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("chain_length", (1, 2, 4, 8))
    def test_ring_matches_linear_scan(self, workload, dataset, tau, chain_length):
        ring = RingHammingSearcher(dataset, chain_length=chain_length)
        linear = LinearHammingSearcher(dataset)
        for query in workload.queries:
            assert sorted(ring.search(query, tau).results) == sorted(
                linear.search(query, tau).results
            )

    @pytest.mark.parametrize("tau", TAUS)
    def test_even_allocation_is_also_exact(self, workload, dataset, tau):
        ring = RingHammingSearcher(dataset, chain_length=4, use_cost_model=False)
        linear = LinearHammingSearcher(dataset)
        for query in workload.queries:
            assert sorted(ring.search(query, tau).results) == sorted(
                linear.search(query, tau).results
            )


class TestCandidateContainment:
    @pytest.mark.parametrize("tau", TAUS)
    def test_ring_candidates_subset_of_gph(self, workload, dataset, tau):
        gph = GPHSearcher(dataset)
        for chain_length in (2, 4, 6):
            ring = RingHammingSearcher(dataset, chain_length=chain_length)
            for query in workload.queries:
                ring_candidates = set(ring.candidates(query, tau))
                gph_candidates = set(gph.candidates(query, tau))
                assert ring_candidates <= gph_candidates

    @pytest.mark.parametrize("tau", TAUS)
    def test_candidates_shrink_with_chain_length(self, workload, dataset, tau):
        searchers = {
            length: RingHammingSearcher(dataset, chain_length=length)
            for length in (1, 2, 4, 8)
        }
        for query in workload.queries:
            previous = None
            for length in (1, 2, 4, 8):
                current = set(searchers[length].candidates(query, tau))
                if previous is not None:
                    assert current <= previous
                previous = current

    def test_chain_length_one_equals_gph(self, workload, dataset):
        gph = GPHSearcher(dataset)
        ring = RingHammingSearcher(dataset, chain_length=1)
        for query in workload.queries:
            assert set(ring.candidates(query, 16)) == set(gph.candidates(query, 16))

    def test_candidates_contain_results(self, workload, dataset):
        ring = RingHammingSearcher(dataset, chain_length=6)
        for query in workload.queries:
            outcome = ring.search(query, 16)
            assert set(outcome.results) <= set(outcome.candidates)


class TestReferenceOracle:
    """The array first step and chain check emit the reference lists, order included."""

    ORACLE_TAUS = (2, 5, 8, 16, 24, 40, 64)

    @pytest.mark.parametrize("use_cost_model", (True, False))
    def test_ring_matches_scalar_chain_check(self, workload, dataset, use_cost_model):
        for chain_length in range(1, dataset.m + 3):
            ring = RingHammingSearcher(
                dataset, chain_length=chain_length, use_cost_model=use_cost_model
            )
            for tau in self.ORACLE_TAUS:
                for query in workload.queries:
                    assert ring.candidates(query, tau) == scalar_ring_candidates(
                        ring, query, tau
                    )

    @pytest.mark.parametrize("use_cost_model", (True, False))
    def test_gph_matches_scalar_first_step(self, workload, dataset, use_cost_model):
        gph = GPHSearcher(dataset, use_cost_model=use_cost_model)
        for tau in self.ORACLE_TAUS:
            for query in workload.queries:
                assert gph.candidates(query, tau) == scalar_gph_candidates(gph, query, tau)

    def test_oracle_taus_disable_partitions(self, workload, dataset):
        # The low taus leave the cost model budget for only some parts.
        ring = RingHammingSearcher(dataset)
        for tau in (2, 5):
            for query in workload.queries:
                thresholds = ring.thresholds(query, tau)
                assert thresholds.count(-1) >= dataset.m - tau - 1

    def test_query_without_probes(self, workload, dataset):
        # Part 0 of the query takes a code no data object has; at tau = 0
        # the cost model spends its single unit there and nothing is probed.
        gph = GPHSearcher(dataset)
        present = set(gph.index.distinct_codes(0).tolist())
        width = dataset.partitioning.widths[0]
        missing = next(code for code in range(1 << width) if code not in present)
        query = np.array(workload.queries[0], dtype=np.uint8)
        query[:width] = [(missing >> bit) & 1 for bit in range(width)]
        tau = 0
        assert gph.thresholds(query, tau) == [0] + [-1] * (dataset.m - 1)
        ids, _distances = gph.index.probe_arrays(0, missing, 0)
        assert ids.size == 0
        for chain_length in (1, 3, dataset.m):
            ring = RingHammingSearcher(dataset, chain_length=chain_length)
            assert ring.candidates(query, tau) == []
            assert scalar_ring_candidates(ring, query, tau) == []
        assert gph.candidates(query, tau) == []


class TestSearchResultAccounting:
    def test_result_counts(self, workload, dataset):
        ring = RingHammingSearcher(dataset, chain_length=4)
        outcome = ring.search(workload.queries[0], 16)
        assert outcome.num_candidates == len(outcome.candidates)
        assert outcome.num_results == len(outcome.results)
        assert outcome.false_positives >= 0
        assert outcome.total_time >= 0.0

    def test_invalid_chain_length(self, dataset):
        with pytest.raises(ValueError):
            RingHammingSearcher(dataset, chain_length=0)

    def test_chain_length_clamped_to_m(self, dataset):
        searcher = RingHammingSearcher(dataset, chain_length=100)
        assert searcher.chain_length == dataset.m

    def test_linear_scan_counts_everything_as_candidate(self, workload, dataset):
        linear = LinearHammingSearcher(dataset)
        outcome = linear.search(workload.queries[0], 16)
        assert outcome.num_candidates == len(dataset)


class TestExample9:
    """Example 9 of the paper: tau = 3, m = 3, T = (0, 1, 0)."""

    def test_example_9_filtering(self):
        x = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1], dtype=np.uint8)
        q = np.array([0, 0, 0, 0, 1, 1, 1, 0, 0, 1, 1, 1], dtype=np.uint8)
        dataset = BinaryVectorDataset(x.reshape(1, -1), num_parts=3)
        # With the even allocation T = (1, 0, 0) (sum = tau - m + 1 = 1), GPH
        # lets x through: part 0 is within its threshold.
        gph = GPHSearcher(dataset, use_cost_model=False)
        assert gph.candidates(q, tau=3) == [0]
        # H(x, q) = 4 > 3, so x is a false positive for GPH...
        assert gph.search(q, tau=3).results == []
        # ...and the pigeonring check at l = 2 filters it: b0 + b1 = 3 exceeds
        # t0 + t1 + 1 = 2, exactly as in the paper's Example 9.
        ring = RingHammingSearcher(dataset, chain_length=2, use_cost_model=False)
        assert ring.candidates(q, tau=3) == []
