"""Tests for the partition index and the GPH threshold cost model."""

import heapq

import numpy as np
import pytest

from repro.hamming.bitvec import hamming_distance
from repro.hamming.cost_model import allocate_thresholds, even_thresholds
from repro.hamming.dataset import BinaryVectorDataset
from repro.hamming.index import PartitionIndex


def small_dataset(seed=0, n=60, d=32, m=4):
    rng = np.random.default_rng(seed)
    vectors = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
    return BinaryVectorDataset(vectors, num_parts=m), rng


class TestDataset:
    def test_properties(self):
        dataset, _ = small_dataset()
        assert len(dataset) == 60
        assert dataset.d == 32
        assert dataset.m == 4
        assert dataset.part_codes.shape == (60, 4)

    def test_default_num_parts(self):
        rng = np.random.default_rng(0)
        vectors = rng.integers(0, 2, size=(5, 256), dtype=np.uint8)
        assert BinaryVectorDataset(vectors).m == 16

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            BinaryVectorDataset(np.zeros((0, 16), dtype=np.uint8))

    def test_distances_to(self):
        dataset, rng = small_dataset()
        query = rng.integers(0, 2, size=32, dtype=np.uint8)
        fast = dataset.distances_to(query)
        slow = np.array([hamming_distance(v, query) for v in dataset.vectors])
        assert np.array_equal(fast, slow)

    def test_distances_to_subset(self):
        dataset, rng = small_dataset()
        query = rng.integers(0, 2, size=32, dtype=np.uint8)
        ids = np.array([3, 7, 11])
        subset = dataset.distances_to_subset(query, ids)
        full = dataset.distances_to(query)
        assert np.array_equal(subset, full[ids])

    def test_query_codes_rejects_wrong_dimensionality(self):
        dataset, _ = small_dataset()
        with pytest.raises(ValueError):
            dataset.query_codes(np.zeros(16, dtype=np.uint8))

    def test_query_codes_reject_non_binary_values(self):
        dataset, _ = small_dataset()
        for value in (2, -1, 0.5):
            with pytest.raises(ValueError):
                dataset.query_codes(np.full(32, value))

    @pytest.mark.parametrize("d, m", [(32, 4), (35, 4), (10, 3), (7, 7)])
    def test_query_codes_match_partition_codes(self, d, m):
        rng = np.random.default_rng(d)
        vectors = rng.integers(0, 2, size=(6, d), dtype=np.uint8)
        dataset = BinaryVectorDataset(vectors, num_parts=m)
        for vector in vectors:
            for query in (vector, vector.astype(bool), vector.astype(float)):
                codes = dataset.query_codes(query)
                assert codes.dtype == np.int64
                expected = dataset.partitioning.part_codes(vector.reshape(1, -1))[0]
                np.testing.assert_array_equal(codes, expected)


class TestPartitionIndex:
    def test_postings_cover_all_objects(self):
        dataset, _ = small_dataset()
        index = PartitionIndex(dataset)
        for part in range(dataset.m):
            total = sum(
                len(index.postings(part, pos))
                for pos in range(len(index.distinct_codes(part)))
            )
            assert total == len(dataset)

    def test_probe_returns_objects_within_threshold(self):
        dataset, rng = small_dataset()
        index = PartitionIndex(dataset)
        query = rng.integers(0, 2, size=32, dtype=np.uint8)
        query_codes = dataset.query_codes(query)
        part, threshold = 1, 2
        ids, _distances = index.probe_arrays(part, int(query_codes[part]), threshold)
        assert len(set(ids.tolist())) == len(ids)
        # Reference: recompute the per-part distance directly.
        start, end = dataset.partitioning.boundaries[part]
        expected = {
            i
            for i, vector in enumerate(dataset.vectors)
            if hamming_distance(vector[start:end], query[start:end]) <= threshold
        }
        assert set(ids.tolist()) == expected

    def test_probe_reports_correct_distances(self):
        dataset, rng = small_dataset()
        index = PartitionIndex(dataset)
        query = rng.integers(0, 2, size=32, dtype=np.uint8)
        query_codes = dataset.query_codes(query)
        start, end = dataset.partitioning.boundaries[0]
        ids, distances = index.probe_arrays(0, int(query_codes[0]), 3)
        assert len(ids) > 0
        for obj, distance in zip(ids.tolist(), distances.tolist()):
            expected = hamming_distance(dataset.vectors[obj][start:end], query[start:end])
            assert distance == expected

    def test_negative_threshold_probes_nothing(self):
        dataset, rng = small_dataset()
        index = PartitionIndex(dataset)
        query = rng.integers(0, 2, size=32, dtype=np.uint8)
        query_codes = dataset.query_codes(query)
        ids, distances = index.probe_arrays(0, int(query_codes[0]), -1)
        assert ids.size == 0 and distances.size == 0

    def test_probe_arrays_matches_postings(self):
        dataset, rng = small_dataset()
        index = PartitionIndex(dataset)
        query = rng.integers(0, 2, size=32, dtype=np.uint8)
        query_codes = dataset.query_codes(query)
        for part in range(dataset.m):
            distances = index.code_distances(part, int(query_codes[part]))
            for threshold in (-1, 0, 2, 8):
                ids, probed = index.probe_arrays(part, int(query_codes[part]), threshold)
                assert ids.dtype == np.int64 and probed.dtype == np.int64
                assert len(ids) == len(probed)
                # Reference: the viable codes' postings, in code order.
                pairs = [
                    (obj, int(distances[pos]))
                    for pos in range(len(index.distinct_codes(part)))
                    if distances[pos] <= threshold
                    for obj in index.postings(part, pos).tolist()
                ]
                assert pairs == list(zip(ids.tolist(), probed.tolist()))

    def test_probe_all_concatenates_part_probes(self):
        dataset, rng = small_dataset()
        index = PartitionIndex(dataset)
        query = rng.integers(0, 2, size=32, dtype=np.uint8)
        query_codes = dataset.query_codes(query)
        distances = index.query_distances(query_codes)
        for thresholds in ([-1, 0, 2, 8], [3, -1, -1, 1], [8, 8, 8, 8], [-1] * 4):
            probes = [
                index.probe_arrays(part, int(query_codes[part]), threshold)[0]
                for part, threshold in enumerate(thresholds)
            ]
            ids, parts = index.probe_all(distances, thresholds)
            np.testing.assert_array_equal(ids, np.concatenate(probes))
            np.testing.assert_array_equal(
                parts, np.repeat(np.arange(dataset.m), [len(p) for p in probes])
            )

    def test_query_distances_cover_every_part(self):
        dataset, rng = small_dataset()
        index = PartitionIndex(dataset)
        query = rng.integers(0, 2, size=32, dtype=np.uint8)
        query_codes = dataset.query_codes(query)
        expected = np.concatenate(
            [index.code_distances(part, int(query_codes[part])) for part in range(dataset.m)]
        )
        np.testing.assert_array_equal(index.query_distances(query_codes), expected)

    def test_state_round_trip(self):
        dataset, rng = small_dataset()
        index = PartitionIndex(dataset)
        restored = PartitionIndex.from_state(dataset, index.state())
        query = rng.integers(0, 2, size=32, dtype=np.uint8)
        query_codes = dataset.query_codes(query)
        for part in range(dataset.m):
            np.testing.assert_array_equal(
                index.distinct_codes(part), restored.distinct_codes(part)
            )
            a = index.probe_arrays(part, int(query_codes[part]), 3)
            b = restored.probe_arrays(part, int(query_codes[part]), 3)
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])
        for key, value in index.state().items():
            np.testing.assert_array_equal(restored.state()[key], value)

    def test_distance_histogram_sums_to_dataset_size(self):
        # Uneven widths (35 dimensions over 4 parts: 9, 9, 9, 8) pad the
        # narrower part's row with zeros.
        rng = np.random.default_rng(2)
        vectors = rng.integers(0, 2, size=(60, 35), dtype=np.uint8)
        dataset = BinaryVectorDataset(vectors, num_parts=4)
        index = PartitionIndex(dataset)
        query = rng.integers(0, 2, size=35, dtype=np.uint8)
        histograms = index.distance_histograms(
            index.query_distances(dataset.query_codes(query))
        )
        assert histograms.dtype == np.int64
        assert histograms.shape == (dataset.m, max(dataset.partitioning.widths) + 1)
        for part, (start, end) in enumerate(dataset.partitioning.boundaries):
            assert histograms[part].sum() == len(dataset)
            expected = np.bincount(
                [hamming_distance(v[start:end], query[start:end]) for v in vectors],
                minlength=histograms.shape[1],
            )
            np.testing.assert_array_equal(histograms[part], expected)


class TestThresholdAllocation:
    def test_even_thresholds_sum(self):
        assert sum(even_thresholds(10, 4)) == 10 - 4 + 1
        assert sum(even_thresholds(3, 4)) == 0

    def test_even_thresholds_floor(self):
        # tau small enough that some partitions must be disabled.
        thresholds = even_thresholds(1, 4)
        assert sum(thresholds) == 1 - 4 + 1
        assert min(thresholds) >= -1

    def test_cost_model_total_matches_integer_reduction(self):
        dataset, rng = small_dataset()
        index = PartitionIndex(dataset)
        query = rng.integers(0, 2, size=32, dtype=np.uint8)
        query_codes = dataset.query_codes(query)
        for tau in (4, 8, 12):
            thresholds = allocate_thresholds(index, query_codes, tau)
            assert sum(thresholds) == tau - dataset.m + 1
            assert all(t >= -1 for t in thresholds)

    def test_cost_model_prefers_selective_partitions(self):
        # Build a dataset where partition 0 is constant (everything matches the
        # query there) and partition 1 is diverse; the model should starve
        # partition 0.
        rng = np.random.default_rng(5)
        vectors = rng.integers(0, 2, size=(200, 32), dtype=np.uint8)
        vectors[:, :8] = 0
        dataset = BinaryVectorDataset(vectors, num_parts=4)
        index = PartitionIndex(dataset)
        query = np.zeros(32, dtype=np.uint8)
        thresholds = allocate_thresholds(index, dataset.query_codes(query), tau=9)
        assert thresholds[0] == min(thresholds)

    def test_cost_model_matches_per_part_histograms(self):
        # Reference: the greedy allocation over unpadded per-part histograms
        # (width + 1 entries each), computed from brute-force part distances.
        rng = np.random.default_rng(9)
        vectors = rng.integers(0, 2, size=(80, 35), dtype=np.uint8)
        vectors[:40, :9] = 0  # a skewed first part
        dataset = BinaryVectorDataset(vectors, num_parts=4)
        index = PartitionIndex(dataset)
        for trial in range(5):
            query = rng.integers(0, 2, size=35, dtype=np.uint8)
            histograms = [
                np.bincount(
                    [hamming_distance(v[start:end], query[start:end]) for v in vectors],
                    minlength=end - start + 1,
                ).tolist()
                for start, end in dataset.partitioning.boundaries
            ]
            for tau in (0, 2, 5, 9, 20, 35, 60):
                expected = [-1] * dataset.m
                heap = [(histograms[part][0], part, 0) for part in range(dataset.m)]
                heapq.heapify(heap)
                for _ in range(max(tau + 1, 0)):
                    _cost, part, value = heapq.heappop(heap)
                    expected[part] = value
                    nxt = value + 1
                    cost = histograms[part][nxt] if nxt < len(histograms[part]) else 0
                    heapq.heappush(heap, (cost, part, nxt))
                query_codes = dataset.query_codes(query)
                assert allocate_thresholds(index, query_codes, tau) == expected

    def test_invalid_even_thresholds(self):
        with pytest.raises(ValueError):
            even_thresholds(5, 0)
