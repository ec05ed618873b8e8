"""Threshold allocation for GPH (variable threshold allocation + integer reduction).

GPH assigns a per-partition threshold ``t_i`` with ``sum t_i = tau - m + 1``
(Theorem 5) and chooses the allocation with a query-specific cost model so
that skewed partitions -- those whose code distribution concentrates near the
query -- receive small (possibly ``-1``) thresholds and selective partitions
absorb the budget.

The cost model here is the greedy marginal-cost allocation: starting from
``t_i = -1`` everywhere (no partition produces candidates), repeatedly grant
one more unit of threshold to the partition whose next unit admits the fewest
additional data objects, until the budget ``tau - m + 1`` is reached.  The
per-unit cost is exact because the partition index can report the full
distance histogram of the query against each partition.

``even_thresholds`` provides the query-independent fallback allocation used
when no index (and hence no histogram) is available.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.hamming.index import PartitionIndex


def even_thresholds(tau: int, m: int) -> list[int]:
    """Spread ``tau - m + 1`` as evenly as possible over ``m`` parts (floor at -1)."""
    if m <= 0:
        raise ValueError("the number of parts must be positive")
    budget = tau - m + 1
    if budget < -m:
        budget = -m
    base, remainder = divmod(budget + m, m)  # distribute relative to -1 floor
    thresholds = [base - 1 + (1 if i < remainder else 0) for i in range(m)]
    return thresholds


def allocate_thresholds(
    index: PartitionIndex, query_codes: np.ndarray, tau: int
) -> list[int]:
    """Greedy cost-model allocation of ``tau - m + 1`` threshold units.

    Args:
        index: the per-partition index built over the dataset.
        query_codes: the query's per-part codes.
        tau: the Hamming distance threshold.

    Returns:
        A list of per-partition thresholds ``t_i >= -1`` summing to
        ``max(tau - m + 1, -m)``.
    """
    histograms = index.distance_histograms(index.query_distances(query_codes))
    return greedy_thresholds(histograms, tau)


def greedy_thresholds(histograms: np.ndarray, tau: int) -> list[int]:
    """The greedy allocation over precomputed ``(m, bins)`` distance histograms.

    Row ``i`` counts the data objects at each distance from the query on
    partition ``i`` (:meth:`PartitionIndex.distance_histograms`).
    """
    m = histograms.shape[0]
    budget = tau - m + 1
    thresholds = [-1] * m
    if budget <= -m:
        return thresholds
    rows = histograms.tolist()
    # Each heap entry is (marginal cost of raising t_part to next_value, part,
    # next_value).  Raising a threshold from t to t+1 admits exactly the
    # objects at distance t+1.
    heap: list[tuple[int, int, int]] = []
    for part in range(m):
        heapq.heappush(heap, (rows[part][0], part, 0))
    units = budget + m  # number of +1 steps from the all -1 start
    for _ in range(units):
        cost, part, value = heapq.heappop(heap)
        thresholds[part] = value
        next_value = value + 1
        if next_value < len(rows[part]):
            heapq.heappush(heap, (rows[part][next_value], part, next_value))
        else:
            # The partition is already fully open; further units are free.
            heapq.heappush(heap, (0, part, next_value))
    return thresholds
