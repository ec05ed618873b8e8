"""The GPH baseline for Hamming distance search (pigeonhole principle).

GPH [72] partitions the dimensions into ``m`` disjoint parts, allocates
per-part thresholds with a cost model such that ``sum t_i = tau - m + 1``
(variable threshold allocation + integer reduction, Theorem 5), probes the
per-partition index for parts within their thresholds, unions the matching
object ids, and verifies each candidate with a full Hamming distance
computation.
"""

from __future__ import annotations

import numpy as np

from repro.common.obs import span
from repro.common.stats import SearchResult, Timer
from repro.hamming.cost_model import even_thresholds, greedy_thresholds
from repro.hamming.dataset import BinaryVectorDataset
from repro.hamming.index import PartitionIndex


class GPHSearcher:
    """Pigeonhole-principle baseline searcher for Hamming distance.

    Args:
        dataset: the indexed collection.
        use_cost_model: allocate thresholds with the query-specific greedy
            cost model (the GPH behaviour).  When False an even allocation is
            used, which isolates the effect of the allocation itself in the
            ablation benchmarks.
    """

    def __init__(
        self,
        dataset: BinaryVectorDataset,
        use_cost_model: bool = True,
        index: PartitionIndex | None = None,
    ):
        self._dataset = dataset
        self._index = PartitionIndex(dataset) if index is None else index
        if self._index.dataset is not dataset:
            raise ValueError("the prebuilt index belongs to a different dataset")
        self._use_cost_model = use_cost_model

    @property
    def dataset(self) -> BinaryVectorDataset:
        return self._dataset

    @property
    def index(self) -> PartitionIndex:
        return self._index

    def thresholds(self, query: np.ndarray, tau: int) -> list[int]:
        """The per-partition thresholds used for this query."""
        query_codes = self._dataset.query_codes(query)
        return self._thresholds(self._index.query_distances(query_codes), tau)

    def _thresholds(self, distances: np.ndarray, tau: int) -> list[int]:
        if self._use_cost_model:
            return greedy_thresholds(self._index.distance_histograms(distances), tau)
        return even_thresholds(tau, self._dataset.m)

    def _first_step(
        self, query: np.ndarray, tau: int
    ) -> tuple[np.ndarray, list[int], np.ndarray, np.ndarray]:
        """Query codes, thresholds, and the probed ids with their probing parts.

        The code distances are computed once and feed both the cost-model
        histograms and the probe (:meth:`PartitionIndex.probe_all`).
        """
        query_codes = self._dataset.query_codes(query)
        distances = self._index.query_distances(query_codes)
        thresholds = self._thresholds(distances, tau)
        ids, parts = self._index.probe_all(distances, thresholds)
        return query_codes, thresholds, ids, parts

    def candidates(self, query: np.ndarray, tau: int) -> list[int]:
        """First-step candidates: ids with at least one part within its threshold.

        In probe order: by the first part that probes them, then by that
        part's postings order.
        """
        _query_codes, _thresholds, probed, _parts = self._first_step(query, tau)
        ids, first = np.unique(probed, return_index=True)
        return ids[np.argsort(first)].tolist()

    def search(self, query: np.ndarray, tau: int) -> SearchResult:
        timer = Timer()
        with span("candidates"):
            candidates = self.candidates(query, tau)
        candidate_time = timer.restart()
        with span("verify"):
            if candidates:
                ids = np.asarray(candidates, dtype=np.int64)
                distances = self._dataset.distances_to_subset(query, ids)
                results = ids[distances <= tau].tolist()
            else:
                results = []
        verify_time = timer.elapsed()
        return SearchResult(
            results=results,
            candidates=candidates,
            candidate_time=candidate_time,
            verify_time=verify_time,
        )
