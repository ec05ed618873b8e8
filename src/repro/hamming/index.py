"""Per-partition inverted index for Hamming distance search.

For each partition the index groups data-object ids by their part code.  At
query time the distinct codes of a partition are compared against the query's
code with a vectorised XOR + popcount, which yields, for every distinct code,
its distance to the query part.  The first step of candidate generation then
selects the codes within the partition's threshold and emits their object
ids -- exactly the viable single boxes of Section 7 -- and the same per-code
distances drive the GPH cost model.

The original GPH implementation enumerates all codes within distance ``t_i``
of the query code (bit-flip enumeration), which is the right trade-off in C++
with small thresholds.  Scanning the distinct codes vectorised in numpy
produces the identical set of viable boxes with far better constants in
Python; the substitution is documented in DESIGN.md and does not change any
candidate count.

Postings are stored CSR-style in flat arrays shared by all partitions: the
distinct codes of every part concatenated, one ``members`` array of object
ids grouped by (part, code), and global ``offsets`` into it.  A query makes
one pass over these arrays per step: the code distances
(:meth:`PartitionIndex.query_distances`), the cost-model histograms
(:meth:`PartitionIndex.distance_histograms`) and the probe
(:meth:`PartitionIndex.probe_all`, one CSR gather over the viable codes of
every part).  The arrays are derived in the constructor and in
:meth:`PartitionIndex.from_state`, so all searchers over a dataset (one per
threshold) share them read-only; :meth:`PartitionIndex.state` slices them
back into the per-part arrays, so the persisted layout is unchanged.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.common.scratch import csr_gather_indices
from repro.hamming.bitvec import code_hamming_distances
from repro.hamming.dataset import BinaryVectorDataset


class PartitionIndex:
    """Inverted index from (partition, part code) to data-object ids."""

    def __init__(self, dataset: BinaryVectorDataset):
        codes = dataset.part_codes
        n = codes.shape[0]
        distinct_codes: list[np.ndarray] = []
        offsets: list[np.ndarray] = []
        members: list[np.ndarray] = []
        for part in range(dataset.m):
            column = codes[:, part]
            # A stable sort keeps object ids ascending within each code group,
            # matching the historical nonzero()-based postings order.
            order = np.argsort(column, kind="stable").astype(np.int64)
            distinct, starts = np.unique(column[order], return_index=True)
            distinct_codes.append(distinct.astype(np.int64))
            bounds = np.empty(starts.size + 1, dtype=np.int64)
            bounds[:-1] = starts
            bounds[-1] = n
            offsets.append(bounds)
            members.append(order)
        self._build(dataset, distinct_codes, offsets, members)

    @classmethod
    def from_state(
        cls, dataset: BinaryVectorDataset, state: Mapping[str, np.ndarray]
    ) -> "PartitionIndex":
        """Restore an index from :meth:`state` arrays without rebuilding it."""
        index = cls.__new__(cls)
        parts = range(dataset.m)
        index._build(
            dataset,
            [np.asarray(state[f"codes_{part}"], dtype=np.int64) for part in parts],
            [np.asarray(state[f"offsets_{part}"], dtype=np.int64) for part in parts],
            [np.asarray(state[f"members_{part}"], dtype=np.int64) for part in parts],
        )
        return index

    def _build(
        self,
        dataset: BinaryVectorDataset,
        distinct_codes: Sequence[np.ndarray],
        offsets: Sequence[np.ndarray],
        members: Sequence[np.ndarray],
    ) -> None:
        """Lay the per-part postings out as the flat arrays a query scans."""
        self._dataset = dataset
        m = dataset.m
        n = len(dataset)
        sizes = [len(codes) for codes in distinct_codes]
        ends = np.cumsum(sizes).tolist()
        #: ``[lo, hi)`` range of each partition's codes in the flat arrays
        self._code_ranges = list(zip([0, *ends[:-1]], ends))
        self._codes = np.concatenate(distinct_codes)
        self._members = np.concatenate(members)
        #: postings of flat code ``c``: ``members[offsets[c]:offsets[c + 1]]``
        self._offsets = np.concatenate(
            [offsets[part][:-1] + part * n for part in range(m)] + [np.asarray([m * n])]
        ).astype(np.int64)
        #: posting counts per flat code, as ``bincount`` weights
        self._weights = np.diff(self._offsets).astype(np.float64)
        self._bins = max(dataset.partitioning.widths) + 1

    def state(self) -> dict[str, np.ndarray]:
        """Flat arrays fully describing the index (for ``np.savez`` containers)."""
        n = len(self._dataset)
        arrays: dict[str, np.ndarray] = {}
        for part, (lo, hi) in enumerate(self._code_ranges):
            arrays[f"codes_{part}"] = self._codes[lo:hi]
            arrays[f"offsets_{part}"] = self._offsets[lo : hi + 1] - part * n
            arrays[f"members_{part}"] = self._members[part * n : (part + 1) * n]
        return arrays

    @property
    def dataset(self) -> BinaryVectorDataset:
        return self._dataset

    @property
    def m(self) -> int:
        return self._dataset.m

    def distinct_codes(self, part: int) -> np.ndarray:
        """The distinct part codes present in the data for one partition."""
        lo, hi = self._code_ranges[part]
        return self._codes[lo:hi]

    def postings(self, part: int, code_position: int) -> np.ndarray:
        """Object ids whose part code is the ``code_position``-th distinct code."""
        flat = self._code_ranges[part][0] + code_position
        return self._members[self._offsets[flat] : self._offsets[flat + 1]]

    def query_distances(self, query_codes: np.ndarray) -> np.ndarray:
        """Distances from the query's part codes to every distinct code of every part.

        One entry per flat code, partitions in order: the per-part slices
        are what :meth:`code_distances` returns for each part.
        """
        xor = np.empty_like(self._codes)
        for part, (lo, hi) in enumerate(self._code_ranges):
            np.bitwise_xor(self._codes[lo:hi], query_codes[part], out=xor[lo:hi])
        return np.bitwise_count(xor)

    def code_distances(self, part: int, query_code: int) -> np.ndarray:
        """Distances from the query's part code to every distinct code of the partition."""
        return code_hamming_distances(query_code, self.distinct_codes(part))

    def distance_histograms(self, distances: np.ndarray) -> np.ndarray:
        """Number of data objects at each part distance from the query.

        ``distances`` is :meth:`query_distances`' output.  Row ``i`` of the
        ``(m, max_width + 1)`` result counts the objects at distance
        ``0 .. max_width`` on partition ``i`` -- the exact per-partition
        candidate-count profile the GPH cost model allocates thresholds
        against (entries beyond a narrower part's width stay zero).
        """
        histograms = np.empty((self.m, self._bins), dtype=np.int64)
        for part, (lo, hi) in enumerate(self._code_ranges):
            histograms[part] = np.bincount(
                distances[lo:hi], weights=self._weights[lo:hi], minlength=self._bins
            )
        return histograms

    def probe_all(
        self, distances: np.ndarray, thresholds: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ids of the objects within their part's threshold, and the probing part.

        ``ids`` is the concatenation, over partitions ``0 .. m - 1``, of each
        part's probe in :meth:`probe_arrays` order, so an object appears
        once per part it is probed on; ``parts[i]`` is the partition that
        probed ``ids[i]``.  A threshold of ``-1`` (the cost model may
        disable a partition) selects nothing on that part.
        """
        selected = [
            lo + np.flatnonzero(distances[lo:hi] <= threshold)
            for (lo, hi), threshold in zip(self._code_ranges, thresholds)
            if threshold >= 0
        ]
        flat = np.concatenate(selected) if selected else np.empty(0, dtype=np.int64)
        positions = csr_gather_indices(self._offsets[flat], self._offsets[flat + 1])
        # Every partition holds exactly n postings, laid out part-major.
        return self._members[positions], positions // len(self._dataset)

    def probe_arrays(
        self, part: int, query_code: int, threshold: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ids and part distances of objects within ``threshold`` on this part.

        The postings of every viable code, in code order, with their
        per-code distances repeated, so the result is a pair of equally long
        int64 arrays.  A negative threshold selects nothing.
        """
        distances = self.code_distances(part, query_code)
        selected = np.flatnonzero(distances <= threshold)
        flat = self._code_ranges[part][0] + selected
        starts, ends = self._offsets[flat], self._offsets[flat + 1]
        ids = self._members[csr_gather_indices(starts, ends)]
        return ids, np.repeat(distances[selected], ends - starts)
