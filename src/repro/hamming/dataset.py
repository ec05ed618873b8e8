"""Dataset container for Hamming distance search."""

from __future__ import annotations

import numpy as np

from repro.hamming.bitvec import as_bit_matrix, pack_words, packed_hamming_distances
from repro.hamming.partition import Partitioning, default_num_parts


class BinaryVectorDataset:
    """A collection of ``d``-dimensional binary vectors with partition codes.

    The dataset precomputes, once, everything the searchers need per data
    object: the packed uint64 words used by verification and the per-part
    integer codes used by the partition index and by the chain check.

    Args:
        vectors: ``(n, d)`` array of 0/1 values.
        num_parts: the number of partitions ``m``; defaults to the paper's
            ``floor(d / 16)``.
    """

    def __init__(self, vectors: np.ndarray, num_parts: int | None = None):
        self._vectors = as_bit_matrix(vectors)
        if self._vectors.ndim != 2 or self._vectors.shape[0] == 0:
            raise ValueError("the dataset needs at least one vector")
        self._d = self._vectors.shape[1]
        m = default_num_parts(self._d) if num_parts is None else num_parts
        self._partitioning = Partitioning(self._d, m)
        self._part_codes = self._partitioning.part_codes(self._vectors)
        self._packed = pack_words(self._vectors)
        # Query encoding: bit j of the vector lands at bit ``j - start`` of
        # its part's code, and the parts are summed in one reduceat.
        starts = [start for start, _end in self._partitioning.boundaries]
        self._part_starts = np.asarray(starts, dtype=np.int64)
        self._bit_shifts = np.arange(self._d, dtype=np.int64) - np.repeat(
            self._part_starts, self._partitioning.widths
        )

    @property
    def vectors(self) -> np.ndarray:
        return self._vectors

    @property
    def d(self) -> int:
        return self._d

    @property
    def m(self) -> int:
        return self._partitioning.m

    @property
    def partitioning(self) -> Partitioning:
        return self._partitioning

    @property
    def part_codes(self) -> np.ndarray:
        """``(n, m)`` integer codes of every part of every vector."""
        return self._part_codes

    @property
    def packed(self) -> np.ndarray:
        """``(n, n_words)`` packed uint64 representation."""
        return self._packed

    def __len__(self) -> int:
        return self._vectors.shape[0]

    def query_codes(self, query: np.ndarray) -> np.ndarray:
        """Per-part integer codes of a query vector (``(m,)`` int64)."""
        vector = np.asarray(query).reshape(-1)
        if vector.shape[0] != self._d:
            raise ValueError(f"expected a {self._d}-dimensional query, got {vector.shape[0]}")
        if ((vector != 0) & (vector != 1)).any():
            raise ValueError("binary vectors may only contain 0 and 1")
        bits = vector.astype(np.int64)
        return np.add.reduceat(bits << self._bit_shifts, self._part_starts)

    def distances_to(self, query: np.ndarray) -> np.ndarray:
        """Full Hamming distances from the query to every data vector."""
        query_words = pack_words(np.asarray(query).reshape(1, -1))[0]
        return packed_hamming_distances(query_words, self._packed)

    def distances_to_subset(self, query: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Full Hamming distances from the query to the given data ids only."""
        ids = np.asarray(ids, dtype=np.int64)
        query_words = pack_words(np.asarray(query).reshape(1, -1))[0]
        return packed_hamming_distances(query_words, self._packed[ids])
