"""Pigeonring-accelerated Hamming distance search (Section 6.1).

The Ring searcher keeps GPH's first step (per-partition index probes with the
cost-model thresholds) unchanged, and adds the second step of Section 7, the
prefix-viable chain check under Theorem 7 (integer reduction).  An object is
a candidate iff some start part ``p`` has every chain prefix passing: for
``l' = 1 .. l``, ``||c_p^{l'}||_1 <= l' - 1 + sum t_j`` over the ``l'``
parts from ``p`` (cyclically).  The ``l' = 1`` test is exactly the probe, so
only probed objects are checked, and they are checked all at once: one
``(U, m)`` matrix of box distances for the ``U`` probed ids, and one
running-sum comparison per chain length across every start.

The incremental formulation skips, after a chain from ``p`` fails at offset
``o``, the starts ``p + s`` with ``s <= o`` (Corollary 2).  The skip never
changes the outcome: the prefix of length ``s`` passed, so the boxes from
``p + s`` to ``p + o`` exceed their bound, and the chain from ``p + s``
fails at length ``o - s + 1``.  Candidates are emitted in the incremental
order: by the first passing start part, then in that part's probe order
(part code, then id).  With ``chain_length=1`` the searcher is exactly GPH.
"""

from __future__ import annotations

import numpy as np

from repro.hamming.dataset import BinaryVectorDataset
from repro.hamming.gph import GPHSearcher
from repro.hamming.index import PartitionIndex


class RingHammingSearcher(GPHSearcher):
    """Pigeonring searcher for Hamming distance.

    Args:
        dataset: the indexed collection.
        chain_length: the chain length ``l``; the paper finds ``l = 5`` or
            ``6`` best overall for Hamming search.
        use_cost_model: same switch as :class:`repro.hamming.gph.GPHSearcher`;
            the paper uses the same allocation for Ring and GPH.
    """

    def __init__(
        self,
        dataset: BinaryVectorDataset,
        chain_length: int = 5,
        use_cost_model: bool = True,
        index: PartitionIndex | None = None,
    ):
        if chain_length < 1:
            raise ValueError("chain_length must be at least 1")
        super().__init__(dataset, use_cost_model=use_cost_model, index=index)
        self._chain_length = min(chain_length, dataset.m)

    @property
    def chain_length(self) -> int:
        return self._chain_length

    def candidates(self, query: np.ndarray, tau: int) -> list[int]:
        """Candidates surviving the prefix-viable chain check of length ``l``."""
        query_codes, thresholds, probed, probed_parts = self._first_step(query, tau)
        if not probed.size:
            return []
        m = self._dataset.m
        length = self._chain_length
        hit = np.zeros(len(self._dataset), dtype=bool)
        hit[probed] = True
        ids = np.flatnonzero(hit)
        # boxes[j, u]: box distance of object ids[u] on part j; the first
        # l - 1 parts repeat below part m - 1, so every chain (cyclic, from
        # any start) reads consecutive rows.
        boxes = np.empty((m + length - 1, ids.size), dtype=np.int64)
        xor = (self._dataset.part_codes[ids] ^ query_codes).T
        np.bitwise_count(xor, out=boxes[:m], casting="unsafe")
        boxes[m:] = boxes[: length - 1]
        limits = np.asarray(thresholds + thresholds[: length - 1], dtype=np.int64)
        # passing[p, u]: every chain prefix from start p checked so far holds,
        # against the Theorem-7 bound (sum of the l' thresholds plus l' - 1).
        running = boxes[:m].copy()
        bound = limits[:m].copy()
        passing = running <= bound[:, None]
        for offset in range(1, length):
            running += boxes[offset : offset + m]
            bound += limits[offset : offset + m] + 1
            passing &= running <= bound[:, None]

        # Emit each object at its first passing start, in that part's probe
        # order: exactly the probe's (id, part) pairs where the part is the
        # object's first passing start.
        first_start = np.full(ids.size, -1, dtype=np.int64)
        for start in range(m - 1, -1, -1):
            np.copyto(first_start, start, where=passing[start])
        first = np.full(len(self._dataset), -1, dtype=np.int64)
        first[ids] = first_start
        return probed[first[probed] == probed_parts].tolist()
