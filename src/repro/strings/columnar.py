"""Columnar (batch-at-a-time) pigeonring string edit distance search.

:class:`ColumnarStringSearcher` keeps the exact filtering semantics of
:class:`repro.strings.ring.RingStringSearcher` but moves the hot loops from
per-posting Python dispatch to array kernels:

* the pivotal and prefix inverted indexes become CSR postings keyed by the
  extractor's global gram rank (rank equality is gram equality for any
  (query gram, data gram) pair: data grams all carry learned ranks and
  unseen query grams rank beyond the learned universe);
* Cand-1 generation gathers each matching posting slice once and applies
  the position-window, length and prefix-rank filters vectorised;
* per-candidate matched boxes are folded into uint64 bitmasks, a complete
  whole-string content-bound prefilter (``ceil(popcount(mask_x ^ mask_q)
  / 2) > tau`` implies ``ed > tau``) prunes candidates in bulk, and a
  vectorised fast-accept admits every candidate with ``l`` consecutive
  exactly-matched (zero-valued) boxes without touching the per-box lower
  bounds;
* the remaining candidates get their chain checked over the whole array at
  once: every box's content-bound lower bound is a windowed minimum over
  precomputed substring masks (one flat mask table for the record corpus,
  one per query), gathered and reduced in bulk; and
* survivors are verified with a per-query bit-parallel (Myers) matcher
  whose query masks are built once for the whole candidate batch.

Result ids are byte-identical to the scalar searcher's (both ascending);
the candidate set is a subset of the scalar one -- the extra content
prefilter is complete, so no true result is ever dropped.
"""

from __future__ import annotations

import numpy as np

from repro.common.obs import span
from repro.common.scratch import PerThread, Scratch, csr_gather_indices
from repro.common.stats import SearchResult, Timer
from repro.strings.dataset import StringDataset
from repro.strings.edit_distance import QueryMatcher
from repro.strings.pivotal import _Candidate
from repro.strings.qgrams import character_mask
from repro.strings.ring import RingStringSearcher

#: Box counts above this cannot be folded into a uint64 bitmask; such
#: thresholds (tau >= 64) fall back to the scalar candidate path.
_MAX_MASK_BOXES = 64

#: Largest alignment window (``kappa + tau``) for which the substring mask
#: tables are materialised; beyond it the undecided candidates run the
#: scalar chain check instead (the tables grow linearly in the window).
_MAX_WINDOW = 32

#: Cap on the whole-corpus substring mask table (entries, 8 bytes each --
#: 128 MB at the cap).  A corpus whose ``total_chars * window`` exceeds it
#: keeps the scalar chain check for undecided candidates instead of
#: materialising the table.
_MAX_TABLE_ENTRIES = 1 << 24


def _substring_mask_table(
    codes: np.ndarray, ends: np.ndarray, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Character masks of every substring of length ``1..window``.

    ``codes`` holds the ord codes of one or more concatenated texts and
    ``ends[i]`` the end offset (in ``codes``) of the text containing
    position ``i``, so substrings never cross text boundaries.  Returns
    ``(flat, offsets)``: the masks of substrings starting at position ``i``
    (shortest first) sit in ``flat[offsets[i]:offsets[i + 1]]``.
    """
    total = codes.size
    bits = np.left_shift(np.uint64(1), (codes % 64).astype(np.uint64))
    counts = np.minimum(ends - np.arange(total, dtype=np.int64), window)
    offsets = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # Width-by-width cumulative ORs written straight into the flat layout
    # (position-major, shortest substring first) -- no dense intermediate.
    flat = np.zeros(int(offsets[-1]), dtype=np.uint64)
    current = bits
    for width in range(1, window + 1):
        if width > 1:
            current = current[:-1] | bits[width - 1 :]
        starts = np.flatnonzero(counts >= width)
        if not starts.size:
            break
        # counts[s] >= width implies s + width <= ends[s] <= total, so every
        # such start indexes into ``current`` (length total - width + 1).
        flat[offsets[starts] + width - 1] = current[starts]
    return flat, offsets


class ColumnarStringSearcher(RingStringSearcher):
    """Array-kernel pigeonring searcher for string edit distance.

    Args:
        dataset: the indexed collection.
        tau: the edit distance threshold (prefixes depend on it).
        chain_length: chain length ``l``; the paper finds ``min(3, tau + 1)``
            best overall.
    """

    def __init__(self, dataset: StringDataset, tau: int, chain_length: int | None = None):
        super().__init__(dataset, tau, chain_length=chain_length)
        columns = dataset.columns()
        self._col_lengths = columns.lengths
        self._col_masks = columns.masks
        self._build_columns()
        self._scratch: PerThread = PerThread(Scratch)
        self._window = dataset.kappa + tau
        self._vector_chain = (
            self._window <= _MAX_WINDOW
            and int(self._col_lengths.sum()) * self._window <= _MAX_TABLE_ENTRIES
        )
        # The record-corpus substring mask table only pays off once a query
        # actually reaches the chain check on the "query" side; built lazily.
        self._rec_sub_flat: np.ndarray | None = None
        self._rec_sub_off: np.ndarray | None = None
        self._rec_base: np.ndarray | None = None

    def _build_columns(self) -> None:
        """Convert the dict indexes built by the scalar base into CSR."""
        extractor = self._dataset.extractor

        def to_csr(index: dict, width: int):
            items = sorted(
                (extractor.rank(gram), entries) for gram, entries in index.items()
            )
            keys = np.asarray([rank for rank, _ in items], dtype=np.int64)
            offsets = np.zeros(len(items) + 1, dtype=np.int64)
            np.cumsum([len(entries) for _, entries in items], out=offsets[1:])
            flat = [
                np.fromiter(
                    (entry[field] for _, entries in items for entry in entries),
                    dtype=np.int64,
                    count=int(offsets[-1]),
                )
                for field in range(width)
            ]
            return keys, offsets, flat

        keys, offsets, (objs, positions, boxes) = to_csr(self._pivotal_index, 3)
        self._piv_keys, self._piv_offsets = keys, offsets
        self._piv_objs, self._piv_positions, self._piv_boxes = objs, positions, boxes
        keys, offsets, (objs, positions) = to_csr(self._prefix_index, 2)
        self._pre_keys, self._pre_offsets = keys, offsets
        self._pre_objs, self._pre_positions = objs, positions
        if self._m <= _MAX_MASK_BOXES:
            # The dict indexes are only needed by the scalar fallback for
            # tau >= 64 (decidable now); otherwise they are dead weight.
            del self._pivotal_index
            del self._prefix_index
        self._col_last_rank = np.asarray(self._data_last_rank, dtype=np.int64)
        self._col_always = np.asarray(sorted(self._always_candidates), dtype=np.int64)
        # Per-record pivotal gram positions and character masks, one row per
        # record (rows of records without pivotal grams stay zero and are
        # never read: such records are always-candidates, never matched).
        num = len(self._dataset)
        self._piv_pos_mat = np.zeros((num, self._m), dtype=np.int64)
        self._piv_mask_mat = np.zeros((num, self._m), dtype=np.uint64)
        for obj_id, pivotal in enumerate(self._data_pivotal):
            if pivotal is None:
                continue
            for box, gram in enumerate(pivotal):
                self._piv_pos_mat[obj_id, box] = gram.position
                self._piv_mask_mat[obj_id, box] = character_mask(gram.gram)

    # -- candidate generation ----------------------------------------------

    def candidates(self, query: str) -> list[int]:
        cands, _generated = self._candidates_columnar(query)
        return cands.tolist()

    def _lookup(self, keys: np.ndarray, offsets: np.ndarray, rank: int) -> slice | None:
        slot = int(np.searchsorted(keys, rank))
        if slot >= keys.size or keys[slot] != rank:
            return None
        return slice(int(offsets[slot]), int(offsets[slot + 1]))

    def _candidates_columnar(self, query: str) -> tuple[np.ndarray, int]:
        """Candidate ids (ascending) plus the pre-filter candidate count."""
        plan = self.query_plan(query)
        tau = self._tau
        m = self._m
        length_q = len(query)
        lengths = self._col_lengths
        if plan.fallback:
            # The query cannot supply pivotal grams: verify every
            # length-compatible string (this includes the always-candidates).
            cands = np.flatnonzero(np.abs(lengths - length_q) <= tau).astype(np.int64)
            return cands, int(cands.size)
        if m > _MAX_MASK_BOXES:
            ordered = super().candidates(query)
            return np.asarray(ordered, dtype=np.int64), len(ordered)

        always = self._col_always
        if always.size:
            always = always[np.abs(lengths[always] - length_q) <= tau]

        extractor = self._dataset.extractor
        obj_parts: list[np.ndarray] = []
        box_parts: list[np.ndarray] = []
        # Case 1: a data pivotal gram matches a query gram ranked no later
        # than the query prefix's last gram, and the data prefix ends no
        # later than the query prefix.
        if self._piv_keys.size:
            for gram in plan.case1_grams:
                rows = self._lookup(self._piv_keys, self._piv_offsets, extractor.rank(gram.gram))
                if rows is None:
                    continue
                objs = self._piv_objs[rows]
                keep = (
                    (np.abs(self._piv_positions[rows] - gram.position) <= tau)
                    & (np.abs(lengths[objs] - length_q) <= tau)
                    & (self._col_last_rank[objs] <= plan.last_prefix_rank)
                )
                obj_parts.append(objs[keep])
                box_parts.append(self._piv_boxes[rows][keep])
        # Case 2: a query pivotal gram matches a data prefix gram and the
        # data prefix ends later than the query prefix.
        if self._pre_keys.size and plan.pivotal is not None:
            for box_index, gram in enumerate(plan.pivotal):
                rows = self._lookup(self._pre_keys, self._pre_offsets, extractor.rank(gram.gram))
                if rows is None:
                    continue
                objs = self._pre_objs[rows]
                keep = (
                    (np.abs(self._pre_positions[rows] - gram.position) <= tau)
                    & (np.abs(lengths[objs] - length_q) <= tau)
                    & (self._col_last_rank[objs] > plan.last_prefix_rank)
                )
                objs = objs[keep]
                obj_parts.append(objs)
                box_parts.append(np.full(objs.size, box_index, dtype=np.int64))

        obj_all = np.concatenate(obj_parts) if obj_parts else np.empty(0, dtype=np.int64)
        if not obj_all.size:
            return always.copy(), int(always.size)
        box_all = np.concatenate(box_parts)

        # Fold the matched (object, box) pairs into one uint64 bitmask per
        # candidate: unique pair keys, then a bitwise-or over each object's
        # contiguous run.
        pair_keys = np.unique(obj_all * m + box_all)
        pair_objs = pair_keys // m
        pair_boxes = (pair_keys % m).astype(np.uint64)
        matched, first = np.unique(pair_objs, return_index=True)
        masks = np.bitwise_or.reduceat(np.uint64(1) << pair_boxes, first)
        generated = int(matched.size + always.size)

        # Complete whole-string content prefilter, evaluated in bulk.
        query_mask = np.uint64(character_mask(query))
        bound = (np.bitwise_count(self._col_masks[matched] ^ query_mask) + np.uint64(1)) >> 1
        keep = bound <= tau
        matched = matched[keep]
        masks = masks[keep]

        # Vectorised fast accept: l consecutive exactly-matched boxes form a
        # prefix-viable chain of zeros, no lower bounds needed.
        accepted = np.zeros(matched.size, dtype=bool)
        one = np.uint64(1)
        for start in range(m):
            ok = np.ones(matched.size, dtype=bool)
            for offset in range(self._chain_length):
                box = np.uint64((start + offset) % m)
                ok &= (masks >> box) & one != 0
                if not ok.any():
                    break
            accepted |= ok
            if accepted.all():
                break

        # Chain check for the undecided candidates, over the whole array at
        # once: per-box content-bound lower bounds as windowed minimums over
        # the precomputed substring mask tables, then the prefix-viability
        # recurrence vectorised across candidates.
        undecided = np.flatnonzero(~accepted)
        if not undecided.size:
            chained = np.empty(0, dtype=np.int64)
        elif self._vector_chain:
            ids = matched[undecided]
            values = self._box_values(ids, query, plan)
            passed = self._chain_from_values(values, masks[undecided])
            chained = ids[passed]
        else:
            # Window or corpus table too large to materialise: scalar chain
            # check per undecided candidate.
            chained_list: list[int] = []
            for row in undecided.tolist():
                obj_id = int(matched[row])
                mask = int(masks[row])
                candidate = _Candidate(
                    side="data"
                    if self._col_last_rank[obj_id] <= plan.last_prefix_rank
                    else "query",
                    matched_boxes={box for box in range(m) if (mask >> box) & 1},
                )
                if self._passes_chain_check(obj_id, candidate, query, plan):
                    chained_list.append(obj_id)
            chained = np.asarray(chained_list, dtype=np.int64)

        survivors = np.concatenate([always, matched[accepted], chained])
        return np.sort(survivors), generated

    # -- vectorised chain check --------------------------------------------

    def _ensure_record_windows(self) -> None:
        """Build the record-corpus substring mask table once, lazily."""
        if self._rec_sub_flat is not None:
            return
        records = self._dataset.records
        lengths = self._col_lengths
        base = np.zeros(len(records) + 1, dtype=np.int64)
        np.cumsum(lengths, out=base[1:])
        codes = np.fromiter(
            (ord(char) for record in records for char in record),
            dtype=np.int64,
            count=int(base[-1]),
        )
        ends = np.repeat(base[1:], lengths)
        flat, offsets = _substring_mask_table(codes, ends, self._window)
        self._rec_sub_flat, self._rec_sub_off, self._rec_base = flat, offsets, base

    def _window_min_bounds(
        self,
        gram_masks: np.ndarray,
        gram_positions: np.ndarray,
        base: np.ndarray | int,
        text_lengths: np.ndarray | int,
        sub_flat: np.ndarray,
        sub_off: np.ndarray,
    ) -> np.ndarray:
        """Vectorised :meth:`RingStringSearcher._box_lower_bound`.

        Entry ``i`` is the minimum content bound of gram ``i`` against every
        substring of its text starting within ``tau`` of the gram position
        (lengths up to ``kappa + tau``), capped by the full-deletion bound.
        """
        tau = self._tau
        cap = (np.bitwise_count(gram_masks).astype(np.int64) + 1) >> 1
        empty = gram_positions - tau > text_lengths - 1
        lo = np.clip(gram_positions - tau, 0, text_lengths - 1)
        hi = np.maximum(np.minimum(gram_positions + tau, text_lengths - 1), lo)
        starts = sub_off[base + lo]
        ends = sub_off[base + hi + 1]
        gather = csr_gather_indices(starts, ends, self._scratch.get())
        sizes = ends - starts
        diffs = np.bitwise_count(sub_flat[gather] ^ np.repeat(gram_masks, sizes))
        bounds = (diffs.astype(np.int64) + 1) >> 1
        segments = np.zeros(sizes.size, dtype=np.int64)
        np.cumsum(sizes[:-1], out=segments[1:])
        values = np.minimum(np.minimum.reduceat(bounds, segments), cap)
        values[empty] = cap[empty]
        return values

    def _box_values(self, ids: np.ndarray, query: str, plan) -> np.ndarray:
        """The ``(len(ids), m)`` matrix of content-bound box values.

        "data"-side candidates align their own pivotal grams against the
        query text (one shared mask table per query); "query"-side
        candidates align the query's pivotal grams against their record
        (the lazily built corpus table, shared by every query).
        """
        m = self._m
        values = np.zeros((ids.size, m), dtype=np.int64)
        side_data = self._col_last_rank[ids] <= plan.last_prefix_rank
        rows = np.flatnonzero(side_data)
        if rows.size:
            ids_data = ids[rows]
            length_q = len(query)
            codes = np.fromiter(map(ord, query), dtype=np.int64, count=length_q)
            q_flat, q_off = _substring_mask_table(
                codes, np.full(length_q, length_q, dtype=np.int64), self._window
            )
            values[rows] = self._window_min_bounds(
                self._piv_mask_mat[ids_data].ravel(),
                self._piv_pos_mat[ids_data].ravel(),
                0,
                length_q,
                q_flat,
                q_off,
            ).reshape(rows.size, m)
        rows = np.flatnonzero(~side_data)
        if rows.size:
            self._ensure_record_windows()
            ids_query = ids[rows]
            positions = np.asarray([gram.position for gram in plan.pivotal], dtype=np.int64)
            gram_masks = np.asarray(
                [character_mask(gram.gram) for gram in plan.pivotal], dtype=np.uint64
            )
            values[rows] = self._window_min_bounds(
                np.tile(gram_masks, ids_query.size),
                np.tile(positions, ids_query.size),
                np.repeat(self._rec_base[ids_query], m),
                np.repeat(self._col_lengths[ids_query], m),
                self._rec_sub_flat,
                self._rec_sub_off,
            ).reshape(rows.size, m)
        return values

    def _chain_from_values(self, values: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """Prefix-viability over the whole candidate array at once.

        Matched boxes are exact pivotal-gram matches, hence zero-valued no
        matter what the content bound says; every box is a legal chain start
        (a start whose value exceeds the quota fails at offset zero, which
        subsumes the scalar searcher's start preselection).
        """
        m = self._m
        one = np.uint64(1)
        for box in range(m):
            exact = (masks >> np.uint64(box)) & one != 0
            values[exact, box] = 0
        quota = self._tau / m
        passed = np.zeros(values.shape[0], dtype=bool)
        for start in range(m):
            alive = np.ones(values.shape[0], dtype=bool)
            running = np.zeros(values.shape[0], dtype=np.int64)
            for offset in range(self._chain_length):
                running = running + values[:, (start + offset) % m]
                alive &= running <= (offset + 1) * quota + 1e-12
                if not alive.any():
                    break
            passed |= alive
            if passed.all():
                break
        return passed

    # -- search -------------------------------------------------------------

    def search(self, query: str) -> SearchResult:
        timer = Timer()
        with span("candidates"):
            cands, generated = self._candidates_columnar(query)
        candidate_time = timer.restart()
        with span("verify"):
            records = self._dataset.records
            # One Myers matcher per query: the query bit masks are built once
            # and every candidate costs O(len(record)) word operations.
            matcher = QueryMatcher(query)
            tau = self._tau
            results = [
                obj_id for obj_id in cands.tolist() if matcher.within(records[obj_id], tau)
            ]
        verify_time = timer.elapsed()
        return SearchResult(
            results=results,
            candidates=cands.tolist(),
            candidate_time=candidate_time,
            verify_time=verify_time,
            extra={"generated": generated, "verified": int(cands.size)},
        )
