"""The Pivotal baseline for string edit distance search (pigeonhole principle).

Pivotal [28] sorts each string's positional q-grams by a global frequency
order, takes the first ``kappa * tau + 1`` grams as the prefix and selects
``tau + 1`` position-disjoint *pivotal* grams from it.  For a result pair the
side whose prefix ends earlier in the global order must have a pivotal gram
exactly matching a gram of the other side's prefix at a compatible position
(pivotal prefix filter, Cand-1); the sum of the per-pivotal-gram minimum edit
distances to nearby substrings must not exceed ``tau`` (alignment filter,
Cand-2); survivors are verified with the banded edit distance.

The prefix depends on ``tau``, so a searcher is constructed per threshold --
matching how the paper evaluates one threshold at a time.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.common.stats import SearchResult, Timer
from repro.strings.dataset import StringDataset
from repro.strings.edit_distance import edit_distance_within
from repro.strings.qgrams import PositionalGram


def window_edit_distance(gram: str, text: str, position: int, tau: int) -> int:
    """Minimum edit distance from ``gram`` to any substring of ``text`` that
    starts within the alignment-filter window of Section 6.3
    (``[position - tau, position + kappa - 1 + tau]``).

    Evaluated as a semi-global alignment of the gram against the window (free
    start and end inside the window).  Allowing substrings up to the full
    window length can only lower the value relative to the paper's
    ``kappa + tau - 1`` cap, so the box stays a valid lower bound and the
    filter stays complete.
    """
    kappa = len(gram)
    low = max(0, position - tau)
    high = min(position + kappa - 1 + tau, len(text) - 1)
    if low > high:
        return kappa
    window = text[low : high + 1]
    previous = [0] * (len(window) + 1)
    for i in range(1, kappa + 1):
        current = [i] + [0] * len(window)
        char = gram[i - 1]
        for j in range(1, len(window) + 1):
            cost = 0 if char == window[j - 1] else 1
            current[j] = min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
        previous = current
    return min(previous)


@dataclass
class _QueryPlan:
    """Per-query quantities shared by the Pivotal and Ring searchers."""

    prefix: list[PositionalGram]
    pivotal: list[PositionalGram] | None
    last_prefix_rank: int
    #: Query grams Case 1 probes: every gram ranked no later than the
    #: prefix's last gram.  That is the prefix plus any copies of its last
    #: gram that the position tie-break cut off; a data pivotal gram may
    #: only match such a copy inside its position window.
    case1_grams: list[PositionalGram]
    fallback: bool = False


@dataclass
class _Candidate:
    """A Cand-1 entry: which side supplied the pivotal grams and which matched."""

    side: str  # "data" -> data pivotal grams vs query text; "query" -> converse
    matched_boxes: set[int] = field(default_factory=set)


class PivotalIndexBase:
    """Shared index and Cand-1 generation for Pivotal and Ring searchers."""

    def __init__(self, dataset: StringDataset, tau: int):
        if tau < 0:
            raise ValueError("tau must be non-negative")
        self._dataset = dataset
        self._tau = tau
        self._m = tau + 1
        extractor = dataset.extractor
        self._prefix_index: dict[str, list[tuple[int, int]]] = defaultdict(list)
        self._pivotal_index: dict[str, list[tuple[int, int, int]]] = defaultdict(list)
        self._data_pivotal: list[list[PositionalGram] | None] = []
        self._data_last_rank: list[int] = []
        self._always_candidates: list[int] = []
        for obj_id in range(len(dataset)):
            record = dataset.record(obj_id)
            prefix = extractor.prefix(record, tau)
            if not prefix:
                # The string is shorter than one gram; it can only be matched
                # by verification.
                self._data_pivotal.append(None)
                self._data_last_rank.append(-1)
                self._always_candidates.append(obj_id)
                continue
            pivotal = extractor.pivotal(prefix, tau)
            self._data_pivotal.append(pivotal)
            self._data_last_rank.append(extractor.last_prefix_rank(prefix))
            if pivotal is None:
                self._always_candidates.append(obj_id)
                continue
            for gram in prefix:
                self._prefix_index[gram.gram].append((obj_id, gram.position))
            for index, gram in enumerate(pivotal):
                self._pivotal_index[gram.gram].append((obj_id, gram.position, index))

    @property
    def dataset(self) -> StringDataset:
        return self._dataset

    @property
    def tau(self) -> int:
        return self._tau

    @property
    def m(self) -> int:
        """Number of boxes (pivotal grams): ``tau + 1``."""
        return self._m

    def data_pivotal(self, obj_id: int) -> list[PositionalGram] | None:
        return self._data_pivotal[obj_id]

    def query_plan(self, query: str) -> _QueryPlan:
        extractor = self._dataset.extractor
        prefix = extractor.prefix(query, self._tau)
        pivotal = extractor.pivotal(prefix, self._tau) if prefix else None
        fallback = not prefix or pivotal is None
        last_prefix_rank = extractor.last_prefix_rank(prefix)
        return _QueryPlan(
            prefix=prefix,
            pivotal=pivotal,
            last_prefix_rank=last_prefix_rank,
            case1_grams=[
                gram
                for gram in extractor.sorted_grams(query)
                if extractor.rank(gram.gram) <= last_prefix_rank
            ],
            fallback=fallback,
        )

    def first_step(self, query: str, plan: _QueryPlan):
        """Cand-1 generation: pivotal prefix filter matches plus fallbacks.

        Returns ``(matches, unconditional)`` where ``matches`` maps object id
        to a :class:`_Candidate` and ``unconditional`` lists objects that must
        be verified regardless (pivotal selection impossible on either side).
        """
        tau = self._tau
        query_length = len(query)
        unconditional: list[int] = []
        for obj_id in self._always_candidates:
            if abs(len(self._dataset.record(obj_id)) - query_length) <= tau:
                unconditional.append(obj_id)

        matches: dict[int, _Candidate] = {}
        if plan.fallback:
            # The query is too short to supply pivotal grams: verify every
            # length-compatible string (rare; only tiny queries).
            for obj_id in range(len(self._dataset)):
                if abs(len(self._dataset.record(obj_id)) - query_length) <= tau:
                    unconditional.append(obj_id)
            return matches, sorted(set(unconditional))

        # Case 1: a data pivotal gram matches a query gram ranked no later
        # than the query prefix's last gram, and the data prefix ends no
        # later than the query prefix.
        for gram in plan.case1_grams:
            for obj_id, position, pivotal_index in self._pivotal_index.get(gram.gram, ()):
                if abs(position - gram.position) > tau:
                    continue
                if abs(len(self._dataset.record(obj_id)) - query_length) > tau:
                    continue
                if self._data_last_rank[obj_id] > plan.last_prefix_rank:
                    continue
                entry = matches.get(obj_id)
                if entry is None:
                    entry = _Candidate(side="data")
                    matches[obj_id] = entry
                entry.matched_boxes.add(pivotal_index)

        # Case 2: a query pivotal gram matches a data prefix gram and the data
        # prefix ends later than the query prefix.
        for pivotal_index, gram in enumerate(plan.pivotal):
            for obj_id, position in self._prefix_index.get(gram.gram, ()):
                if abs(position - gram.position) > tau:
                    continue
                if abs(len(self._dataset.record(obj_id)) - query_length) > tau:
                    continue
                if self._data_last_rank[obj_id] <= plan.last_prefix_rank:
                    continue
                entry = matches.get(obj_id)
                if entry is None:
                    entry = _Candidate(side="query")
                    matches[obj_id] = entry
                if entry.side == "query":
                    entry.matched_boxes.add(pivotal_index)
        return matches, sorted(set(unconditional))

    def candidate_boxes(
        self, obj_id: int, candidate: _Candidate, query: str, plan: _QueryPlan
    ) -> tuple[list[PositionalGram], str]:
        """The pivotal grams forming the boxes and the text they align against."""
        if candidate.side == "data":
            pivotal = self._data_pivotal[obj_id]
            assert pivotal is not None
            return pivotal, query
        assert plan.pivotal is not None
        return plan.pivotal, self._dataset.record(obj_id)


class PivotalSearcher(PivotalIndexBase):
    """Pigeonhole baseline: pivotal prefix filter + alignment filter + verify."""

    def candidates(self, query: str) -> tuple[list[int], list[int]]:
        """Return ``(cand1, cand2)`` -- after the prefix filter and after the alignment filter."""
        plan = self.query_plan(query)
        matches, unconditional = self.first_step(query, plan)
        cand1 = sorted(set(unconditional) | set(matches))
        cand2: list[int] = list(unconditional)
        for obj_id, candidate in matches.items():
            pivotal, text = self.candidate_boxes(obj_id, candidate, query, plan)
            total = 0
            for gram in pivotal:
                total += window_edit_distance(gram.gram, text, gram.position, self._tau)
                if total > self._tau:
                    break
            if total <= self._tau:
                cand2.append(obj_id)
        return cand1, sorted(set(cand2))

    def search(self, query: str) -> SearchResult:
        timer = Timer()
        cand1, cand2 = self.candidates(query)
        candidate_time = timer.restart()
        results = [
            obj_id
            for obj_id in cand2
            if edit_distance_within(self._dataset.record(obj_id), query, self._tau)
        ]
        verify_time = timer.elapsed()
        return SearchResult(
            results=results,
            candidates=cand2,
            candidate_time=candidate_time,
            verify_time=verify_time,
            extra={"cand1": len(cand1), "cand2": len(cand2)},
        )
