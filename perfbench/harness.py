"""Measurement helpers of the benchmark: percentiles, spans, /metrics deltas.

Everything here is pure Python over plain data so the self-tests
(``python3 -m pytest perfbench``) exercise it without a server.
"""

from __future__ import annotations

import itertools
import math
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation between ranks.

    Matches ``numpy.percentile(values, q)`` (its default "linear" method).
    Raises ``ValueError`` on an empty sample: a missing measurement must not
    read as zero.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def percentile_ms(seconds: Sequence[float], q: float = 50.0) -> float:
    """:func:`percentile` of durations in seconds, in milliseconds."""
    return percentile(seconds, q) * 1e3


def by_slice(
    times: Sequence[float], values: Sequence[float], slice_s: float, count: int
) -> list[list[float]]:
    """``values`` grouped into ``count`` consecutive slices of ``slice_s`` seconds.

    ``times[i]`` places ``values[i]``; values before 0 or past the last
    slice are dropped.  A figure taken per slice and then its median over
    the slices is not moved by a disturbance that covers fewer than half of
    them, where one figure over the whole window would be.
    """
    slices: list[list[float]] = [[] for _ in range(count)]
    for at, value in zip(times, values):
        index = math.floor(at / slice_s)
        if 0 <= index < count:
            slices[index].append(value)
    return slices


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


@dataclass
class Span:
    """One timed call: ``start``/``end`` are ``perf_counter`` seconds."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
        }


class SpanRecorder:
    """Keeps spans in memory; a disabled recorder times nothing and stores nothing.

    ``with recorder.span("layer", request=7):`` records one span whose parent
    is the innermost span still open *in the calling thread*, so nesting
    follows the ``with`` blocks and threads may share one recorder.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, request: int = 0) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("open", [])
        record = Span(
            next(self._ids), name, time.perf_counter(), math.nan, stack[-1] if stack else None,
            request,
        )
        self.spans.append(record)
        stack.append(record.span_id)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            stack.pop()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap one another (concurrent calls) or run past the
    parent's end; only the union of their intervals clipped to the parent
    counts, so self time is never negative and never double-subtracted.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in by_id:
            parent = by_id[span.parent]
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    return {
        span.span_id: span.duration - _covered(children.get(span.span_id, []))
        for span in spans
    }


def self_times_by_name(spans: Iterable[Span]) -> dict[str, list[float]]:
    """Self times grouped by span name, in recording order."""
    spans = list(spans)
    folded = self_times(spans)
    grouped: dict[str, list[float]] = {}
    for span in spans:
        grouped.setdefault(span.name, []).append(folded[span.span_id])
    return grouped


def durations_by_request(spans: Iterable[Span], name: str) -> dict[int, float]:
    """Duration of the ``name`` span of each request (last one wins)."""
    return {span.request: span.duration for span in spans if span.name == name}


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s#]+)"
)
_LABEL = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"')

SampleKey = tuple[str, frozenset]


def parse_metrics(text: str) -> dict[SampleKey, float]:
    """Samples of a text exposition keyed by ``(name, frozenset(labels))``.

    Comment lines are skipped, as are exemplars (``# {trace_id=...} v ts``)
    trailing a bucket sample.
    """
    samples: dict[SampleKey, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"unparseable metrics line: {line!r}")
        labels = frozenset(
            (label["key"], label["value"]) for label in _LABEL.finditer(match["labels"] or "")
        )
        samples[(match["name"], labels)] = float(match["value"])
    return samples


def metric_delta(
    before: dict[SampleKey, float], after: dict[SampleKey, float]
) -> dict[SampleKey, float]:
    """``after - before`` per sample; a sample new in ``after`` counts from 0."""
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def metric_sum(samples: dict[SampleKey, float], name: str, **labels: str) -> float:
    """Sum of every ``name`` sample whose labels include ``labels``."""
    wanted = set(labels.items())
    return float(
        sum(value for (sample, have), value in samples.items() if sample == name and wanted <= have)
    )


def histogram_mean(samples: dict[SampleKey, float], name: str, **labels: str) -> float:
    """Mean observation of a histogram (``_sum / _count``); NaN when empty."""
    count = metric_sum(samples, f"{name}_count", **labels)
    if count <= 0:
        return math.nan
    return metric_sum(samples, f"{name}_sum", **labels) / count
