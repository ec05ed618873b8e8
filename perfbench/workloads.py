"""The benchmark's workloads: what each one serves, why it exists, its inputs
and the exact oracles its answers are checked against.

Inputs come only from the ``--seed``: the same seed gives the same data,
queries, request order and write batches.  The program under test receives
only the generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: queries generated per workload; duplicates are dropped and at least
#: ``MIN_DISTINCT_QUERIES`` must remain
NUM_QUERIES = 600
MIN_DISTINCT_QUERIES = 500


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend: str
    size: int
    tau: float | int
    shards: int = 0  # 0 = one plain container
    clients: int = 1  # closed-loop search clients, one connection each
    topk_frac: float = 0.0  # share of search requests that are top-k
    k: int = 10
    topk_pool: int = 0  # distinct queries that top-k requests draw from
    write_rate: float = 0.0  # open-loop /mutate batches per second (0: no writer)
    batch_upserts: int = 3  # upserts per write batch (plus one delete)
    serve_args: tuple[str, ...] = ()


WORKLOADS = {
    wl.name: wl
    for wl in (
        # Runnable, but not gated in BENCHMARK.json: on a 2-vCPU VM with CPU
        # steal its lone client's p50 and throughput moved by up to 2x between
        # runs, and even its CPU per request spread 0.18-0.22 of the median
        # over ten runs, too close to any bound the benchmark may set.  The
        # served and traced layers it covers are measured on the two gated
        # workloads too.
        Workload(
            name="sets-c1",
            why=(
                "a lone closed-loop client has no batch companions, so the serving stack "
                "dominates and the kernel is a small share; sharding and the WAL are bypassed"
            ),
            backend="sets",
            size=40_000,
            tau=0.8,
        ),
        Workload(
            name="hamming-shard2-c2",
            why=(
                "kernel-heavy and the only workload that crosses the shard IPC boundary; "
                "two closed-loop clients, 20% top-k (k=10) exercise the escalation ladder"
            ),
            backend="hamming",
            size=30_000,
            tau=32,
            shards=2,
            clients=2,
            topk_frac=0.2,
            topk_pool=160,
        ),
        Workload(
            name="strings-rw",
            why=(
                "writes beside reads: fsync, the delta scan and background compaction set "
                "the tails; edit-distance verification is the heaviest verify share"
            ),
            backend="strings",
            size=20_000,
            tau=2,
            write_rate=12.0,
            serve_args=("--auto-compact",),
        ),
    )
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    records: list  # raw records (vectors as a 2-D uint8 array for hamming)
    queries: list  # distinct query payloads
    topk_queries: list[int]  # indices into ``queries`` used by top-k requests
    batches: list[list[dict]] = field(default_factory=list)  # writer batches, in order

    def make_dataset(self, backend: str) -> Any:
        """A fresh backend dataset over ``records`` (the first step of an index build)."""
        return make_dataset(backend, self.records)


def make_dataset(backend: str, records: Any) -> Any:
    """Mirror the engine backends' ``make_workload`` dataset construction."""
    if backend == "hamming":
        from repro.hamming.dataset import BinaryVectorDataset

        return BinaryVectorDataset(np.asarray(records), num_parts=8)
    if backend == "sets":
        from repro.sets.dataset import SetDataset

        return SetDataset(list(records), num_classes=4)
    from repro.strings.dataset import StringDataset

    return StringDataset(list(records), kappa=2)


def generate(wl: Workload, seed: int) -> Inputs:
    """Data, distinct queries and (for writers) write batches for one seed."""
    from repro.engine.backend import get_backend

    backend = get_backend(wl.backend)
    dataset, raw_queries = backend.make_workload(wl.size, NUM_QUERIES, seed)
    queries: list = []
    seen: set = set()
    for query in raw_queries:
        key = backend.query_key(query)
        if key not in seen:
            seen.add(key)
            queries.append(query)
    if len(queries) < MIN_DISTINCT_QUERIES:
        raise RuntimeError(
            f"{wl.name}: only {len(queries)} distinct queries for seed {seed} "
            f"(need {MIN_DISTINCT_QUERIES})"
        )
    if wl.backend == "hamming":
        records: Any = np.asarray(dataset.vectors, dtype=np.uint8)
    elif wl.backend == "sets":
        records = dataset.raw_records
    else:
        records = dataset.records
    rng = random.Random(seed)
    topk = sorted(rng.sample(range(len(queries)), wl.topk_pool)) if wl.topk_pool else []
    return Inputs(records=records, queries=queries, topk_queries=topk)


def writer_batches(wl: Workload, inputs: Inputs, seed: int, count: int) -> list[list[dict]]:
    """``count`` write batches of the workload's backend.

    Batch ``i`` upserts ``batch_upserts`` new records under explicit ids past
    the data set and deletes one record the writer upserted five batches
    earlier.  Every written record is a small variant of a data record; on
    a workload with a served writer it also lies farther than tau from every
    query, so the read answers stay fixed while the delta grows, compacts
    and shrinks, and the end-of-run check covers the written records.
    """
    rng = np.random.default_rng(seed + 7919)
    variant = _variant_maker(wl, inputs, rng)
    oracle = StringOracle(inputs.queries) if wl.write_rate else None
    next_id = len(inputs.records)
    batches: list[list[dict]] = []
    upserted: list[int] = []
    for i in range(count):
        ops: list[dict] = []
        while len(ops) < wl.batch_upserts:
            record = variant(inputs.records[int(rng.integers(len(inputs.records)))])
            if oracle is not None and oracle.threshold(record, int(wl.tau)):
                continue  # would change a read answer mid-run
            ops.append({"op": "upsert", "record": record, "id": next_id})
            upserted.append(next_id)
            next_id += 1
        if i >= 5:
            ops.append({"op": "delete", "id": upserted[(i - 5) * wl.batch_upserts]})
        batches.append(ops)
    return batches


def _variant_maker(wl: Workload, inputs: Inputs, rng: np.random.Generator):
    """A record-mutation step per backend: a few edits, flipped bits or a new token."""
    if wl.backend == "hamming":

        def variant(base: Any) -> np.ndarray:
            record = np.array(base, dtype=np.uint8)
            record[rng.integers(0, record.size, size=8)] ^= 1
            return record

    elif wl.backend == "sets":

        def variant(base: Any) -> list:
            record = list(base)
            record[int(rng.integers(len(record)))] = int(rng.integers(8000, 16000))
            return record

    else:
        alphabet = sorted(set("".join(inputs.records[:2000])))

        def variant(base: Any) -> str:
            chars = list(base)
            for _ in range(3):
                pos = int(rng.integers(len(chars)))
                chars[pos] = alphabet[int(rng.integers(len(alphabet)))]
            return "".join(chars)

    return variant


def request_plan(wl: Workload, inputs: Inputs, seed: int, client: int, length: int) -> list:
    """The ``(is_topk, query index)`` sequence one closed-loop client sends."""
    rng = random.Random(seed * 1009 + client)
    plan = []
    for _ in range(length):
        if wl.topk_frac and rng.random() < wl.topk_frac:
            plan.append((True, rng.choice(inputs.topk_queries)))
        else:
            plan.append((False, rng.randrange(len(inputs.queries))))
    return plan


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


class SetOracle:
    """Exact linear Jaccard scan, vectorised.

    Every record's overlap with the query is counted through an inverted
    index, then compared against the engine predicate's own required
    overlap -- the same test the ``linear`` searcher applies record by
    record, at numpy speed.
    """

    def __init__(self, records: list, tau: float, ids: list[int] | None = None):
        from repro.sets.similarity import JaccardPredicate

        self._predicate = JaccardPredicate(tau)
        distinct = [np.unique(np.asarray(record, dtype=np.int64)) for record in records]
        self._sizes = np.asarray([tokens.size for tokens in distinct], dtype=np.int64)
        flat = np.concatenate(distinct)
        owner = np.repeat(np.arange(len(records), dtype=np.int64), self._sizes)
        order = np.argsort(flat, kind="stable")
        self._tokens = flat[order]
        self._owner = owner[order]
        self._ids = np.arange(len(records)) if ids is None else np.asarray(ids)

    def threshold(self, query: Any) -> list[int]:
        tokens = np.unique(np.asarray(list(query), dtype=np.int64))
        lo = np.searchsorted(self._tokens, tokens, side="left")
        hi = np.searchsorted(self._tokens, tokens, side="right")
        hits = np.concatenate([self._owner[a:b] for a, b in zip(lo, hi)] or [np.empty(0, int)])
        overlap = np.bincount(hits, minlength=self._sizes.size)
        required = self._predicate.pair_required_overlap_array(self._sizes, int(tokens.size))
        return sorted(int(i) for i in self._ids[overlap >= required])


class StringOracle:
    """Exact linear edit-distance scan.

    A record is dropped only when a lower bound proves it farther than tau:
    the length difference, or half the L1 distance between character
    histograms (one edit changes that distance by at most 2).  Every other
    record goes through the engine's banded ``edit_distance_within``.
    """

    def __init__(self, records: list[str], ids: list[int] | None = None):
        self._records = list(records)
        self._ids = list(range(len(records))) if ids is None else list(ids)
        self._lengths = np.asarray([len(r) for r in self._records], dtype=np.int64)
        codes = _codes("".join(self._records))
        self._alphabet = np.unique(codes)
        width = self._alphabet.size + 1  # the last column counts unknown chars
        rows = np.repeat(np.arange(len(self._records)), self._lengths)
        cols = np.searchsorted(self._alphabet, codes)
        self._hist = (
            np.bincount(rows * width + cols, minlength=len(self._records) * width)
            .reshape(len(self._records), width)
            .astype(np.int16)
        )

    def _histogram(self, text: str) -> np.ndarray:
        codes = _codes(text)
        cols = np.searchsorted(self._alphabet, codes)
        cols = np.minimum(cols, self._alphabet.size)
        known = (cols < self._alphabet.size) & (
            self._alphabet[np.minimum(cols, self._alphabet.size - 1)] == codes
        )
        cols = np.where(known, cols, self._alphabet.size)
        return np.bincount(cols, minlength=self._alphabet.size + 1).astype(np.int16)

    def threshold(self, query: str, tau: int) -> list[int]:
        from repro.strings.edit_distance import edit_distance_within

        near = np.flatnonzero(np.abs(self._lengths - len(query)) <= tau)
        l1 = np.abs(self._hist[near] - self._histogram(query)).sum(axis=1)
        near = near[l1 <= 2 * tau]
        return sorted(
            self._ids[i] for i in near if edit_distance_within(self._records[i], query, tau)
        )


def _codes(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)


@dataclass
class Expected:
    threshold: list  # per query index: sorted ids
    topk: dict  # query index -> (ids, scores)


def expected_answers(wl: Workload, inputs: Inputs, seed: int) -> Expected:
    """Every query's answer, computed before timing starts.

    Hamming uses the engine's ``linear`` algorithm directly.  On sets and
    strings that algorithm costs ~175 ms a query at these sizes, so the
    exact vectorised scans above answer every query, and a seeded sample is
    cross-checked against the ``linear`` algorithm on each run.
    """
    from repro.engine import Query, SearchEngine

    with SearchEngine(cache_size=0) as engine:
        engine.add_dataset(wl.backend, inputs.make_dataset(wl.backend))

        def linear(payload: Any, **kw: Any):
            return engine.search(Query(wl.backend, payload, algorithm="linear", **kw))

        topk = {}
        for qi in inputs.topk_queries:
            response = linear(inputs.queries[qi], k=wl.k)
            topk[qi] = (list(response.ids), [float(s) for s in response.scores])
        if wl.backend == "hamming":
            answers = [sorted(linear(q, tau=wl.tau).ids) for q in inputs.queries]
            return Expected(answers, topk)
        if wl.backend == "sets":
            oracle: Any = SetOracle(inputs.records, float(wl.tau))
            answers = [oracle.threshold(q) for q in inputs.queries]
        else:
            oracle = StringOracle(inputs.records)
            answers = [oracle.threshold(q, int(wl.tau)) for q in inputs.queries]
        for qi in random.Random(seed).sample(range(len(inputs.queries)), 3):
            reference = sorted(linear(inputs.queries[qi], tau=wl.tau).ids)
            if reference != answers[qi]:
                raise RuntimeError(
                    f"{wl.name}: oracle disagrees with the linear algorithm on query {qi}"
                )
        return Expected(answers, topk)
