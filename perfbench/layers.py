"""In-process layer passes of the traced run.

Each pass calls one module's public functions on the workload's own data
and queries, with a span around every call; per-layer figures are the
p50/p99 of the spans' self times.  Every pass makes a fixed number of calls
in the seed's query order, so each run of a seed measures the same calls
however fast the code or the host is.  A pass whose p99 is reported makes
at least ``P99_CALLS`` calls.
"""

from __future__ import annotations

import json
import pickle
import shutil
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from harness import (
    SpanRecorder,
    durations_by_request,
    percentile,
    percentile_ms,
    self_times_by_name,
)
from workloads import Inputs, Workload, make_dataset, writer_batches

P99_CALLS = 1000  # as many samples as an end-to-end p99 needs
P50_CALLS = 300  # the passes that report a p50 only
TOPK_CALLS = 100
# Top-k on a workload that serves none climbs many rungs (~0.3 s a call on
# strings), so those workloads time only a few calls.
UNSERVED_TOPK_CALLS = 8
WRITE_BATCHES = 200


def _calls(items: list, count: int) -> Iterator[tuple[int, Any]]:
    """``(n, items[n % len(items)])`` for the first ``count`` calls."""
    for n in range(count):
        yield n, items[n % len(items)]


def _query(wl: Workload, payload: Any, **kw: Any):
    from repro.engine import Query

    return Query(wl.backend, payload, **kw)


def _ring_searcher(wl: Workload, store: Any):
    """The served ``ring`` searcher object, so ``candidates()`` is callable."""
    if wl.backend == "hamming":
        from repro.hamming.ring import RingHammingSearcher

        searcher = RingHammingSearcher(store.dataset, chain_length=5, index=store.index)
        return (lambda q: searcher.candidates(q, int(wl.tau))), (
            lambda q: searcher.search(q, int(wl.tau))
        )
    if wl.backend == "sets":
        from repro.sets.columnar import ColumnarSetSearcher
        from repro.sets.similarity import JaccardPredicate

        searcher = ColumnarSetSearcher(store, JaccardPredicate(float(wl.tau)), chain_length=2)
    else:
        from repro.strings.columnar import ColumnarStringSearcher

        searcher = ColumnarStringSearcher(store, int(wl.tau), chain_length=None)
    return searcher.candidates, searcher.search


def run_layers(wl: Workload, inputs: Inputs, seed: int, work: Path, rec: SpanRecorder) -> dict:
    """Every in-process per-layer metric of the workload."""
    from repro.engine import SearchEngine, ShardedEngine, build_shards, load_container
    from repro.engine.sharding import merge_threshold, merge_topk
    from repro.engine.wal import WriteAheadLog, op_to_wire
    from repro.engine.wire import decode_query, encode_query, encode_response

    out: dict[str, float] = {}
    backend_name = wl.backend
    queries = inputs.queries
    order = list(range(len(queries)))
    np.random.default_rng(seed).shuffle(order)

    # -- persistence: save (or shard-build) and load, three times each
    for rep in range(3):
        target = work / f"persist-{rep}"
        dataset = make_dataset(backend_name, inputs.records)
        with SearchEngine(cache_size=0) as engine:
            store = engine.add_dataset(backend_name, dataset)
            with rec.span("persistence.save", rep):
                if wl.shards:
                    build_shards(backend_name, store, str(target), wl.shards)
                else:
                    engine.save_index(backend_name, str(target))
        dirs = sorted(target.glob("shard-*")) if wl.shards else [target]
        with rec.span("persistence.load", rep):
            for path in dirs:
                load_container(str(path))
        if rep:
            shutil.rmtree(target)
    out["persistence.save_s"] = _stat(rec, "persistence.save", 50, 1.0)
    out["persistence.load_s"] = _stat(rec, "persistence.load", 50, 1.0)

    # -- executor + wire: the server's request path replayed in-process, and
    # right after it the ring searcher's candidate generation and full search
    # on the same query, so the differences pair calls made moments apart
    engine = SearchEngine(cache_size=0)
    if wl.shards:
        engine.add_dataset(backend_name, make_dataset(backend_name, inputs.records))
    else:
        engine.load_index(str(work / "persist-0"))
    bodies = [
        json.dumps(encode_query(_query(wl, queries[i], tau=wl.tau))).encode() for i in order
    ]
    engine.search(decode_query(json.loads(bodies[0])))  # builds the lazy searcher
    candidates, search = _ring_searcher(wl, engine.store(backend_name))
    search(queries[order[0]])
    request_bytes, response_bytes = [], []
    generated, verified, results = [], [], []
    for n, qi in _calls(order, P99_CALLS):
        body = bodies[n % len(bodies)]
        with rec.span("inproc.request", n):
            with rec.span("wire.decode_query", n):
                query = decode_query(json.loads(body))
            with rec.span("executor.search", n):
                response = engine.search(query)
            with rec.span("wire.encode_response", n):
                encoded = json.dumps(encode_response(response)).encode()
        request_bytes.append(len(body))
        response_bytes.append(len(encoded))
        with rec.span("candidates", n):
            candidates(queries[qi])
        with rec.span("searcher.search", n):
            result = search(queries[qi])
        generated.append(result.extra.get("generated", len(result.candidates)))
        verified.append(len(result.candidates))
        results.append(len(result.results))
    out["wire.decode_query_us"] = _stat(rec, "wire.decode_query", 50, 1e6)
    out["wire.encode_response_us"] = _stat(rec, "wire.encode_response", 50, 1e6)
    out["wire.request_bytes"] = float(np.mean(request_bytes))
    out["wire.response_bytes"] = float(np.mean(response_bytes))
    out["executor.search_ms"] = _stat(rec, "executor.search", 50, 1e3)
    out["executor.search_p99_ms"] = _stat(rec, "executor.search", 99, 1e3)
    executed = durations_by_request(rec.spans, "executor.search")
    cand = durations_by_request(rec.spans, "candidates")
    full = durations_by_request(rec.spans, "searcher.search")
    verify = [full[n] - cand[n] for n in cand]
    overhead = [executed[n] - full[n] for n in cand if n in executed]
    out["candidates.ms"] = percentile_ms(list(cand.values()))
    out["candidates.p99_ms"] = percentile_ms(list(cand.values()), 99)
    out["candidates.generated"] = float(np.mean(generated))
    out["candidates.verified"] = float(np.mean(verified))
    out["candidates.results"] = float(np.mean(results))
    out["candidates.precision"] = float(sum(results) / max(1, sum(verified)))
    out["verify.ms"] = percentile_ms(verify)
    out["verify.p99_ms"] = percentile_ms(verify, 99)
    out["executor.overhead_ms"] = percentile_ms(overhead)

    # -- top-k: escalation ladder rungs
    pool = inputs.topk_queries or order
    engine.search(_query(wl, queries[pool[-1]], k=wl.k))  # builds each rung's searcher
    rungs = []
    for n, qi in _calls(pool, TOPK_CALLS if inputs.topk_queries else UNSERVED_TOPK_CALLS):
        with rec.span("topk.search", n):
            response = engine.search(_query(wl, queries[qi], k=wl.k))
        ladder = engine.escalation_ladder(backend_name, queries[qi], None)
        rungs.append(ladder.index(response.tau_effective) + 1)
    out["topk.ms"] = _stat(rec, "topk.search", 50, 1e3)
    out["topk.rungs"] = float(np.mean(rungs))

    # -- sharding: ShardedEngine against SearchEngine on the same data
    shard_dir = work / "persist-0" if wl.shards else work / "shards-2"
    if not wl.shards:
        build_shards(backend_name, engine.store(backend_name), str(shard_dir), 2)
    manifest = json.loads((shard_dir / "shards.json").read_text())
    shard_engines = []
    for shard in manifest["shards"]:
        part_engine = SearchEngine(cache_size=0)
        part_engine.load_index(str(shard_dir / shard["path"]))
        shard_engines.append((shard["lo"], part_engine))
    ipc = []
    with ShardedEngine(str(shard_dir)) as sharded:
        sharded.search(_query(wl, queries[order[0]], tau=wl.tau))
        for lo, part_engine in shard_engines:
            part_engine.search(_query(wl, queries[order[0]], tau=wl.tau))
        sharded.reset_stats()
        for n, qi in _calls(order, P50_CALLS):
            query = _query(wl, queries[qi], tau=wl.tau)
            with rec.span("sharding.search", n):
                sharded.search(query)
            with rec.span("sharding.unsharded", n):
                engine.search(query)
            parts = []
            for lo, part_engine in shard_engines:
                ids = part_engine.search(query).ids
                parts.append({"ids": [lo + i for i in ids], "scores": None})
            with rec.span("sharding.merge", n):
                merge_threshold(parts)
            ipc.append(len(pickle.dumps(query)) + sum(len(pickle.dumps(p)) for p in parts))
        stats = sharded.stats
        out["sharding.fanout_ms"] = stats.fanout_time / max(1, stats.num_queries) * 1e3
    sharded_d = durations_by_request(rec.spans, "sharding.search")
    plain_d = durations_by_request(rec.spans, "sharding.unsharded")
    out["sharding.overhead_ms"] = percentile_ms([sharded_d[n] - plain_d[n] for n in sharded_d])
    # Top-k traffic also pays the k-way heap merge over the exact shard answers.
    for n, qi in enumerate(inputs.topk_queries[:TOPK_CALLS]):
        query = _query(wl, queries[qi], k=wl.k)
        parts = []
        for lo, part_engine in shard_engines:
            response = part_engine.search(query)
            parts.append({"ids": [lo + i for i in response.ids], "scores": response.scores})
        with rec.span("sharding.merge", -1 - n):
            merge_topk(parts, wl.k)
    out["sharding.merge_us"] = _stat(rec, "sharding.merge", 50, 1e6)
    out["sharding.ipc_bytes"] = float(np.mean(ipc))
    for _lo, part_engine in shard_engines:
        part_engine.close()

    # -- wal: the workload's batches appended to a log on the same disk
    backend = engine.backend(backend_name)
    batches = inputs.batches[:WRITE_BATCHES] or writer_batches(wl, inputs, seed, WRITE_BATCHES)
    ops_written = 0
    wal_path = work / "layer.wal"
    wal_path.unlink(missing_ok=True)
    with WriteAheadLog(str(wal_path)) as wal:
        start_size = wal_path.stat().st_size
        for n, ops in _calls(batches, P99_CALLS):
            wire_ops = [op_to_wire(backend, op) for op in ops]
            with rec.span("wal.append", n):
                with rec.span("wal.write", n):
                    wal.append(backend_name, wire_ops, sync=False)
                with rec.span("wal.fsync", n):
                    wal.sync()
            ops_written += len(ops)
        out["wal.bytes_per_op"] = (wal_path.stat().st_size - start_size) / ops_written
    out["wal.append_ms"] = _stat(rec, "wal.append", 50, 1e3, total=True)
    out["wal.append_p99_ms"] = _stat(rec, "wal.append", 99, 1e3, total=True)
    out["wal.fsync_ms"] = _stat(rec, "wal.fsync", 50, 1e3)

    # -- mutation: memory-durability batches, then the delta-scan cost
    with SearchEngine(cache_size=0) as mutated:
        mutated.add_dataset(backend_name, make_dataset(backend_name, inputs.records))
        mutated.enable_auto_compaction(backend_name)
        delta_max = 0
        for n, ops in enumerate(batches):
            with rec.span("mutation.apply", n):
                mutated.mutate(backend_name, ops, durability="memory")
            mutated.search(_query(wl, queries[order[n % len(order)]], tau=wl.tau))
            delta_max = max(delta_max, mutated.mutation_info(backend_name)["delta_records"])
        mutated.wait_for_compaction(backend_name, timeout=60)
        out["mutation.apply_ms"] = _stat(rec, "mutation.apply", 50, 1e3)
        out["mutation.delta_records_max"] = float(delta_max)
    with SearchEngine(cache_size=0) as overlay:
        overlay.add_dataset(backend_name, make_dataset(backend_name, inputs.records))
        for ops in batches[:64]:
            overlay.mutate(backend_name, ops, durability="memory")
        overlay.search(_query(wl, queries[order[0]], tau=wl.tau))
        for n, qi in _calls(order, P50_CALLS):
            query = _query(wl, queries[qi], tau=wl.tau)
            with rec.span("mutation.with_delta", n):
                overlay.search(query)
            with rec.span("mutation.without_delta", n):
                engine.search(query)
        with_d = durations_by_request(rec.spans, "mutation.with_delta")
        without_d = durations_by_request(rec.spans, "mutation.without_delta")
        out["mutation.delta_scan_ms"] = percentile_ms([with_d[n] - without_d[n] for n in with_d])
        with rec.span("compaction.compact", 0):
            overlay.compact(backend_name)
        out["compaction.s"] = _stat(rec, "compaction.compact", 50, 1.0)
    engine.close()
    return out


def _stat(rec: SpanRecorder, name: str, q: float, scale: float, total: bool = False) -> float:
    """A percentile of the named spans' self times (or durations with ``total``)."""
    if total:
        values = [s.duration for s in rec.spans if s.name == name]
    else:
        values = self_times_by_name(rec.spans)[name]
    return percentile(values, q) * scale
