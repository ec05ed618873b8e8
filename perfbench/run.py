"""The repository benchmark: three served workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload strings-rw --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all    # every workload, untraced then traced

Each run generates its inputs from ``--seed``, computes every query's answer
before timing, builds a fresh index, starts the real server
(``python -m repro.engine serve``) as a subprocess and drives it for
``--seconds`` from this one process (at most two threads, one connection
each).  Every response is checked.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` runs the workload again with spans
around the benchmark's own calls and reports the per-layer metrics.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any
answer was wrong or any request failed.  Working files, spans and a full
result record go under ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3
MIN_P99_SAMPLES = 1000
PLAN_LENGTH = 50_000
SLICE_S = 1.0  # target length of the window slices the served figures are medians over

sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    SpanRecorder,
    by_slice,
    histogram_mean,
    median,
    metric_delta,
    metric_sum,
    parse_metrics,
    percentile,
    percentile_ms,
    self_times_by_name,
)
from served import (  # noqa: E402
    Connection,
    Sample,
    ServerProcess,
    closed_loop,
    open_loop,
)
from workloads import (  # noqa: E402
    WORKLOADS,
    Expected,
    Inputs,
    StringOracle,
    Workload,
    expected_answers,
    generate,
    request_plan,
    writer_batches,
)


# ---------------------------------------------------------------------------
# Answer checks
# ---------------------------------------------------------------------------


class Ledger:
    """Counts attempted and failed operations and keeps the ones that passed.

    A request fails when it gets no 200 (429, 5xx, a timeout or a broken
    connection count alike) or when its answer differs from the expected one.
    """

    def __init__(self, inputs: Inputs, expected: Expected):
        self.inputs, self.expected = inputs, expected
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.statuses: dict[int, int] = {}
        self.acked_batches: list[int] = []
        self.mismatches: list[dict] = []  # the first wrong answers, for the result record

    def check(self, samples: list[Sample]) -> list[Sample]:
        passed = []
        for sample in samples:
            self.attempted += 1
            self.statuses[sample.status] = self.statuses.get(sample.status, 0) + 1
            if sample.status != 200:
                self.failed += 1
            elif not self._answer_ok(sample):
                self.failed += 1
                self.wrong += 1
                if len(self.mismatches) < 20:
                    self.mismatches.append(
                        {"kind": sample.kind, "item": sample.item, "due": sample.due,
                         "body": sample.body.decode(errors="replace")[:2000]}
                    )
            else:
                passed.append(sample)
        return passed

    def _answer_ok(self, sample: Sample) -> bool:
        body = json.loads(sample.body)
        if sample.kind == "search":
            return sorted(body["ids"]) == self.expected.threshold[sample.item]
        if sample.kind == "topk":
            ids, scores = self.expected.topk[sample.item]
            return body["ids"] == ids and body["scores"] == scores
        ops = self.inputs.batches[sample.item]
        want = [op["id"] for op in ops if op["op"] == "upsert"]
        got = [r.get("id") for r, op in zip(body["results"], ops) if op["op"] == "upsert"]
        if got != want or len(body["results"]) != len(ops):
            return False
        self.acked_batches.append(sample.item)
        return True

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += 1


# ---------------------------------------------------------------------------
# Set-up and the served window
# ---------------------------------------------------------------------------


def encode_bodies(wl: Workload, inputs: Inputs) -> tuple[dict, list[bytes]]:
    """Every request body, wire-encoded before timing starts."""
    from repro.engine import Query
    from repro.engine.wire import encode_mutate, encode_query

    bodies = {}
    for qi, payload in enumerate(inputs.queries):
        query = Query(wl.backend, payload, tau=wl.tau)
        bodies[False, qi] = json.dumps(encode_query(query)).encode()
    for qi in inputs.topk_queries:
        query = Query(wl.backend, inputs.queries[qi], k=wl.k)
        bodies[True, qi] = json.dumps(encode_query(query)).encode()
    writes = [
        json.dumps(encode_mutate(wl.backend, ops, durability="wal")).encode()
        for ops in inputs.batches
    ]
    return bodies, writes


def set_up(
    wl: Workload, inputs: Inputs, bodies: dict, ledger: Ledger, work: Path, rep: int
) -> tuple[ServerProcess, float]:
    """Build and save a fresh index, serve it, warm every query shape.

    Returns the ready server and the wall seconds the whole set-up took.
    """
    from repro.engine import SearchEngine, build_shards

    index = work / f"index-{rep}"
    start = time.perf_counter()
    dataset = inputs.make_dataset(wl.backend)
    if wl.shards:
        build_shards(wl.backend, dataset, str(index), wl.shards)
    else:
        with SearchEngine(cache_size=0) as engine:
            engine.add_dataset(wl.backend, dataset)
            engine.save_index(wl.backend, str(index))
    extra = list(wl.serve_args)
    if wl.write_rate:
        extra += ["--wal-dir", str(work / f"wal-{rep}")]
    server = ServerProcess(SRC, index, work, extra)
    try:
        server.wait_ready()
        conn = Connection(server.host, server.port)
        warm = [Sample("search", 0, 0, 0, 0, *conn.request("POST", "/search", bodies[False, 0]))]
        if inputs.topk_queries:
            qi = inputs.topk_queries[0]
            status, data = conn.request("POST", "/search/topk", bodies[True, qi])
            warm.append(Sample("topk", qi, 0, 0, 0, status, data))
        conn.close()
    except BaseException:
        server.stop()
        raise
    elapsed = time.perf_counter() - start
    ledger.check(warm)
    return server, elapsed


def serve_window(
    wl: Workload,
    server: ServerProcess,
    plans: list[list],
    bodies: dict,
    writes: list[bytes],
    seconds: float,
    min_searches: int,
    rec: SpanRecorder,
) -> tuple[list[Sample], float, float]:
    """Drive the server for ``seconds``; returns samples, start and wall time."""
    conns = [Connection(server.host, server.port) for _ in range(wl.clients)]
    results: dict = {}
    errors: list[BaseException] = []
    tally: list = []
    start = time.perf_counter()
    deadline = start + seconds
    hard_deadline = start + 3 * seconds

    def client(c: int) -> None:
        results[c] = closed_loop(
            conns[c], plans[c], bodies, deadline, min_searches, hard_deadline, tally, rec, c
        )

    def writer() -> None:
        conn = Connection(server.host, server.port)
        try:
            results["w"] = open_loop(conn, writes, wl.write_rate, start, deadline)
        finally:
            conn.close()

    def guarded(target, *args) -> None:
        try:
            target(*args)
        except BaseException as exc:  # re-raised in the main thread below
            errors.append(exc)

    second = (client, 1) if wl.clients == 2 else (writer,) if writes else None
    # A daemon, so an exception in the main loop (SIGTERM's SystemExit) is not
    # held up by the other loop running to its deadline.
    thread = threading.Thread(target=guarded, args=second, daemon=True) if second else None
    if thread:
        thread.start()
    client(0)
    if thread:
        thread.join()
    for conn in conns:
        conn.close()
    if errors:
        raise errors[0]
    samples = [s for key in sorted(results, key=str) for s in results[key]]
    wall = max(s.done for s in samples if s.kind != "mutate") - start
    return samples, start, wall


def scrape(server: ServerProcess, name: str) -> float:
    """One counter from the server's /metrics, read outside any timed window."""
    conn = Connection(server.host, server.port)
    try:
        return metric_sum(parse_metrics(conn.request("GET", "/metrics")[1].decode()), name)
    finally:
        conn.close()


def final_check(
    wl: Workload, inputs: Inputs, ledger: Ledger, server: ServerProcess, seed: int
) -> None:
    """Served answers against a fresh replay of exactly the acked writes.

    Checks a sample of the read queries, the live written records (each must
    find itself) and deleted written records (each must be gone).
    """
    import random

    from repro.engine import Query
    from repro.engine.wire import encode_query

    live = dict(enumerate(inputs.records))
    gone = {}
    for batch in sorted(ledger.acked_batches):
        for op in inputs.batches[batch]:
            if op["op"] == "upsert":
                live[op["id"]] = op["record"]
            elif op["id"] in live:
                gone[op["id"]] = live.pop(op["id"])
    ids = sorted(live)
    oracle = StringOracle([live[i] for i in ids], ids)
    rng = random.Random(seed)
    written = [i for i in ids if i >= len(inputs.records)]
    probes = [inputs.queries[i] for i in rng.sample(range(len(inputs.queries)), 40)]
    probes += [live[i] for i in rng.sample(written, min(40, len(written)))]
    probes += [gone[i] for i in rng.sample(sorted(gone), min(20, len(gone)))]
    conn = Connection(server.host, server.port)
    try:
        for payload in probes:
            body = json.dumps(encode_query(Query(wl.backend, payload, tau=wl.tau))).encode()
            status, data = conn.request("POST", "/search", body)
            ok = status == 200 and sorted(json.loads(data)["ids"]) == oracle.threshold(
                payload, int(wl.tau)
            )
            ledger.record(ok)
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def _cpu_jiffies() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat (user, nice, system, idle, ..., steal, ...)."""
    return [int(v) for v in Path("/proc/stat").read_text().splitlines()[0].split()[1:]]


def run_workload(wl: Workload, seed: int, seconds: int, trace: bool) -> dict:
    work = WORK / f"{wl.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = generate(wl, seed)
    if wl.write_rate:
        inputs.batches = writer_batches(wl, inputs, seed, math.ceil(wl.write_rate * seconds) + 1)
    expected = expected_answers(wl, inputs, seed)
    bodies, writes = encode_bodies(wl, inputs)
    plans = [request_plan(wl, inputs, seed, c, PLAN_LENGTH) for c in range(wl.clients)]
    ledger = Ledger(inputs, expected)
    rec = SpanRecorder(enabled=trace)
    setups: list[float] = []
    server = None
    info: dict = {}
    latencies: dict = {}  # kind -> [[send time into the window s, latency ms], ...]
    try:
        for rep in range(1 if trace else SETUP_REPEATS):
            if server is not None:
                server.stop()
            server, elapsed = set_up(wl, inputs, bodies, ledger, work, rep)
            setups.append(elapsed)
        if trace:
            metrics = traced_run(
                wl, inputs, server, plans, bodies, writes, seconds, ledger, rec, seed, work
            )
            server = None  # traced_run stopped it before the in-process passes
        else:
            cpu_before = _cpu_jiffies()
            server_cpu = server.cpu_seconds()
            samples, start, wall = serve_window(
                wl, server, plans, bodies, writes, seconds, MIN_P99_SAMPLES, rec
            )
            info["server_cpu_s"] = server.cpu_seconds() - server_cpu
            info["requests"] = len(samples)
            cpu = [b - a for a, b in zip(cpu_before, _cpu_jiffies())]
            # Share of the window's CPU time the hypervisor gave to other guests:
            # a run with high steal measured the host more than the program.
            info["host_steal_pct"] = 100.0 * cpu[7] / max(1, sum(cpu))
            ok = ledger.check(samples)
            for m in ledger.mismatches:
                m["due"] -= start
            for s in ok:
                latencies.setdefault(s.kind, []).append(
                    [round(s.due - start, 4), round(s.latency * 1e3, 3)]
                )
            info["server_rss_mb"] = server.peak_rss_mb()
            info["window_s"] = wall
            if wl.write_rate:
                info["compactions"] = scrape(server, "engine_auto_compactions_total")
                final_check(wl, inputs, ledger, server, seed)
            metrics = end_to_end(ok, start, seconds, setups, info)
    finally:
        if server is not None:
            server.stop()
    info.update(
        error_frac=ledger.failed / max(1, ledger.attempted),
        wrong_answers=ledger.wrong,
        mismatches=ledger.mismatches,
        statuses={str(k): v for k, v in sorted(ledger.statuses.items())},
        setup_runs_s=setups,
    )
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    context = {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "clients": wl.clients,
        "loop": "closed" if not wl.write_rate else "closed reader + open-loop writer",
        "write_rate_per_s": wl.write_rate,
        "distinct_queries": len(inputs.queries),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        **info,
    }
    (work / "result.json").write_text(json.dumps({"context": context, **result}, indent=1))
    if trace:
        (work / "spans.json").write_text(json.dumps([s.to_json() for s in rec.spans]))
    else:
        (work / "latencies.json").write_text(json.dumps(latencies))
    for path in work.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
        elif path.name not in ("result.json", "spans.json", "latencies.json", "server.log"):
            path.unlink()
    return {"context": context, **result}


def end_to_end(ok: list[Sample], start: float, seconds: int, setups: list, info: dict) -> dict:
    """The gated figures, and the served latencies and throughput.

    The gated cost of a request is the CPU time the server and its workers
    spent in the window per request they answered.  On a shared 2-vCPU cloud
    guest, episodes of 10-60% CPU steal lasting minutes stretched served
    latency 1.3-3x for whole runs at a time, so no latency or throughput
    figure held a 25% bound over ten runs; CPU time leaves the steal out
    and rose about 1.35x in a 20-24% steal episode.  Latency and throughput
    go to the result record: search p50 and throughput are each the median
    over the window's slices of that slice's figure, so a disturbance that
    covers fewer than half of the slices does not move them."""
    search = [s for s in ok if s.kind == "search"]
    topk = [s.latency for s in ok if s.kind == "topk"]
    writes = [s for s in ok if s.kind == "mutate"]
    count = max(1, round(seconds / SLICE_S))
    slice_s = seconds / count
    sent = by_slice([s.due - start for s in search], [s.latency for s in search], slice_s, count)
    done_at = [s.done - start for s in ok if s.kind != "mutate"]
    done = by_slice(done_at, done_at, slice_s, count)
    info["search_samples"] = len(search)
    info["slice_search_p50_ms"] = [percentile_ms(v) for v in sent if v]
    # A slice's throughput: the completions after its first one over the
    # time from its first to its last completion.
    info["slice_search_qps"] = [
        (len(v) - 1) / (max(v) - min(v)) if len(v) > 1 else 0.0 for v in done
    ]
    metrics = {
        "cpu_ms_per_request": info["server_cpu_s"] * 1e3 / info["requests"],
        "setup_s": median(setups),
        "server_rss_mb": info["server_rss_mb"],
    }
    info["search_p50_ms"] = median(info["slice_search_p50_ms"])
    info["search_qps"] = median(info["slice_search_qps"])
    # Also in the result record only: the tails swing with host noise, and
    # top-k / writes run on one workload each while every gated metric must
    # exist on all of them.
    info["search_p50_ms_whole_window"] = percentile_ms([s.latency for s in search])
    info["search_p99_ms"] = percentile_ms([s.latency for s in search], 99)
    if topk:
        info["topk_samples"] = len(topk)
        info["topk_p50_ms"] = percentile_ms(topk)
        if len(topk) >= MIN_P99_SAMPLES:
            info["topk_p99_ms"] = percentile_ms(topk, 99)
    if writes:
        lat = [s.latency for s in writes]
        info["mutate_samples"] = len(writes)
        info["mutate_p50_ms"] = percentile_ms(lat)
        if len(lat) >= MIN_P99_SAMPLES:
            info["mutate_p99_ms"] = percentile_ms(lat, 99)
        info["writer_late_ms_p99"] = percentile_ms([s.sent - s.due for s in writes], 99)
        info["writer_late_ms_max"] = max(s.sent - s.due for s in writes) * 1e3
    return metrics


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def traced_run(
    wl: Workload,
    inputs: Inputs,
    server: ServerProcess,
    plans: list,
    bodies: dict,
    writes: list[bytes],
    seconds: int,
    ledger: Ledger,
    rec: SpanRecorder,
    seed: int,
    work: Path,
) -> dict:
    """One served window in which every other request is traced, with
    /metrics scraped just before and after it, then every in-process layer
    pass with the server stopped."""
    from layers import run_layers

    scraper = Connection(server.host, server.port)
    try:
        before = parse_metrics(scraper.request("GET", "/metrics")[1].decode())
        samples, start, _ = serve_window(wl, server, plans, bodies, writes, seconds, 0, rec)
        after = parse_metrics(scraper.request("GET", "/metrics")[1].decode())
    finally:
        scraper.close()
    ok = ledger.check(samples)
    if wl.write_rate:
        final_check(wl, inputs, ledger, server, seed)
    server.stop()

    delta = metric_delta(before, after)
    search = [s for s in ok if s.kind == "search"]
    client_mean_ms = sum(s.latency for s in search) / len(search) * 1e3
    http_ms = histogram_mean(delta, "http_request_seconds", route="/search") * 1e3
    coalesce_ms = histogram_mean(delta, "server_coalesce_wait_seconds") * 1e3
    acks = sorted(s.done for s in ok if s.kind == "mutate")
    late = [s.sent - s.due for s in ok if s.kind == "mutate"]
    out = {
        "client.net_ms": client_mean_ms - http_ms,
        "server.coalesce_wait_ms": coalesce_ms,
        "server.batch_size": metric_sum(delta, "server_batch_queries_total")
        / max(1.0, metric_sum(delta, "server_batches_total")),
        "server.http_ms": http_ms,
        "server.rejected": metric_sum(delta, "server_rejected_total"),
        "server.errors": metric_sum(delta, "server_errors_total"),
        "compaction.count": metric_sum(delta, "engine_auto_compactions_total"),
        "compaction.max_stall_ms": max(
            (b - a for a, b in zip([start] + acks, acks)), default=0.0
        ) * 1e3,
        "loadgen.late_ms": percentile_ms(late, 99) if late else 0.0,
    }
    out.update(run_layers(wl, inputs, seed, work, rec))
    # Coverage sums mean self times along a served search's blocking path:
    # client/network, coalesce wait, decode, execution, shard hop, encode.
    folded = self_times_by_name(rec.spans)

    def mean_ms(name: str) -> float:
        return sum(folded[name]) / len(folded[name]) * 1e3

    covered = (
        out["client.net_ms"]
        + coalesce_ms
        + mean_ms("wire.decode_query")
        + mean_ms("executor.search")
        + mean_ms("wire.encode_response")
    )
    if wl.shards:
        covered += mean_ms("sharding.search") - mean_ms("sharding.unsharded")
    out["trace.coverage_pct"] = covered / client_mean_ms * 100.0
    traced = [s.latency for s in search if s.traced]
    untraced = [s.latency for s in search if not s.traced]
    out["trace.overhead_pct"] = (median(traced) / median(untraced) - 1.0) * 100.0
    out["error_frac"] = ledger.failed / max(1, ledger.attempted)
    return out


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _print_result(result: dict) -> None:
    ctx = result["context"]
    print(f"== {ctx['workload']} seed={ctx['seed']} trace={ctx['trace']}: {ctx['why']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:28s} {value:14.4f} {unit}")
    extras = {k: v for k, v in ctx.items() if k not in ("workload", "why", "seed", "trace")}
    print("  context " + json.dumps(extras, sort_keys=True))
    print(f"  correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument(
        "--trace", type=int, choices=[0, 1], default=None,
        help="0: end-to-end metrics, 1: per-layer metrics (default: 0; both with 'all')",
    )
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so its server and workers are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "engine" / "__init__.py").is_file():
        print(f"perfbench: no engine sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.trace is not None:
        modes = [args.trace]
    else:
        modes = [0, 1] if args.workload == "all" else [0]
    results = []
    for name in names:
        for trace in modes:
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            units = {m["name"]: m["unit"] for m in wanted}
            result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(trace))
            missing = set(units) - set(result["metrics"])
            if missing:
                raise RuntimeError(f"{name}: metrics not measured: {sorted(missing)}")
            result["metrics"] = {n: (result["metrics"][n], units[n]) for n in units}
            _print_result(result)
            results.append(result)
    prefix = len(results) > 1
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['context']['workload']}/{n}" if prefix else n): {"value": v, "unit": unit}
            for r in results
            for n, (v, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
