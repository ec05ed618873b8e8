"""The served side: the real server as a subprocess, and the load loops.

One load-generator process drives the server with at most two threads,
each owning one keep-alive connection.  Request bodies are encoded before
timing starts; responses are stored raw and checked after the window.
"""

from __future__ import annotations

import http.client
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from harness import SpanRecorder

REQUEST_TIMEOUT_S = 10.0
_UNTRACED = SpanRecorder(enabled=False)
READY_TIMEOUT_S = 90.0
HEADERS = {"Content-Type": "application/json"}


class ServerProcess:
    """``python -m repro.engine serve`` on a free port, until :meth:`stop`."""

    def __init__(self, src: Path, index: Path, work: Path, extra: list[str]):
        self._ready = work / "ready"
        self._ready.unlink(missing_ok=True)
        self._log = open(work / "server.log", "ab")
        env = dict(os.environ, PYTHONPATH=str(src))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.engine", "serve", "--index", str(index),
             "--ready-file", str(self._ready), *extra],
            env=env,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.host = ""
        self.port = 0
        self._pids: set[int] = {self.proc.pid}

    def wait_ready(self) -> None:
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while not self._ready.exists():
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode} before ready")
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not become ready")
            time.sleep(0.002)
        host, port = self._ready.read_text().split()
        self.host, self.port = host, int(port)

    def descendants(self) -> set[int]:
        """The server's pid and every live process below it."""
        found = {self.proc.pid}
        frontier = [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            for task in Path(f"/proc/{pid}/task").glob("*/children"):
                try:
                    kids = {int(k) for k in task.read_text().split()}
                except OSError:
                    continue
                frontier.extend(kids - found)
                found |= kids
        self._pids |= found
        return found

    def peak_rss_mb(self) -> float:
        """``VmHWM`` summed over the server and its worker children."""
        total_kb = 0
        for pid in self.descendants():
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def cpu_seconds(self) -> float:
        """User + system CPU time of the server and its workers, all threads.

        On a guest with paravirtual steal accounting the kernel charges a
        tick in which the hypervisor ran another guest to steal, not to the
        process, so steal itself is left out; a busy host still slows each
        instruction and so raises this figure, but less than wall time.
        """
        ticks = 0
        for pid in self.descendants():
            try:
                fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """Graceful SIGTERM drain; SIGKILL for the whole tree if it hangs or crashed."""
        crashed = self.proc.poll() is not None
        if not crashed:
            self.descendants()
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                crashed = True
        if crashed:
            for pid in self._pids:
                try:
                    if "python" in Path(f"/proc/{pid}/cmdline").read_text(errors="replace"):
                        os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            self.proc.wait()
        self._pids = set()
        self._log.close()


class Connection:
    """One keep-alive HTTP connection; a failed request reconnects next time."""

    def __init__(self, host: str, port: int):
        self._host, self._port = host, port
        self._conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        """``(status, body)``; status 0 for a timeout or a broken connection."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self._host, self._port, timeout=REQUEST_TIMEOUT_S
            )
        try:
            self._conn.request(method, path, body=body, headers=HEADERS if body else {})
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


@dataclass
class Sample:
    """One request as the load generator saw it (``perf_counter`` seconds)."""

    kind: str  # "search", "topk" or "mutate"
    item: int  # query index, or batch index for writes
    due: float  # scheduled send time (== sent for closed loops)
    sent: float
    done: float
    status: int
    body: bytes
    traced: bool = False  # sent inside a ``client.request`` span

    @property
    def latency(self) -> float:
        return self.done - self.due


def closed_loop(
    conn: Connection,
    plan: list,
    bodies: dict,
    deadline: float,
    min_searches: int,
    hard_deadline: float,
    shared: list,
    rec: SpanRecorder,
    client: int,
) -> list[Sample]:
    """Send the plan's requests back to back until the deadline.

    The loop runs past ``deadline`` (never past ``hard_deadline``) until the
    clients together have ``min_searches`` threshold samples, so a p99 always
    rests on enough samples; ``shared`` is that cross-client tally.  With an
    enabled recorder every other request is a ``client.request`` span, so
    traced and untraced requests interleave against the same server state.
    """
    out: list[Sample] = []
    step = 0
    while True:
        now = time.perf_counter()
        if now >= hard_deadline or (now >= deadline and len(shared) >= min_searches):
            return out
        is_topk, qi = plan[step % len(plan)]
        step += 1
        path = "/search/topk" if is_topk else "/search"
        traced = rec.enabled and step % 2 == 0
        with (rec if traced else _UNTRACED).span("client.request", client * 10_000_000 + step):
            start = time.perf_counter()
            status, data = conn.request("POST", path, bodies[is_topk, qi])
            end = time.perf_counter()
        kind = "topk" if is_topk else "search"
        out.append(Sample(kind, qi, start, start, end, status, data, traced))
        if not is_topk:
            shared.append(1)


def open_loop(
    conn: Connection, bodies: list[bytes], rate: float, start: float, deadline: float
) -> list[Sample]:
    """Send write batch ``i`` at ``start + i / rate`` whatever the server does.

    Latency counts from the scheduled time, so a stall charges every batch
    queued behind it; ``sent - due`` is how late the generator ran.
    """
    out: list[Sample] = []
    for i, body in enumerate(bodies):
        due = start + i / rate
        if due >= deadline:
            break
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        sent = time.perf_counter()
        status, data = conn.request("POST", "/mutate", body)
        out.append(Sample("mutate", i, due, sent, time.perf_counter(), status, data))
    return out
