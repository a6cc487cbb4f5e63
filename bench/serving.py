"""Driving the ODR serving tier from outside: one server, one client.

The server is ``python -m repro.serve`` (the single-worker async tier) in
its own process.  The load comes from this process alone, on at most two
threads with one keep-alive connection each.  The client
speaks just enough HTTP/1.1 to time requests; it shares no code with
``repro.loadgen`` so that a change to the program cannot move the
yardstick.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from stats import due_anchored

HOST = "127.0.0.1"
#: Connections (and client threads) the load generator may use.
CONNECTIONS = 2
BOOT_TIMEOUT = 30.0
_ANNOUNCE = re.compile(rb"listening on http://[^:/]+:(\d+)/")


class Connection:
    """One keep-alive HTTP/1.1 connection with a minimal GET."""

    def __init__(self, port: int, timeout: float = 10.0):
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._buffer = b""

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((HOST, self.port),
                                        timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._buffer = sock, b""
        return sock

    def _fill(self, sock: socket.socket) -> None:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def get(self, path: str) -> tuple[int, bytes]:
        """(status, body) of ``GET path``; raises ``OSError`` on
        transport failure, after which the next call reconnects."""
        sock = self._sock or self._connect()
        try:
            sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"
                         .encode("latin-1"))
            while b"\r\n\r\n" not in self._buffer:
                self._fill(sock)
            head, _sep, rest = self._buffer.partition(b"\r\n\r\n")
            lines = head.split(b"\r\n")
            status = int(lines[0].split()[1])
            length, close = 0, False
            for line in lines[1:]:
                name, _sep, value = line.partition(b":")
                name = name.strip().lower()
                if name == b"content-length":
                    length = int(value)
                elif name == b"connection":
                    close = value.strip().lower() == b"close"
            self._buffer = rest
            while len(self._buffer) < length:
                self._fill(sock)
            body, self._buffer = self._buffer[:length], \
                self._buffer[length:]
        except (OSError, ValueError, IndexError):
            self.close()
            raise ConnectionError("malformed or broken response")
        if close:
            self.close()
        return status, body

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


def decide_ok(status: int, body: bytes) -> bool:
    """A ``/decide`` succeeded: 200 with a JSON object body."""
    if status != 200:
        return False
    try:
        return isinstance(json.loads(body), dict)
    except ValueError:
        return False


def program_env(root: Path) -> dict[str, str]:
    """The environment a child process needs to import the program."""
    return dict(os.environ, PYTHONPATH=str(root / "src"))


class ServerProcess:
    """``python -m repro.serve --port 0`` as a child process; returns
    once the server has answered a ``/decide`` with 200."""

    def __init__(self, root: Path, probe_path: str):
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--host", HOST,
             "--port", "0"],
            cwd=root, env=program_env(root), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        try:
            self.port = self._read_port()
            self._wait_decide(probe_path)
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.process.pid

    def _read_port(self) -> int:
        assert self.process.stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(BOOT_TIMEOUT):
                raise RuntimeError("server did not announce its port")
        match = _ANNOUNCE.search(self.process.stdout.readline())
        if match is None:
            raise RuntimeError(
                f"server exited ({self.process.poll()}) before listening")
        return int(match.group(1))

    def _wait_decide(self, path: str) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT
        connection = Connection(self.port)
        try:
            while time.monotonic() < deadline:
                try:
                    if decide_ok(*connection.get(path)):
                        return
                except OSError:
                    pass
                time.sleep(0.01)
        finally:
            connection.close()
        raise RuntimeError("server never answered /decide")

    def cpu_seconds(self) -> float:
        """User + system CPU the server has used so far."""
        fields = Path(f"/proc/{self.pid}/stat").read_text() \
            .rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) \
            / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark (``VmHWM``)."""
        for line in Path(f"/proc/{self.pid}/status").read_text() \
                .splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


@dataclass
class OpenLoop:
    """Per-request samples of one open-loop phase."""

    rate: float
    latencies: list[float] = field(default_factory=list)
    lags: list[float] = field(default_factory=list)
    failed: int = 0

    @property
    def sent(self) -> int:
        return len(self.latencies)


#: ``send(slot, index)`` issues request ``index`` on connection ``slot``
#: and returns whether it succeeded.
Send = Callable[[int, int], bool]


def open_loop(send: Send, rate: float, duration: float,
              threads: int = CONNECTIONS,
              clock: Callable[[], float] = time.perf_counter
              ) -> OpenLoop:
    """Send ``rate * duration`` requests on a fixed schedule.

    Request ``i`` is due at ``start + i / rate``; whichever thread is
    free takes the next due request, and each latency is measured from
    the due time.  A failed request counts as a miss: its latency is
    infinite.
    """
    result = OpenLoop(rate)
    total = int(rate * duration)
    start = clock() + 0.01
    counter = iter(range(total))
    lock = threading.Lock()

    def worker(slot: int) -> None:
        while True:
            with lock:
                index = next(counter, None)
            if index is None:
                return
            due = start + index / rate
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            sent = clock()
            ok = send(slot, index)
            latency, lag = due_anchored(due, sent, clock())
            with lock:
                result.latencies.append(latency if ok else float("inf"))
                result.lags.append(lag)
                result.failed += not ok

    _run_threads(worker, threads)
    return result


def closed_loop(send: Send, duration: float,
                clients: int = CONNECTIONS) -> tuple[int, int]:
    """(completed, failed) of ``clients`` callers that each send their
    next request as soon as the previous one returns."""
    counts = [[0, 0] for _ in range(clients)]
    end = time.perf_counter() + duration

    def caller(slot: int) -> None:
        index = slot
        while time.perf_counter() < end:
            counts[slot][0 if send(slot, index) else 1] += 1
            index += clients

    _run_threads(caller, clients)
    return sum(c[0] for c in counts), sum(c[1] for c in counts)


def _run_threads(target: Callable[[int], None], count: int) -> None:
    threads = [threading.Thread(target=target, args=(slot,))
               for slot in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class Client:
    """A fixed pool of keep-alive connections sending trace paths.

    Connection ``slot`` belongs to load thread ``slot``; scrapes of
    ``/statz`` and ``/metrics`` use connection 0 between load phases.
    """

    def __init__(self, port: int, paths: list[str]):
        self.paths = paths
        self.connections = [Connection(port) for _ in range(CONNECTIONS)]
        #: Added to every request index, so each phase replays fresh
        #: trace requests.
        self.offset = 0
        #: Requests other than ``/decide`` sent so far.
        self.gets = 0

    def send(self, slot: int, index: int) -> bool:
        try:
            return decide_ok(*self.connections[slot].get(
                self.paths[(self.offset + index) % len(self.paths)]))
        except OSError:
            return False

    def get(self, path: str) -> bytes:
        self.gets += 1
        status, body = self.connections[0].get(path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return body

    def close(self) -> None:
        for connection in self.connections:
            connection.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def prom_value(text: str, name: str, labels: str = "") -> float:
    """One sample from a Prometheus text page, 0.0 when absent."""
    prefix = f"{name}{{{labels}}} " if labels else f"{name} "
    for line in text.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):])
    return 0.0
