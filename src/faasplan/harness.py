"""Open-loop HTTP load generation against live endpoints.

Requests leave on the traffic pattern's schedule regardless of how slowly
responses come back, so queueing delay shows up in the measurements
instead of silently throttling the generator. One asyncio event loop
paces the sends and runs every request as a task, so a run holds no
thread per request however many are in flight. A request reuses an idle
HTTP/1.1 connection when one is free and opens a new one otherwise, so a
sample pays a TCP or TLS handshake only when no idle connection is left.
A built-in stub responder makes fully offline runs possible.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Mapping
from urllib.parse import urlsplit

from ._record import dataclass, field
from .errors import DomainError, FaasPlanError, PreflightError
from .metrics import DEFAULT_WARMUP, SampleSet, warmup_filter, write_samples_csv
from .providers import ProviderLimits, ValidationReport, Violation
from .simulator import TrafficPattern, generate_arrivals

EXEC_TIME_HEADER = "X-Exec-Time-Ms"

# Scheduler lead time before the first request, so request zero is not
# already behind schedule while the event loop starts.
_START_LEAD_S = 0.05
# A sleeping event loop can wake several ms late on a busy host (and
# epoll rounds its timeout up to whole ms), so the pacer sleeps to this
# far before each send and covers the rest in short naps.
_NAP_S = 0.015
# How often the stub's accept loop checks for shutdown: the most that
# StubServer.stop() waits.
_STUB_POLL_S = 0.01


@dataclass(frozen=True)
class BenchTarget:
    """One HTTP endpoint plus the request to hammer it with."""

    url: str
    method: str = "POST"
    headers: Mapping[str, str] = field(default_factory=dict)
    payload: bytes = b""
    timeout_ms: float = 10_000.0

    def __post_init__(self):
        _split_url(self.url)
        if not isinstance(self.payload, (bytes, bytearray)):
            raise DomainError("payload must be bytes")
        object.__setattr__(self, "payload", bytes(self.payload))
        object.__setattr__(self, "headers", dict(self.headers))
        if self.timeout_ms <= 0:
            raise DomainError("timeout_ms must be positive")

    @property
    def payload_bytes(self) -> int:
        return len(self.payload)


def _split_url(url: str) -> tuple[str, int, bool, str, str]:
    """``(host, port, https, authority, path)`` of an http:// or https:// URL."""
    try:  # ValueError on a bad [v6] literal, or a port outside 0-65535
        parts = urlsplit(url)
        port = parts.port
        valid = parts.scheme in ("http", "https") and parts.hostname and "@" not in parts.netloc
    except ValueError:
        valid = False
    if not valid:
        raise DomainError(f"target url must be an http:// or https:// URL, got {url!r}")
    https = parts.scheme == "https"
    path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    return parts.hostname, (443 if https else 80) if port is None else port, https, parts.netloc, path


def preflight(target: BenchTarget, limits: ProviderLimits) -> ValidationReport:
    """Check the request body against the provider's request-size cap."""
    violations = []
    if target.payload_bytes > limits.max_request_bytes:
        violations.append(
            Violation("request_size", limits.max_request_bytes, target.payload_bytes)
        )
    return ValidationReport(tuple(violations))


@dataclass(frozen=True)
class BenchRun:
    """Configuration of one load-generation run.

    When ``provider_limits`` is given, the run refuses to start if the
    payload would be rejected by that platform anyway.
    """

    target: BenchTarget
    pattern: TrafficPattern
    n_warmup: int = DEFAULT_WARMUP
    provider_limits: ProviderLimits | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_warmup < 0:
            raise DomainError("n_warmup must be non-negative")


@dataclass(frozen=True)
class BenchResult:
    """Outcome of a run: post-warmup samples plus full accounting.

    Every attempt lands in exactly one bucket, so
    ``len(samples) + warmup_excluded + sum(errors.values()) == attempts``.
    ``scheduled_ms``/``sent_ms`` are offsets from the run start for every
    attempt, in send order; their gap is the scheduling error.
    """

    attempts: int
    samples: SampleSet
    warmup_excluded: int
    errors: Mapping[str, int]
    scheduled_ms: tuple[float, ...]
    sent_ms: tuple[float, ...]
    server_exec: SampleSet | None = None

    def __post_init__(self):
        object.__setattr__(self, "errors", dict(self.errors))

    @property
    def error_total(self) -> int:
        return sum(self.errors.values())

    @property
    def error_ratio(self) -> float:
        return self.error_total / self.attempts if self.attempts else 0.0

    @property
    def max_schedule_error_ms(self) -> float:
        if not self.scheduled_ms:
            return 0.0
        return max(s - p for p, s in zip(self.scheduled_ms, self.sent_ms))


class _StatusError(Exception):
    """The endpoint answered with a status outside 2xx."""


def _classify(exc: BaseException) -> str:
    import asyncio  # loaded by run_bench already

    if isinstance(exc, _StatusError):
        return "http"
    # asyncio.TimeoutError is a class of its own before Python 3.11.
    if isinstance(exc, (TimeoutError, asyncio.TimeoutError)):
        return "timeout"
    return "transport"


def _server_ms(text: str | None) -> float | None:
    """The server's own time from its header; None if absent or not a finite, non-negative number."""
    try:
        value = float(text)
    except (TypeError, ValueError):
        return None
    return value if 0 <= value < float("inf") else None


def _tokens(value: str) -> set[str]:
    """The lower-cased tokens of a comma-separated header value such as ``Connection``'s."""
    return {token.strip().lower() for token in value.split(",")}


def _by_send_time(pairs: list[tuple[float, float]]) -> SampleSet:
    """Samples from ``(sent_ms, value)`` pairs, by send time; completion order breaks ties."""
    pairs = sorted(pairs, key=lambda pair: pair[0])
    return SampleSet(values=[v for _, v in pairs], timestamps=[t for t, _ in pairs] if pairs else None)


def run_bench(run: BenchRun) -> BenchResult:
    """Fire the pattern at the target, open loop, and collect samples.

    One asyncio event loop sends each request at its scheduled time as a
    task of its own, so a slow response never delays the next send. Each
    task gives up after ``timeout_ms``; the run ends when every task is
    back, so every attempt lands in exactly one accounting bucket.
    Successful responses are timed from the send to the end of the body;
    the first ``n_warmup`` successes are excluded from the returned
    samples but still counted. Must not be called from inside a running
    event loop.

    A request takes the most recently idled HTTP/1.1 connection of the
    run, or opens a new one when none is idle, so a send never waits for
    a connection and requests are never pipelined. The response body is
    framed by RFC 9112 section 6.3: none after ``HEAD``, 1xx, 204 or 304;
    chunked coding, trailers included; ``Content-Length``; else the end of
    the stream. A connection is reused only after a response framed
    without the end of the stream, with status line ``HTTP/1.1``, and
    with ``Connection: close`` in neither the request nor the response; a
    timeout or any other failure closes it. If a reused connection ends
    before the first response byte, the server probably closed it while it
    sat idle: the request is sent once more on a new connection, still as
    one attempt timed from the first send. Give the target a
    ``Connection: close`` header for one connection per request. Idle
    connections are closed when the run ends.

    Raises:
        PreflightError: if ``run.provider_limits`` is set and the payload
            exceeds the platform's request cap.
    """
    if run.provider_limits is not None:
        report = preflight(run.target, run.provider_limits)
        if not report.passed:
            raise PreflightError(
                f"payload of {run.target.payload_bytes} B exceeds "
                f"{run.provider_limits.name}'s request cap", report,
            )
    import asyncio  # here, not at the top: only bench should pay for importing it
    import ssl

    target = run.target
    host, port, https, authority, path = _split_url(target.url)
    ssl_context = ssl.create_default_context() if https else None
    # urllib's default headers, so endpoints see the same request; the target's own replace them.
    fields = {"host": ("Host", authority),
              "user-agent": ("User-Agent", "Python-urllib/%d.%d" % sys.version_info[:2]),
              "accept-encoding": ("Accept-Encoding", "identity")}
    if target.payload:
        fields["content-type"] = ("Content-Type", "application/x-www-form-urlencoded")
    if target.payload or target.method.upper() in ("POST", "PUT", "PATCH"):
        fields["content-length"] = ("Content-Length", str(target.payload_bytes))
    fields.update((name.lower(), (name, value)) for name, value in target.headers.items())
    head = "".join(f"{name}: {value}\r\n" for name, value in fields.values())
    request = f"{target.method} {path} HTTP/1.1\r\n{head}\r\n".encode("latin-1") + target.payload
    close_requested = "close" in _tokens(fields.get("connection", ("", ""))[1])
    head_request = target.method.upper() == "HEAD"
    offsets_ms = generate_arrivals(run.pattern, run.seed)
    n = len(offsets_ms)
    # (sent_ms, ms) of each success, and of each server time, in completion order.
    latencies: list[tuple[float, float]] = []
    server_times: list[tuple[float, float]] = []
    errors: Counter = Counter()
    sent_ms = [0.0] * n

    # Open connections that no request holds, most recently idled last.
    idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    def connect():
        return asyncio.open_connection(host, port, ssl=ssl_context)

    async def read_body(reader: asyncio.StreamReader, status: int, headers: dict) -> bool:
        """Read and drop the body; True if its end was framed, so the connection may carry more."""
        if status < 200:  # an interim response: the final one is still to come
            return False
        if head_request or status in (204, 304):
            return True
        coding = headers.get("transfer-encoding")
        if coding is not None and coding.rsplit(",", 1)[-1].strip().lower() == "chunked":
            while size := int((await reader.readuntil(b"\r\n")).split(b";", 1)[0], 16):
                await reader.readexactly(size + 2)  # the chunk and its CRLF
            while await reader.readuntil(b"\r\n") != b"\r\n":  # trailer fields
                pass
            return True
        if coding is None and "content-length" in headers:
            await reader.readexactly(int(headers["content-length"]))
            return True
        await reader.read()
        return False

    async def exchange() -> tuple[float, float | None]:
        reused = bool(idle)
        reader, writer = idle.pop() if reused else await connect()
        keep = False
        try:
            writer.write(request)
            try:
                first = await reader.readexactly(1)
            except (asyncio.IncompleteReadError, ConnectionError):
                if not reused:
                    raise
                # Not one response byte: the server probably closed the idle connection.
                writer.transport.abort()
                reader, writer = await connect()
                writer.write(request)
                first = await reader.readexactly(1)
            status_line, *lines = (first + await reader.readuntil(b"\r\n\r\n")).decode("latin-1").split("\r\n")
            version, status = status_line.split(" ", 2)[:2]
            status = int(status)
            headers = {name.strip().lower(): value.strip()
                       for name, _, value in (line.partition(":") for line in lines if line)}
            framed = await read_body(reader, status, headers)
            end = time.perf_counter()
            keep = (framed and version == "HTTP/1.1" and not close_requested
                    and "close" not in _tokens(headers.get("connection", "")))
        finally:
            if keep:
                idle.append((reader, writer))
            else:
                # abort, not close: a TLS close would wait for the server's close_notify.
                writer.transport.abort()
        if not 200 <= status < 300:
            raise _StatusError(status)
        return end, _server_ms(headers.get(EXEC_TIME_HEADER.lower()))

    async def fire(index: int, send: float) -> None:
        try:
            end, server_ms = await asyncio.wait_for(exchange(), target.timeout_ms / 1000.0)
        except Exception as exc:  # noqa: BLE001 - every failure is tallied, not raised
            errors[_classify(exc)] += 1
            return
        latencies.append((sent_ms[index], (end - send) * 1000.0))
        if server_ms is not None:
            server_times.append((sent_ms[index], server_ms))

    async def pace() -> None:
        tasks = []
        for index, offset in enumerate(offsets_ms):
            deadline = start + offset / 1000.0
            while (remaining := deadline - time.perf_counter()) > 0:
                if remaining > _NAP_S:
                    await asyncio.sleep(remaining - _NAP_S)
                else:
                    # A ~50 us nap (one timer slack) with the CPU idle kept sends
                    # on time more often on a shared host than spinning on sleep(0).
                    time.sleep(0)
                    await asyncio.sleep(0)
            send = time.perf_counter()
            sent_ms[index] = (send - start) * 1000.0
            tasks.append(asyncio.create_task(fire(index, send)))
        await asyncio.gather(*tasks)
        for _, writer in idle:
            writer.transport.abort()
        await asyncio.gather(*(writer.wait_closed() for _, writer in idle))

    start = time.perf_counter() + _START_LEAD_S
    asyncio.run(pace())

    raw = _by_send_time(latencies)
    samples = warmup_filter(raw, run.n_warmup)
    return BenchResult(
        attempts=n,
        samples=samples,
        warmup_excluded=len(raw) - len(samples),
        errors=dict(errors),
        scheduled_ms=tuple(offsets_ms),
        sent_ms=tuple(sent_ms),
        server_exec=_by_send_time(server_times) if server_times else None,
    )


def export_run(result: BenchResult, path: str | Path) -> None:
    """Write the post-warmup samples in the shared CSV format."""
    try:
        write_samples_csv(result.samples, path)
    except OSError as exc:
        raise FaasPlanError(f"cannot write samples to {path}: {exc}") from exc


class _StubHandler(BaseHTTPRequestHandler):
    server: "_StubHTTPServer"
    protocol_version = "HTTP/1.1"  # keep connections open between requests
    # Headers and body are two writes: with Nagle on, the body would wait
    # for the client's delayed ACK of the headers, about 40 ms.
    disable_nagle_algorithm = True

    def _respond(self) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            self.rfile.read(length)
        index, delay_ms, fail = self.server.plan_response()
        if delay_ms > 0:
            time.sleep(delay_ms / 1000.0)
        body = b'{"ok": true}' if not fail else b'{"ok": false}'
        self.send_response(500 if fail else 200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header(EXEC_TIME_HEADER, repr(delay_ms))
        self.send_header("X-Request-Index", str(index))
        self.end_headers()
        self.wfile.write(body)

    do_GET = _respond
    do_POST = _respond

    def log_message(self, *args) -> None:  # silence per-request stderr noise
        pass


class _StubHTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, handler, delay_ms, jitter_ms, fail_every, seed):
        super().__init__(address, handler)
        self._delay_ms = delay_ms
        self._jitter_ms = jitter_ms
        self._fail_every = fail_every
        self._rng = random.Random(seed)
        self._counter = 0
        self._lock = threading.Lock()

    def handle_error(self, request, client_address) -> None:
        # A client may reset a connection it keeps alive, or leave before its answer.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def plan_response(self) -> tuple[int, float, bool]:
        with self._lock:
            self._counter += 1
            index = self._counter
            delay = self._delay_ms
            if self._jitter_ms:
                delay += self._rng.uniform(0.0, self._jitter_ms)
        fail = self._fail_every is not None and index % self._fail_every == 0
        return index, delay, fail


class StubServer:
    """Local HTTP responder with a configurable delay and failure schedule.

    Sleeps ``delay_ms`` (plus uniform jitter up to ``jitter_ms``) before
    answering, and fails every ``fail_every``-th request (1-based) with
    HTTP 500, deterministically. The applied delay is echoed in the
    ``X-Exec-Time-Ms`` response header. Speaks HTTP/1.1, so a client may
    reuse its connection. ``stop()`` returns without waiting for
    connections a client still holds open. Usable as a context manager.
    """

    def __init__(
        self,
        delay_ms: float = 50.0,
        jitter_ms: float = 0.0,
        fail_every: int | None = None,
        seed: int = 0,
    ):
        if delay_ms < 0 or jitter_ms < 0:
            raise DomainError("delay_ms and jitter_ms must be non-negative")
        if fail_every is not None and fail_every < 1:
            raise DomainError("fail_every must be at least 1")
        self._server = _StubHTTPServer(
            ("127.0.0.1", 0), _StubHandler, delay_ms, jitter_ms, fail_every, seed
        )
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/"

    @property
    def requests_seen(self) -> int:
        return self._server._counter

    def start(self) -> "StubServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(_STUB_POLL_S,), daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server.server_close()

    def __enter__(self) -> "StubServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
