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
import socketserver
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Mapping
from urllib.parse import urlsplit

from ._record import dataclass, field
from .errors import DomainError, PreflightError, check_seed, writing
from .metrics import DEFAULT_WARMUP, SampleSet, warmup_filter, write_samples_csv

if TYPE_CHECKING:  # pragma: no cover
    from .providers import ProviderLimits, ValidationReport
    from .simulator import TrafficPattern

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
        if not self.timeout_ms > 0:  # NaN too
            raise DomainError(f"timeout_ms must be positive, got {self.timeout_ms}")

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
    from .providers import ValidationReport, Violation

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
        object.__setattr__(self, "seed", check_seed(self.seed))
        if self.n_warmup < 0:
            raise DomainError("n_warmup must be non-negative")


@dataclass(frozen=True)
class BenchResult:
    """Outcome of a run: post-warmup samples plus full accounting.

    Every attempt lands in exactly one bucket, so
    ``len(samples) + warmup_excluded + sum(errors.values()) == attempts``.
    ``server_exec`` is not warm-up filtered: it holds the server's own time
    of every successful response that sent one, warm-up included, in send
    order (None if none did). So against the stub, which always sends it,
    ``len(server_exec) == len(samples) + warmup_excluded``.
    ``scheduled_ms``/``sent_ms`` are offsets from the run start for every
    attempt, in send order; their gap is the scheduling error. ``sent_ms``
    stamps the write of the request on a reused connection, and the request
    for a connection on a new one: the connect and the write follow it.
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


def _in_send_order(values: list[float | None], sent_ms: list[float]) -> SampleSet:
    """Samples of the requests with a value, by request index, each stamped with its send time."""
    kept = [i for i, v in enumerate(values) if v is not None]
    return SampleSet(values=[values[i] for i in kept],
                     timestamps=[sent_ms[i] for i in kept] if kept else None)


def run_bench(run: BenchRun) -> BenchResult:
    """Fire the pattern at the target, open loop, and collect samples.

    One asyncio event loop sends each request at its scheduled time as a
    task of its own, so a slow response never delays the next send. Each
    task gives up after ``timeout_ms``; the run ends when every task is
    back, so every attempt lands in exactly one accounting bucket.
    Successful responses are timed from the send to the end of the body;
    the first ``n_warmup`` successes are excluded from the returned
    samples but still counted. Samples are in request index order.
    Requests leave in index order, so ``sent_ms`` never decreases along
    it: this is send order, and requests with the same ``sent_ms`` keep
    index order too. Must not be called from inside a running event loop.

    A request takes the most recently idled HTTP/1.1 connection of the
    run, or opens a new one when none is idle, so a send never waits for
    a connection and requests are never pipelined. On an idle connection
    the pacer writes the request in the step that stamps its send, and the
    task only reads the answer; a new connection is opened and written by
    the request's own task, after the stamp. The response body is
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

    from .simulator import generate_arrivals

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
    # Per request index: the latency of a success and the server's own time, else None.
    latencies: list[float | None] = [None] * n
    server_times: list[float | None] = [None] * n
    errors: Counter = Counter()
    sent_ms = [0.0] * n

    # Open connections that no request holds, most recently idled last.
    idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
    # Request index -> the idle connection the pacer wrote it on, until the request's task takes it.
    handed: dict[int, tuple[asyncio.StreamReader, asyncio.StreamWriter]] = {}

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

    async def exchange(index: int) -> tuple[float, float | None]:
        reused = index in handed
        reader, writer = handed.pop(index) if reused else await connect()
        keep = False
        try:
            if not reused:
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
            end, server_ms = await asyncio.wait_for(exchange(index), target.timeout_ms / 1000.0)
        except Exception as exc:  # noqa: BLE001 - every failure is tallied, not raised
            errors[_classify(exc)] += 1
            return
        finally:
            # exchange() never ran if the task was cancelled or timed out first.
            if (held := handed.pop(index, None)) is not None:
                held[1].transport.abort()
        latencies[index] = (end - send) * 1000.0
        server_times[index] = server_ms

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
            if idle:
                # The request leaves now; its task only reads the answer. A transport
                # write does not raise on a send error: the read that follows sees it.
                _, writer = handed[index] = idle.pop()
                writer.write(request)
            tasks.append(asyncio.create_task(fire(index, send)))
        await asyncio.gather(*tasks)
        for _, writer in idle:
            writer.transport.abort()
        await asyncio.gather(*(writer.wait_closed() for _, writer in idle))

    start = time.perf_counter() + _START_LEAD_S
    asyncio.run(pace())

    raw = _in_send_order(latencies, sent_ms)
    server_exec = _in_send_order(server_times, sent_ms)
    samples = warmup_filter(raw, run.n_warmup)
    return BenchResult(
        attempts=n,
        samples=samples,
        warmup_excluded=len(raw) - len(samples),
        errors=dict(errors),
        scheduled_ms=tuple(offsets_ms),
        sent_ms=tuple(sent_ms),
        server_exec=server_exec if len(server_exec) else None,
    )


def export_run(result: BenchResult, path: str | Path) -> None:
    """Write the post-warmup samples in the shared CSV format.

    A failed write raises ``FaasPlanError("<path>: cannot write: <reason>")``.
    """
    with writing(path):
        write_samples_csv(result.samples, path)


# http.server's limits: the longest request or header line, and the most header lines.
_MAX_LINE = 65536
_MAX_FIELDS = 100
# The most digits of a Content-Length: a body of 10**18 bytes or more is no real request.
_MAX_DIGITS = 18
# The stub's longest delay plus jitter: the longest wait threading can time.
_MAX_DELAY_MS = threading.TIMEOUT_MAX * 1000.0
_DAY_S = 86400.0
_ERRORS = {400: "Bad Request", 414: "URI Too Long", 431: "Request Header Fields Too Large",
           501: "Not Implemented", 505: "HTTP Version Not Supported"}


def _sleep(seconds: float) -> None:
    """``time.sleep`` that takes up to ``threading.TIMEOUT_MAX`` s.

    ``time.sleep`` alone fails once its deadline passes 2**63 ns on the
    monotonic clock, as a sleep of ``threading.TIMEOUT_MAX`` s does.
    """
    while seconds > 0:
        time.sleep(min(seconds, _DAY_S))
        seconds -= _DAY_S


class _StubHandler(socketserver.StreamRequestHandler):
    """Answers the requests of one connection in turn, as RFC 9112 frames them.

    A GET or POST gets the stub's answer once its ``Content-Length`` body
    is read and dropped, but no sooner than the stub's delay after its
    request line arrived: reading the rest of the request counts toward
    the delay. ``Expect: 100-continue`` gets ``100 Continue`` first.
    Refused, each with an answer that closes the connection:

    - 400: a malformed request line, or a ``Content-Length`` that is not
      a decimal of at most ``_MAX_DIGITS`` digits;
    - 414: a request line over ``_MAX_LINE`` bytes;
    - 431: a header line over ``_MAX_LINE`` bytes, or more than
      ``_MAX_FIELDS`` of them;
    - 501: a method other than GET and POST, or any ``Transfer-Encoding``;
    - 505: a version other than HTTP/1.0 and HTTP/1.1.

    The answer to an HTTP/1.0 request, or to one with ``Connection: close``,
    closes the connection too.
    """

    server: "StubServer"
    # An answer is one write, but ``100 Continue`` goes before it: with
    # Nagle on, the answer would wait for the client's delayed ACK, about 40 ms.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        rfile = self.rfile
        while True:
            line = rfile.readline(_MAX_LINE + 1)
            arrival = time.perf_counter()
            if not line:
                return  # the client closed the connection
            if len(line) > _MAX_LINE:
                return self._refuse(414)
            words = line.split()
            if len(words) != 3 or not words[2].startswith(b"HTTP/"):
                return self._refuse(400)
            method, _, version = words
            if version not in (b"HTTP/1.0", b"HTTP/1.1"):
                return self._refuse(505)
            fields: dict[str, str] = {}
            for _ in range(_MAX_FIELDS + 1):
                line = rfile.readline(_MAX_LINE + 1)
                if line in (b"\r\n", b"\n"):
                    break
                if not line:
                    return  # the client left part way through the header
                if len(line) > _MAX_LINE:
                    return self._refuse(431)
                name, _, value = line.decode("latin-1").partition(":")
                name, value = name.strip().lower(), value.strip()
                # Repeated fields combine into one list, as RFC 9110 5.3 has it.
                fields[name] = f"{fields[name]}, {value}" if name in fields else value
            else:
                return self._refuse(431)
            if method not in (b"GET", b"POST") or "transfer-encoding" in fields:
                return self._refuse(501)
            length = fields.get("content-length", "0")
            if not (length.isascii() and length.isdigit() and len(length) <= _MAX_DIGITS):
                return self._refuse(400)
            if version == b"HTTP/1.1" and fields.get("expect", "").lower() == "100-continue":
                self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            length = int(length)
            while length and (chunk := rfile.read(min(length, _MAX_LINE))):
                length -= len(chunk)
            if length:
                return  # the client left part way through the body
            close = version == b"HTTP/1.0" or "close" in _tokens(fields.get("connection", ""))
            self._answer(close, arrival)
            if close:
                return

    def _answer(self, close: bool, arrival: float) -> None:
        """Answer ``delay_ms`` after the request line's ``arrival``, or now if that is past."""
        index, delay_ms, fail = self.server.plan_response()
        body = b'{"ok": false}' if fail else b'{"ok": true}'
        connection = "Connection: close\r\n" if close else ""
        head = (f"HTTP/1.1 {'500 Internal Server Error' if fail else '200 OK'}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
                f"{EXEC_TIME_HEADER}: {delay_ms!r}\r\nX-Request-Index: {index}\r\n"
                f"{connection}\r\n")
        answer = head.encode("latin-1") + body
        _sleep(arrival + delay_ms / 1000.0 - time.perf_counter())
        self.wfile.write(answer)

    def _refuse(self, status: int) -> None:
        """Answer ``status`` with no body; the connection closes after it."""
        self.wfile.write(f"HTTP/1.1 {status} {_ERRORS[status]}\r\nContent-Length: 0\r\n"
                         "Connection: close\r\n\r\n".encode("latin-1"))


class StubServer(socketserver.ThreadingTCPServer):
    """Local HTTP responder with a configurable delay and failure schedule.

    Answers ``delay_ms`` (plus uniform jitter up to ``jitter_ms``) after
    the request line arrives, or once the whole request is read if that is
    later; the delay is at most ``threading.TIMEOUT_MAX`` s in all. Fails
    every ``fail_every``-th request (1-based) with HTTP 500,
    deterministically. The applied delay, the time from the request line
    to the answer, is echoed in the ``X-Exec-Time-Ms`` response header.
    Speaks HTTP/1.1, so a client may reuse its connection. ``stop()`` may
    be called in any state, and returns without waiting for connections a
    client still holds open. ``with`` starts the stub and stops it.
    """

    daemon_threads = True

    def __init__(
        self,
        delay_ms: float = 50.0,
        jitter_ms: float = 0.0,
        fail_every: int | None = None,
        seed: int = 0,
    ):
        # NaN fails every comparison, and an infinite delay or jitter the sum's.
        if not (0 <= delay_ms and 0 <= jitter_ms and delay_ms + jitter_ms <= _MAX_DELAY_MS):
            raise DomainError(f"delay_ms and jitter_ms must be finite and non-negative, with a sum "
                              f"of at most {_MAX_DELAY_MS:.0f} ms, got {delay_ms} and {jitter_ms}")
        if fail_every is not None and fail_every < 1:
            raise DomainError("fail_every must be at least 1")
        self._delay_ms = delay_ms
        self._jitter_ms = jitter_ms
        self._fail_every = fail_every
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self.requests_seen = 0
        super().__init__(("127.0.0.1", 0), _StubHandler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}/"

    def handle_error(self, request, client_address) -> None:
        # A client may reset a connection it keeps alive, or leave before its answer.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def plan_response(self) -> tuple[int, float, bool]:
        with self._lock:
            self.requests_seen += 1
            index = self.requests_seen
            delay = self._delay_ms
            if self._jitter_ms:
                delay += self._rng.uniform(0.0, self._jitter_ms)
        fail = self._fail_every is not None and index % self._fail_every == 0
        return index, delay, fail

    def start(self) -> "StubServer":
        self._thread = threading.Thread(
            target=self.serve_forever, args=(_STUB_POLL_S,), daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        # shutdown() waits for a serve_forever loop to end, so it would wait
        # forever on a stub that start() never ran, or that stop() already ended.
        thread, self._thread = self._thread, None
        if thread is not None:
            self.shutdown()
            thread.join(timeout=5.0)
        self.server_close()

    def __enter__(self) -> "StubServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
