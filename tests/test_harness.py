import asyncio
import contextlib
import gc
import http.client
import math
import shutil
import socket
import ssl
import statistics
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
import warnings
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from unittest import mock
from urllib.parse import urlsplit

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faasplan import (
    GB,
    MB,
    UNLIMITED,
    BenchResult,
    BenchRun,
    BenchTarget,
    DomainError,
    FaasPlanError,
    PreflightError,
    ProviderLimits,
    SampleSet,
    StubServer,
    TrafficPattern,
    export_run,
    preflight,
    run_bench,
)
from faasplan.harness import (
    _START_LEAD_S,
    EXEC_TIME_HEADER,
    _classify,
    _split_url,
    _StatusError,
    _StubHandler,
)

LIMITS = ProviderLimits("aws", 250 * MB, 10 * GB, 6 * MB)


def test_stub_echoes_delay_and_index():
    with StubServer(delay_ms=5.0) as stub:
        with urllib.request.urlopen(stub.url) as resp:
            assert resp.status == 200
            assert resp.headers[EXEC_TIME_HEADER] == "5.0"
            assert resp.headers["X-Request-Index"] == "1"
        assert stub.requests_seen == 1


def test_stub_failure_schedule_is_deterministic():
    with StubServer(delay_ms=0.0, fail_every=2) as stub:
        statuses = []
        for _ in range(6):
            try:
                with urllib.request.urlopen(stub.url) as resp:
                    statuses.append(resp.status)
            except urllib.error.HTTPError as exc:
                statuses.append(exc.code)
        assert statuses == [200, 500, 200, 500, 200, 500]


def test_stub_validation():
    with pytest.raises(DomainError):
        StubServer(delay_ms=-1.0)
    with pytest.raises(DomainError):
        StubServer(fail_every=0)
    # A NaN delay once answered at once with "X-Exec-Time-Ms: nan", and an
    # infinite jitter turned every request into a transport error.
    # A finite delay past threading.TIMEOUT_MAX s once passed, then killed every handler.
    longest_ms = threading.TIMEOUT_MAX * 1000
    for delay_ms, jitter_ms in ((math.nan, 0.0), (math.inf, 0.0), (0.0, math.nan),
                                (0.0, math.inf), (0.0, -math.inf), (1e300, 0.0), (0.0, 1e300),
                                (longest_ms, 1.0), (longest_ms / 2, longest_ms)):
        with pytest.raises(DomainError, match="must be finite and non-negative"):
            StubServer(delay_ms=delay_ms, jitter_ms=jitter_ms)
    with StubServer(delay_ms=longest_ms / 2, jitter_ms=longest_ms / 2):
        pass


def _raw(stub: StubServer, request: bytes, timeout: float = 2.0) -> bytes:
    """Send ``request`` on a new connection to ``stub``; return all it answers until it closes.

    Raises TimeoutError if the stub neither answers nor closes within ``timeout`` s.
    """
    parts = urlsplit(stub.url)
    answer = b""
    with socket.create_connection((parts.hostname, parts.port), timeout=timeout) as client:
        client.sendall(request)
        try:
            while chunk := client.recv(65536):
                answer += chunk
        except ConnectionResetError:  # the stub closed with part of the request unread
            pass
    return answer


def test_stub_holds_a_request_for_its_longest_delay(capfd):
    # time.sleep fails on a sleep this long: the handler once died with a traceback.
    with StubServer(delay_ms=threading.TIMEOUT_MAX * 1000) as stub:
        with pytest.raises(TimeoutError):
            _raw(stub, b"GET / HTTP/1.1\r\nHost: stub\r\n\r\n", timeout=0.3)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("request_bytes, status", [
    (b"GARBAGE\r\n\r\n", 400),
    (b"GET /" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
    (b"GET / HTTP/1.1\r\nX-Long: " + b"x" * 70_000 + b"\r\n\r\n", 431),
    (b"GET / HTTP/1.1\r\n" + b"".join(b"X-%d: 1\r\n" % i for i in range(101)) + b"\r\n", 431),
    (b"PUT / HTTP/1.1\r\nContent-Length: 2\r\n\r\nok", 501),
    (b"GET / HTTP/2.0\r\n\r\n", 505),
    # Once a ValueError traceback, and the connection dropped without an answer.
    (b"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
    # Once a handler blocked in rfile.read(-1) until the client left.
    (b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
    # No real body is 10**18 bytes or more; from 4,301 digits on, int() would raise.
    (b"POST / HTTP/1.1\r\nContent-Length: " + b"1" * 19 + b"\r\n\r\n", 400),
    # Once answered 200, and then its chunk lines answered 400 as the next request.
    (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n", 501),
], ids=["malformed-request-line", "long-request-line", "long-header-line", "too-many-headers",
        "unsupported-method", "unsupported-version", "length-not-a-number", "length-negative",
        "length-19-digits", "transfer-coding"])
def test_stub_refuses_a_bad_request_and_closes(capfd, request_bytes, status):
    with StubServer(delay_ms=0.0) as stub:
        answer = _raw(stub, request_bytes)
        assert stub.requests_seen == 0
    assert answer.startswith(b"HTTP/1.1 %d " % status)
    assert answer.count(b"HTTP/1.1 ") == 1 and b"\r\nConnection: close\r\n" in answer
    assert capfd.readouterr().err == ""


def test_stub_takes_100_headers_and_keeps_the_connection():
    fields = b"".join(b"X-%d: 1\r\n" % i for i in range(100))
    with StubServer(delay_ms=0.0) as stub:
        answer = _raw(stub, b"GET / HTTP/1.1\r\n" + fields + b"\r\n"
                            b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
    assert answer.count(b"HTTP/1.1 200 OK\r\n") == 2


def test_stub_drops_a_body_and_answers_the_next_request():
    # Each answer is framed by its Content-Length; the second ends the connection.
    with StubServer(delay_ms=0.0) as stub:
        answer = _raw(stub, b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
                            b"POST / HTTP/1.1\r\nconnection: Keep-Alive, Close\r\n\r\n")
    first, second = answer.split(b'{"ok": true}')[:2]
    assert b"\r\nX-Request-Index: 1\r\n" in first and b"Connection" not in first
    assert b"\r\nX-Request-Index: 2\r\n" in second and b"\r\nConnection: close\r\n" in second
    assert answer.endswith(b'{"ok": true}')


def test_stub_closes_after_an_http_1_0_request():
    with StubServer(delay_ms=0.0) as stub:
        answer = _raw(stub, b"GET / HTTP/1.0\r\n\r\n")
    assert answer.startswith(b"HTTP/1.1 200 OK\r\n") and answer.endswith(b'{"ok": true}')


def test_stub_sends_100_continue_before_reading_the_body():
    with StubServer(delay_ms=0.0) as stub:
        url = urlsplit(stub.url)
        with socket.create_connection((url.hostname, url.port), timeout=2.0) as client:
            client.sendall(b"POST / HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n"
                           b"Connection: close\r\n\r\n")
            assert client.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
            client.sendall(b"ok")
            answer = b""
            while chunk := client.recv(65536):
                answer += chunk
    assert answer.startswith(b"HTTP/1.1 200 OK\r\n")


def test_stub_counts_its_delay_from_the_request_line():
    # The rest of the header comes 100 ms after the request line: the answer is
    # due 150 ms after the line, so about 50 ms after the header's last byte.
    with StubServer(delay_ms=150.0) as stub:
        url = urlsplit(stub.url)
        with socket.create_connection((url.hostname, url.port), timeout=2.0) as client:
            line_sent = time.perf_counter()  # before the send, so before the stub sees the line
            client.sendall(b"GET / HTTP/1.1\r\n")
            time.sleep(0.1)
            client.sendall(b"Host: stub\r\nConnection: close\r\n\r\n")
            header_sent = time.perf_counter()
            answer = client.recv(65536)
            answered = time.perf_counter()
            while chunk := client.recv(65536):
                answer += chunk
    assert answer.startswith(b"HTTP/1.1 200 OK\r\n")
    assert b"\r\n%s: 150.0\r\n" % EXEC_TIME_HEADER.encode() in answer
    assert answered - line_sent >= 0.150
    assert answered - header_sent < 0.120  # 150 ms or more if the delay began at the header's end


def test_preflight_checks_request_size():
    target = BenchTarget(url="http://x/", payload=b"x" * (7 * MB))
    report = preflight(target, LIMITS)
    assert not report.passed
    v, = report.violations
    assert v.limit_name == "request_size"
    assert v.actual_value == 7 * MB
    assert preflight(BenchTarget(url="http://x/", payload=b"{}"), LIMITS).passed


def test_run_bench_counts_and_warmup():
    with StubServer(delay_ms=5.0) as stub:
        run = BenchRun(
            target=BenchTarget(url=stub.url, payload=b"{}"),
            pattern=TrafficPattern.steady(40, 1),
            n_warmup=10,
        )
        result = run_bench(run)
    assert result.attempts == 40
    assert result.errors == {}
    assert result.warmup_excluded == 10
    assert len(result.samples) == 30
    assert len(result.scheduled_ms) == len(result.sent_ms) == 40
    assert all(v >= 5.0 for v in result.samples.values)


def test_run_bench_accounting_identity_with_failures():
    with StubServer(delay_ms=0.0, fail_every=2) as stub:
        run = BenchRun(
            target=BenchTarget(url=stub.url, payload=b"{}"),
            pattern=TrafficPattern.steady(40, 0.5),
            n_warmup=4,
        )
        result = run_bench(run)
    assert result.attempts == 20
    assert result.errors == {"http": 10}
    assert result.warmup_excluded == 4
    assert len(result.samples) == 6
    assert len(result.samples) + result.warmup_excluded + result.error_total == result.attempts
    assert result.error_ratio == 0.5


def test_run_bench_records_server_exec_times():
    with StubServer(delay_ms=5.0, jitter_ms=0.0) as stub:
        run = BenchRun(
            target=BenchTarget(url=stub.url),
            pattern=TrafficPattern.steady(20, 0.5),
            n_warmup=0,
        )
        result = run_bench(run)
    assert result.server_exec is not None
    assert set(result.server_exec.values) == {5.0}


def test_run_bench_keeps_server_exec_times_of_warmup_responses():
    # perfbench's accounting pairs every success with its server time, warm-up included.
    with StubServer(delay_ms=1.0) as stub:
        run = BenchRun(target=BenchTarget(url=stub.url), pattern=TrafficPattern.steady(40, 0.25),
                       n_warmup=4)
        result = run_bench(run)
    assert result.warmup_excluded == 4
    assert len(result.server_exec) == len(result.samples) + result.warmup_excluded == 10


def test_run_bench_jittered_exec_stays_in_band():
    with StubServer(delay_ms=5.0, jitter_ms=3.0, seed=17) as stub:
        run = BenchRun(
            target=BenchTarget(url=stub.url),
            pattern=TrafficPattern.steady(20, 0.5),
            n_warmup=0,
        )
        result = run_bench(run)
    assert all(5.0 <= v <= 8.0 for v in result.server_exec.values)
    assert len(set(result.server_exec.values)) > 1
    # Both sample sets are ordered by send time.
    for samples in (result.samples, result.server_exec):
        assert samples.timestamps == tuple(sorted(samples.timestamps))


def test_run_bench_preflight_refuses_oversized_payload():
    run = BenchRun(
        target=BenchTarget(url="http://127.0.0.1:9/", payload=b"x" * (7 * MB)),
        pattern=TrafficPattern.steady(1, 1),
        provider_limits=LIMITS,
    )
    with pytest.raises(PreflightError) as exc_info:
        run_bench(run)
    assert exc_info.value.report.violations[0].limit_name == "request_size"


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_bench_run_rejects_a_bad_seed(seed):
    with pytest.raises(DomainError, match="seed must be a non-negative integer"):
        BenchRun(target=BenchTarget(url="http://127.0.0.1:9/"),
                 pattern=TrafficPattern.poisson(10, 1), seed=seed)


def test_bench_run_takes_a_numpy_integer_seed_as_a_plain_int():
    run = BenchRun(target=BenchTarget(url="http://127.0.0.1:9/"),
                   pattern=TrafficPattern.poisson(10, 1), seed=np.int64(7))
    assert type(run.seed) is int and run.seed == 7


def test_run_bench_tallies_connection_failures():
    # nothing listens on a fresh ephemeral port: every send is a transport error
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    run = BenchRun(
        target=BenchTarget(url=f"http://127.0.0.1:{port}/", timeout_ms=500.0),
        pattern=TrafficPattern.steady(10, 0.5),
        n_warmup=0,
    )
    result = run_bench(run)
    assert result.attempts == 5
    assert result.errors == {"transport": 5}
    assert len(result.samples) == 0


def test_run_bench_send_schedule_is_monotone():
    with StubServer(delay_ms=1.0) as stub:
        run = BenchRun(
            target=BenchTarget(url=stub.url),
            pattern=TrafficPattern.steady(25, 1),
            n_warmup=0,
        )
        result = run_bench(run)
    assert list(result.sent_ms) == sorted(result.sent_ms)
    # sends never happen before their slot, and stay loosely on schedule
    for planned, sent in zip(result.scheduled_ms, result.sent_ms):
        assert sent >= planned
    assert result.max_schedule_error_ms < 100.0


def test_classify_buckets():
    # any non-2xx status is "http", either timeout type is "timeout",
    # everything else (refused, reset, malformed response) is "transport"
    assert _classify(_StatusError(500)) == "http"
    assert _classify(_StatusError(302)) == "http"
    assert _classify(TimeoutError()) == "timeout"
    assert _classify(asyncio.TimeoutError()) == "timeout"
    assert _classify(ConnectionRefusedError()) == "transport"
    assert _classify(asyncio.IncompleteReadError(b"", 10)) == "transport"
    assert _classify(ValueError("x")) == "transport"


def test_run_bench_starts_no_thread_per_request():
    # A socket that listens and never accepts: every request hangs to its timeout.
    sink = socket.socket()
    sink.bind(("127.0.0.1", 0))
    sink.listen()
    run = BenchRun(
        target=BenchTarget(url=f"http://127.0.0.1:{sink.getsockname()[1]}/", timeout_ms=500.0),
        pattern=TrafficPattern.steady(100, 1),
        n_warmup=0,
    )
    baseline = threading.active_count()
    peak = baseline
    done = threading.Event()

    def sample():
        nonlocal peak
        while not done.wait(0.005):
            peak = max(peak, threading.active_count())

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        t0 = time.perf_counter()
        result = run_bench(run)
        elapsed = time.perf_counter() - t0
    finally:
        done.set()
        sampler.join()
        sink.close()
    assert result.errors == {"timeout": 100}
    assert len(result.samples) + result.warmup_excluded + result.error_total == result.attempts
    assert elapsed <= _START_LEAD_S + max(result.sent_ms) / 1000.0 + 0.5 + 1.0
    assert peak <= baseline + 1  # the sampler itself


class _FramingHandler(BaseHTTPRequestHandler):
    """HTTP/1.0 answers: a body framed by connection close, a redirect, or a given server time.

    POSTs are answered empty, and their headers kept in ``seen``.
    """

    seen: list = []

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.seen.append(self.headers)
        self.send_response(200)
        self.end_headers()

    def do_GET(self):
        if self.path.startswith("/exec/"):  # a server time header of the given text
            self.send_response(200)
            self.send_header(EXEC_TIME_HEADER, self.path[len("/exec/"):])
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if self.path == "/redirect":
            self.send_response(302)
            self.send_header("Location", "/eof")
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        self.send_response(200)
        self.send_header(EXEC_TIME_HEADER, "2.5")
        self.end_headers()
        self.wfile.write(b"x" * 70_000)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def _serving(handler=_FramingHandler, tls: ssl.SSLContext | None = None):
    """Run a server of ``handler``; yields it, with its base URL as ``url``.

    ``connections`` gets the client address of each connection a
    ``_KeepAliveHandler`` accepts.
    """
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    server.connections = []
    if tls is not None:
        server.socket = tls.wrap_socket(server.socket, server_side=True)
    server.url = f"{'https' if tls else 'http'}://127.0.0.1:{server.server_address[1]}"
    threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def _get(url: str, n: int = 5, method: str = "GET", timeout_ms: float = 2000.0,
         rate: float = 10.0, headers=None) -> BenchResult:
    """``n`` requests, ``1/rate`` s apart: at 10 rps each finds the one before it answered."""
    return run_bench(BenchRun(
        target=BenchTarget(url=url, method=method, timeout_ms=timeout_ms, headers=headers or {}),
        pattern=TrafficPattern.steady(rate, n / rate),
        n_warmup=0,
    ))


def test_run_bench_reads_body_to_eof_without_content_length():
    with _serving() as server:
        result = _get(f"{server.url}/eof?q=1")
    assert result.errors == {}
    assert len(result.samples) == 5
    assert set(result.server_exec.values) == {2.5}


@pytest.mark.parametrize("header", ["nan", "inf", "-1", "abc"])
def test_run_bench_ignores_a_bad_server_time(header):
    with _serving() as server:
        result = _get(f"{server.url}/exec/{header}")
    assert result.errors == {}
    assert len(result.samples) == 5
    assert result.server_exec is None


def test_run_bench_counts_redirect_as_http_error():
    with _serving() as server:
        result = _get(f"{server.url}/redirect")
    assert result.errors == {"http": 5}


def test_run_bench_sends_urllib_default_headers():
    def post(headers):
        _FramingHandler.seen.clear()
        with _serving() as server:
            result = run_bench(BenchRun(
                target=BenchTarget(url=f"{server.url}/", payload=b'{"a": 1}', headers=headers),
                pattern=TrafficPattern.steady(10, 0.1),
                n_warmup=0,
            ))
        assert result.errors == {}
        return _FramingHandler.seen[0]

    sent = post({})
    assert sent["User-Agent"].startswith("Python-urllib/")
    assert sent["Content-Type"] == "application/x-www-form-urlencoded"
    assert sent["Content-Length"] == "8"
    assert "Connection" not in sent
    sent = post({"content-type": "application/json", "User-Agent": "probe", "Connection": "close"})
    assert sent.get_all("Content-Type") == ["application/json"]
    assert sent.get_all("User-Agent") == ["probe"]
    assert sent.get_all("Connection") == ["close"]


def test_run_bench_over_https(tmp_path, monkeypatch):
    openssl = shutil.which("openssl")
    if openssl is None:
        pytest.skip("openssl CLI not available")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        [openssl, "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-days", "1",
         "-keyout", str(key), "-out", str(cert), "-subj", "/CN=127.0.0.1",
         "-addext", "subjectAltName=IP:127.0.0.1"],
        check=True, capture_output=True,
    )
    monkeypatch.setenv("SSL_CERT_FILE", str(cert))
    tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    tls.load_cert_chain(cert, key)
    with _serving(tls=tls) as server:
        result = _get(f"{server.url}/eof")
    assert result.errors == {}
    assert len(result.samples) == result.attempts == 5


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """An HTTP/1.1 handler that records each connection it accepts in ``server.connections``."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        self.server.connections.append(self.client_address)

    def reply(self, status: int = 200, headers: dict | None = None, body: bytes = b"") -> None:
        self.send_response(status)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _Chunked(_KeepAliveHandler):
    def do_GET(self):
        self.reply(headers={"Transfer-Encoding": "chunked", EXEC_TIME_HEADER: "1.5"},
                   body=b"5;ext=1\r\nhello\r\n1A\r\n" + b"x" * 26 + b"\r\n0\r\nX-Trailer: t\r\n\r\n")


def test_run_bench_decodes_a_chunked_body_and_reuses_the_connection():
    with _serving(_Chunked) as server:
        result = _get(server.url)
    assert result.errors == {}
    assert set(result.server_exec.values) == {1.5}
    assert len(server.connections) < 5  # a misread body would break the next response


class _HeadWithLength(_KeepAliveHandler):
    def do_HEAD(self):
        self.reply(headers={"Content-Length": "1000"})


def test_run_bench_reads_no_body_after_head():
    with _serving(_HeadWithLength) as server:
        result = _get(server.url, method="HEAD", timeout_ms=500.0)
    assert result.errors == {}  # waiting for the 1000 bytes would time out
    assert len(server.connections) < 5


class _NoBody(_KeepAliveHandler):
    def do_GET(self):
        status = int(self.path.strip("/"))
        # A 304 may announce the length of the body it leaves out.
        self.reply(status, headers={"Content-Length": "10"} if status == 304 else {})


@pytest.mark.parametrize("status, errors", [(204, {}), (304, {"http": 5})])
def test_run_bench_reads_no_body_after_204_or_304(status, errors):
    with _serving(_NoBody) as server:
        result = _get(f"{server.url}/{status}", timeout_ms=500.0)
    assert result.errors == errors
    assert len(server.connections) < 5


class _NeverCloses(_KeepAliveHandler):
    """Answers ``/1.0`` with an HTTP/1.0 status line, ``/close`` with ``Connection: close``
    and ``/100`` with an interim response before the final one, and keeps every
    connection open all the same, so only the client can end one."""

    def do_GET(self):
        if self.path == "/1.0":
            self.protocol_version = "HTTP/1.0"
        if self.path == "/100":
            self.send_response_only(100)
            self.end_headers()
        headers = {"Content-Length": "2"}
        if self.path == "/close":
            headers["Connection"] = "close"
        self.reply(headers=headers, body=b"ok")
        self.close_connection = False


@pytest.mark.parametrize("path, headers, errors", [
    ("/1.0", {}, {}), ("/close", {}, {}), ("/", {"Connection": "close"}, {}), ("/100", {}, {"http": 5}),
], ids=["http-1.0-response", "close-response", "close-request", "interim-response"])
def test_run_bench_reuses_no_connection_the_rules_exclude(path, headers, errors):
    with _serving(_NeverCloses) as server:
        result = _get(server.url + path, headers=headers)
    assert result.errors == errors
    assert len(server.connections) == 5


class _ClosesWhenIdle(_KeepAliveHandler):
    """Closes each connection after its first response, without saying so."""

    def do_GET(self):
        self.reply(headers={"Content-Length": "2"}, body=b"ok")
        self.close_connection = True


def test_run_bench_resends_once_on_a_connection_closed_while_idle():
    with _serving(_ClosesWhenIdle) as server:
        result = _get(server.url)
    # Each request after the first finds its pooled connection closed and goes out again.
    assert result.errors == {}
    assert len(result.samples) + result.warmup_excluded + result.error_total == result.attempts == 5
    assert len(server.connections) == 5


class _ResetsSecondResponse(_KeepAliveHandler):
    """Answers a connection's first request, and resets it part way through the second."""

    answered = False

    def do_GET(self):
        if not self.answered:
            self.answered = True
            self.reply(headers={"Content-Length": "2"}, body=b"ok")
            return
        self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-Le")
        time.sleep(0.05)  # the client holds a response byte before the reset
        self.connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        self.connection.close()
        self.close_connection = True


def test_run_bench_does_not_resend_after_part_of_a_response():
    with _serving(_ResetsSecondResponse) as server:
        result = _get(server.url, n=2, rate=4.0)
    assert result.errors == {"transport": 1}
    assert len(server.connections) == 1


class _StallsSecondRequest(_KeepAliveHandler):
    """Answers a connection's first request; on the second, records whether the client closes it."""

    answered = False

    def do_GET(self):
        if not self.answered:
            self.answered = True
            self.reply(headers={"Content-Length": "2"}, body=b"ok")
            return
        self.connection.settimeout(5.0)
        self.server.closed_by_client.append(self.rfile.read(1) == b"")
        self.close_connection = True


def test_run_bench_closes_a_reused_connection_that_timed_out():
    with _serving(_StallsSecondRequest) as server:
        server.closed_by_client = []
        result = _get(server.url, n=3, timeout_ms=300.0, rate=2.0)
    assert result.errors == {"timeout": 1}
    assert server.closed_by_client == [True]
    assert len(server.connections) == 2  # the third request did not take the timed-out one


@pytest.fixture
def stub_connections(monkeypatch):
    """Client addresses of the connections each StubServer of the test accepts."""
    seen = []
    setup = _StubHandler.setup

    def counting_setup(self):
        setup(self)
        seen.append(self.client_address)

    monkeypatch.setattr(_StubHandler, "setup", counting_setup)
    return seen


def test_run_bench_reuses_one_connection_at_a_steady_rate(stub_connections):
    with StubServer(delay_ms=1.0) as stub:
        result = _get(stub.url, n=10)
    assert result.errors == {}
    # Overlapping requests would need a second connection: a send before the answer before it.
    assert len(stub_connections) == 1, "(sent_ms, latency_ms) per request: " + ", ".join(
        f"({sent:.1f}, {latency:.1f})"
        for sent, latency in zip(result.samples.timestamps, result.samples.values))


def test_run_bench_opens_a_connection_for_each_request_in_flight(stub_connections):
    # Requests leave 50 ms apart and take 200 ms: none may wait for a free connection.
    with StubServer(delay_ms=200.0) as stub:
        result = _get(stub.url, n=10, rate=20.0)
    assert result.errors == {}
    assert 4 <= len(stub_connections) < 10
    assert result.max_schedule_error_ms < 100.0


@contextlib.contextmanager
def _open_stub_connections():
    """A list whose length is the number of connections the stubs hold open."""
    held = []
    setup, finish = _StubHandler.setup, _StubHandler.finish

    def counting_setup(self):
        setup(self)
        held.append(self)

    def counting_finish(self):
        try:
            finish(self)
        finally:
            held.remove(self)

    with mock.patch.object(_StubHandler, "setup", counting_setup), \
            mock.patch.object(_StubHandler, "finish", counting_finish):
        yield held


@settings(max_examples=20, deadline=None)
@given(
    delay_ms=st.sampled_from([0.0, 2.0, 15.0, 40.0]),
    jitter_ms=st.sampled_from([0.0, 5.0, 30.0]),
    fail_every=st.one_of(st.none(), st.integers(1, 4)),
    timeout_ms=st.sampled_from([1.0, 10.0, 30.0, 2000.0]),
    n_warmup=st.integers(0, 6),
    pattern=st.one_of(
        st.builds(TrafficPattern.steady, st.sampled_from([20.0, 50.0, 100.0]),
                  st.sampled_from([0.1, 0.2, 0.3])),
        st.builds(TrafficPattern.poisson, st.sampled_from([20.0, 50.0, 100.0]),
                  st.sampled_from([0.1, 0.2, 0.3])),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_bench_accounts_for_every_attempt(delay_ms, jitter_ms, fail_every, timeout_ms,
                                              n_warmup, pattern, seed):
    # Timeouts below the stub's delay mix with successes and HTTP errors. No
    # timing is asserted: a shared host may be late with any send.
    with _open_stub_connections() as held:
        with StubServer(delay_ms=delay_ms, jitter_ms=jitter_ms, fail_every=fail_every,
                        seed=seed) as stub:
            result = run_bench(BenchRun(target=BenchTarget(url=stub.url, timeout_ms=timeout_ms),
                                        pattern=pattern, n_warmup=n_warmup, seed=seed))
            # A timed-out request's handler is still sleeping; it ends once it answers.
            deadline = time.monotonic() + 10.0
            while held and time.monotonic() < deadline:
                time.sleep(0.01)
            assert held == []
    n = result.attempts
    assert len(result.samples) + result.warmup_excluded + result.error_total == n
    assert len(result.scheduled_ms) == len(result.sent_ms) == n
    assert all(a <= b for a, b in zip(result.sent_ms, result.sent_ms[1:]))
    # Each sample is stamped with the send time of a request of its own.
    assert not Counter(result.samples.timestamps or ()) - Counter(result.sent_ms)
    if fail_every == 1:
        assert len(result.samples) == result.warmup_excluded == 0


def test_stub_answers_a_reused_connection_without_nagle_delay():
    # With Nagle on, the body would wait for the client's delayed ACK of the
    # headers, about 40 ms; the ACK is delayed once requests follow answers
    # within the 40 ms, as at 50 rps.
    with StubServer(delay_ms=0.0) as stub:
        result = _get(stub.url, n=30, rate=50.0)
    assert statistics.median(result.samples.values) < 20.0


@pytest.mark.parametrize("hold_connection", [False, True], ids=["no-client", "idle-client"])
def test_stub_stops_promptly(hold_connection):
    stub = StubServer(delay_ms=0.0).start()
    conn = http.client.HTTPConnection(urlsplit(stub.url).hostname, urlsplit(stub.url).port)
    try:
        if hold_connection:
            conn.request("GET", "/")
            conn.getresponse().read()  # the stub's handler now waits on the open connection
        t0 = time.perf_counter()
        stub.stop()
        elapsed = time.perf_counter() - t0
    finally:
        conn.close()
    assert elapsed < 0.1


def test_stub_stop_returns_in_any_state():
    # BaseServer.shutdown() waits for a serve_forever loop, so a stop() that called it
    # unconditionally hung forever here: the thread keeps that from hanging the suite.
    done = []

    def stop_in_every_state():
        stub = StubServer(delay_ms=0)
        stub.stop()  # never started
        stub.stop()  # already stopped
        with StubServer(delay_ms=0) as stub:
            pass
        stub.stop()  # stopped by the with block
        done.append(True)

    stopper = threading.Thread(target=stop_in_every_state, daemon=True)
    stopper.start()
    stopper.join(timeout=2.0)
    assert done == [True]


def test_stub_takes_a_reset_connection_quietly(capfd):
    with StubServer(delay_ms=0.0) as stub:
        client = socket.create_connection((urlsplit(stub.url).hostname, urlsplit(stub.url).port))
        client.sendall(b"GET / HTTP/1.1\r\nHost: stub\r\n\r\n")
        time.sleep(0.1)  # the answer arrives and stays unread
        client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        client.close()  # a reset, while the stub waits for the next request
        time.sleep(0.2)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("run", ["clean", "timeouts"])
def test_run_bench_leaves_no_socket_open(run):
    caught = []
    previous = sys.unraisablehook
    sys.unraisablehook = caught.append  # a ResourceWarning raised in a finalizer lands here
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            if run == "clean":
                with StubServer(delay_ms=1.0) as stub:
                    assert _get(stub.url, n=5, rate=20.0).errors == {}
            else:
                with socket.socket() as sink:  # listens and never accepts
                    sink.bind(("127.0.0.1", 0))
                    sink.listen()
                    url = f"http://127.0.0.1:{sink.getsockname()[1]}/"
                    assert _get(url, n=5, timeout_ms=200.0, rate=20.0).errors == {"timeout": 5}
            gc.collect()
    finally:
        sys.unraisablehook = previous
    assert [u.exc_value for u in caught] == []


def test_run_bench_writes_on_an_idle_connection_in_the_step_that_stamps_it(monkeypatch):
    # Each write names the coroutine that made it, its request, and the requests
    # stamped by then: the pacer writes a request on an idle connection right
    # after stamping it, before any later stamp; the first request has no idle
    # connection, so its own task connects and writes.
    writes = []
    write = asyncio.StreamWriter.write

    def recording_write(self, data):
        caller = sys._getframe(1)
        sent_ms = caller.f_locals.get("sent_ms")
        stamped = None if sent_ms is None else [i for i, sent in enumerate(sent_ms) if sent]
        writes.append((caller.f_code.co_name, caller.f_locals["index"], stamped))
        return write(self, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", recording_write)
    with StubServer(delay_ms=1.0) as stub:
        result = _get(stub.url, n=4, rate=5.0)
    assert result.errors == {}
    assert writes[0] == ("exchange", 0, None)
    assert len(writes) == 4
    assert any(name == "pace" for name, _, _ in writes)
    for name, index, stamped in writes[1:]:
        if name == "pace":
            # sent_ms[0] may be 0.0 itself, so it is left out.
            assert stamped[-1] == index and set(stamped) >= set(range(1, index + 1))
        else:  # no connection was idle: the task connected after its stamp
            assert name == "exchange"


def test_run_bench_closes_a_written_connection_whose_exchange_never_ran(monkeypatch):
    # The first request runs as usual and leaves its connection idle. Every later
    # one times out before its exchange starts, as wait_for does with a timeout
    # of 0 on Python 3.12: the pacer has already written the second request on
    # the idle connection, and nothing but its task can close it.
    wait_for = asyncio.wait_for
    calls = []

    async def timing_out_first(awaitable, timeout):
        calls.append(timeout)
        if len(calls) == 1:
            return await wait_for(awaitable, timeout)
        task = asyncio.ensure_future(awaitable)
        task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await task
        raise asyncio.TimeoutError

    caught = []
    previous = sys.unraisablehook
    sys.unraisablehook = caught.append  # a ResourceWarning raised in a finalizer lands here
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with _open_stub_connections() as held:
                with StubServer(delay_ms=1.0) as stub:
                    monkeypatch.setattr(asyncio, "wait_for", timing_out_first)
                    result = _get(stub.url, n=3, rate=5.0)
                    monkeypatch.undo()
                    deadline = time.monotonic() + 5.0
                    while held and time.monotonic() < deadline:
                        time.sleep(0.01)
                    assert held == []
                    assert stub.requests_seen == 2  # the second request left on the idle connection
            gc.collect()
    finally:
        sys.unraisablehook = previous
    assert result.errors == {"timeout": 2}
    assert [u.exc_value for u in caught] == []


def test_bench_target_rejects_non_http_urls():
    for url in ("", "ftp://x/", "127.0.0.1:80/", "http://", "http://[::1/", "http://u:p@x/",
                "http://user@host/", "http://x:99999/", "http://x:port/"):
        with pytest.raises(DomainError):
            BenchTarget(url=url)
    assert _split_url("https://[::1]:8443?q=1#f") == (
        "::1", 8443, True, "[::1]:8443", "/?q=1"
    )
    assert _split_url("http://example.com") == ("example.com", 80, False, "example.com", "/")


def test_bench_target_validation():
    with pytest.raises(DomainError):
        BenchTarget(url="")
    with pytest.raises(DomainError):
        BenchTarget(url="http://x/", payload="not-bytes")
    with pytest.raises(DomainError):
        BenchTarget(url="http://x/", timeout_ms=0)
    # A NaN timeout once passed, then counted a spurious timeout.
    for timeout_ms in (math.nan, -math.inf):
        with pytest.raises(DomainError, match="timeout_ms must be positive"):
            BenchTarget(url="http://x/", timeout_ms=timeout_ms)
    assert BenchTarget(url="http://x/", timeout_ms=math.inf).timeout_ms == math.inf


def test_bench_result_properties_on_empty():
    empty = BenchResult(attempts=0, samples=SampleSet(values=()), warmup_excluded=0,
                        errors={}, scheduled_ms=(), sent_ms=())
    assert empty.error_ratio == 0.0
    assert empty.max_schedule_error_ms == 0.0


def test_export_run(tmp_path):
    result = BenchResult(
        attempts=3,
        samples=SampleSet(values=(5.0, 6.0, 7.0), timestamps=(0.0, 50.0, 100.0)),
        warmup_excluded=0, errors={}, scheduled_ms=(0.0, 50.0, 100.0),
        sent_ms=(0.1, 50.1, 100.1),
    )
    path = tmp_path / "bench.csv"
    export_run(result, path)
    assert len(path.read_text().splitlines()) == 4  # header + 3 samples


def test_export_run_wraps_os_errors(tmp_path):
    result = BenchResult(attempts=0, samples=SampleSet(values=()), warmup_excluded=0,
                         errors={}, scheduled_ms=(), sent_ms=())
    with pytest.raises(FaasPlanError, match="cannot write"):
        export_run(result, tmp_path / "missing" / "bench.csv")
