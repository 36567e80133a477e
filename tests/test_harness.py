import asyncio
import contextlib
import shutil
import socket
import ssl
import subprocess
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

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
def _serving(tls: ssl.SSLContext | None = None):
    """Run a ``_FramingHandler`` server; yields its base URL."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FramingHandler)
    server.daemon_threads = True
    if tls is not None:
        server.socket = tls.wrap_socket(server.socket, server_side=True)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield f"{'https' if tls else 'http'}://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


def _get(url: str, n: int = 5) -> BenchResult:
    return run_bench(BenchRun(
        target=BenchTarget(url=url, method="GET", timeout_ms=2000.0),
        pattern=TrafficPattern.steady(n * 10, 0.1),
        n_warmup=0,
    ))


def test_run_bench_reads_body_to_eof_without_content_length():
    with _serving() as base:
        result = _get(f"{base}/eof?q=1")
    assert result.errors == {}
    assert len(result.samples) == 5
    assert set(result.server_exec.values) == {2.5}


@pytest.mark.parametrize("header", ["nan", "inf", "-1", "abc"])
def test_run_bench_ignores_a_bad_server_time(header):
    with _serving() as base:
        result = _get(f"{base}/exec/{header}")
    assert result.errors == {}
    assert len(result.samples) == 5
    assert result.server_exec is None


def test_run_bench_counts_redirect_as_http_error():
    with _serving() as base:
        result = _get(f"{base}/redirect")
    assert result.errors == {"http": 5}


def test_run_bench_sends_urllib_default_headers():
    def post(headers):
        _FramingHandler.seen.clear()
        with _serving() as base:
            result = run_bench(BenchRun(
                target=BenchTarget(url=f"{base}/", payload=b'{"a": 1}', headers=headers),
                pattern=TrafficPattern.steady(10, 0.1),
                n_warmup=0,
            ))
        assert result.errors == {}
        return _FramingHandler.seen[0]

    sent = post({})
    assert sent["User-Agent"].startswith("Python-urllib/")
    assert sent["Content-Type"] == "application/x-www-form-urlencoded"
    assert sent["Content-Length"] == "8"
    assert sent["Connection"] == "close"
    sent = post({"content-type": "application/json", "User-Agent": "probe"})
    assert sent.get_all("Content-Type") == ["application/json"]
    assert sent.get_all("User-Agent") == ["probe"]


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
    with _serving(tls) as base:
        result = _get(f"{base}/eof")
    assert result.errors == {}
    assert len(result.samples) == result.attempts == 5


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
