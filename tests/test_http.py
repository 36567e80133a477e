"""The HTTP/1.1 head grammar of ``faasplan._http``, over bytes and over sockets.

Table tests pin each rule on bytes alone. A differential test reads
generated response heads with both ``_http.response`` and
``http.client.HTTPResponse``; every way the two knowingly differ is a row
of ``DIFFERENCES``. Socket-level tests check that ``run_bench`` counts a
response head the grammar refuses as a ``transport`` error and reuses no
connection after it.
"""

import contextlib
import http.client
import io
import re
import socketserver
import subprocess
import sys
import threading
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faasplan import BenchRun, BenchTarget, TrafficPattern, run_bench
from faasplan import _http
from faasplan._http import CHUNKED

OK = b"HTTP/1.1 200 OK\r\n"


@pytest.mark.parametrize("head, head_request, expected", [
    (OK + b"Content-Length: 5\r\n\r\n", False, (200, {"content-length": "5"}, 5, True)),
    (b"HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\n", False, (200, {"content-length": "5"}, 5, False)),
    (b"HTTP/1.1 404\r\nContent-Length: 0\r\n\r\n", False, (404, {"content-length": "0"}, 0, True)),
    # Names are lower-cased, values kept, and a repeated field's values joined.
    (OK + b"cONTENT-lENGTH:007\r\nX-A: One \r\nx-a:  Two\r\n\r\n", False,
     (200, {"content-length": "007", "x-a": "One, Two"}, 7, True)),
    # A close token in either of two Connection fields ends the connection.
    (OK + b"Connection: keep-alive\r\nCONNECTION: Close\r\nContent-Length: 0\r\n\r\n", False,
     (200, {"connection": "keep-alive, Close", "content-length": "0"}, 0, False)),
    # Chunked is the last coding, whether in one field or two; Content-Length is ignored then.
    (OK + b"Transfer-Encoding: gzip, chunked\r\nContent-Length: 5\r\n\r\n", False,
     (200, {"transfer-encoding": "gzip, chunked", "content-length": "5"}, CHUNKED, True)),
    (OK + b"Transfer-Encoding: gzip\r\nTransfer-Encoding: Chunked\r\n\r\n", False,
     (200, {"transfer-encoding": "gzip, Chunked"}, CHUNKED, True)),
    # A transfer coding that does not end in chunked runs to the end of the stream.
    (OK + b"Transfer-Encoding: chunked, gzip\r\nContent-Length: 5\r\n\r\n", False,
     (200, {"transfer-encoding": "chunked, gzip", "content-length": "5"}, None, False)),
    (OK + b"\r\n", False, (200, {}, None, False)),
    # No body after a HEAD, a 1xx, a 204 or a 304, whatever the fields announce.
    (OK + b"Content-Length: 1000\r\n\r\n", True, (200, {"content-length": "1000"}, 0, True)),
    (b"HTTP/1.1 204 No Content\r\nTransfer-Encoding: chunked\r\n\r\n", False,
     (204, {"transfer-encoding": "chunked"}, 0, True)),
    (b"HTTP/1.1 304 Not Modified\r\nContent-Length: 10\r\n\r\n", False,
     (304, {"content-length": "10"}, 0, True)),
    (b"HTTP/1.1 304 Not Modified\r\nContent-Length: 5\r\nContent-Length: 2\r\n\r\n", False,
     (304, {"content-length": "5, 2"}, 0, True)),
    (b"HTTP/1.1 103 Early Hints\r\nLink: </a>\r\n\r\n", False, (103, {"link": "</a>"}, 0, True)),
    # After a 101 the connection no longer speaks HTTP/1.1.
    (b"HTTP/1.1 101 Switching Protocols\r\nUpgrade: x\r\n\r\n", False,
     (101, {"upgrade": "x"}, 0, False)),
    (OK + b"".join(b"X-%d: 1\r\n" % i for i in range(100)) + b"\r\n", False,
     (200, {f"x-{i}": "1" for i in range(100)}, None, False)),
], ids=["plain", "http-1.0", "no-reason", "odd-cased-and-repeated", "close-in-second-field",
        "gzip-chunked", "chunked-in-second-field", "chunked-gzip", "no-length", "head", "204",
        "304", "304-two-lengths", "103", "101", "100-fields"])
def test_response(head, head_request, expected):
    assert _http.response(head, head_request) == expected


@pytest.mark.parametrize("head", [
    # A 2-byte read of "hello" left "llo" ahead of the next status line.
    b"lloHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
    OK + b"Content-Length: 5\r\nContent-Length: 2\r\n\r\n",
    OK + b"Content-Length: 5\r\nContent-Length: 5\r\n\r\n",
    OK + b"Content-Length: abc\r\n\r\n",
    OK + b"Content-Length: -1\r\n\r\n",
    OK + b"Content-Length: +5\r\n\r\n",
    OK + b"Content-Length: \r\n\r\n",
    OK + b"Content-Length: " + b"1" * 19 + b"\r\n\r\n",
    OK + b"Content-Length: \xb2\r\n\r\n",  # a superscript 2 in latin-1
    b"HTTP/2.0 200 OK\r\n\r\n",
    b"HTTP/1.2 200 OK\r\n\r\n",
    b"HTTP/0.9 200 OK\r\n\r\n",
    b"http/1.1 200 OK\r\n\r\n",
    b"HTTP/1.1 20 OK\r\n\r\n",
    b"HTTP/1.1 2000 OK\r\n\r\n",
    b"HTTP/1.1 099 OK\r\n\r\n",
    b"HTTP/1.1 200OK\r\n\r\n",
    b"HTTP/1.1 \xb200 OK\r\n\r\n",
    b"\r\n\r\n",
    OK + b"".join(b"X-%d: 1\r\n" % i for i in range(101)) + b"\r\n",
    OK + b"X-Long: " + b"x" * (_http.MAX_LINE - 9) + b"\r\n\r\n",
], ids=["garbled-version", "two-lengths", "two-equal-lengths", "length-not-a-number",
        "length-negative", "length-signed", "length-empty", "length-19-digits",
        "length-not-ascii", "http-2.0", "http-1.2", "http-0.9", "lower-case-version",
        "2-digit-status", "4-digit-status", "status-under-100", "no-space-after-status",
        "status-not-ascii", "no-status-line", "101-fields", "long-field-line"])
def test_response_refuses(head):
    with pytest.raises(ValueError):
        _http.response(head)


def test_response_takes_a_line_of_max_line_bytes():
    line = b"X-Long: " + b"x" * (_http.MAX_LINE - 10)
    assert len(line + b"\r\n") == _http.MAX_LINE
    assert _http.response(OK + line + b"\r\n\r\n")[1] == {"x-long": line[8:].decode()}


@pytest.mark.parametrize("line, size", [
    (b"1A;ext=1\r\n", 26), (b"0\r\n", 0), (b"ff\r\n", 255), (b"5 ;a=b\r\n", 5), (b"00010\r\n", 16),
])
def test_chunk_size(line, size):
    assert _http.chunk_size(line) == size


@pytest.mark.parametrize("line", [
    b"0x1a\r\n", b"+5\r\n", b"-5\r\n", b"1_a\r\n", b" 5\r\n", b"g\r\n", b"\r\n", b";a\r\n", b"5\n",
    b"\xb2\r\n",
])
def test_chunk_size_refuses(line):
    with pytest.raises(ValueError):
        _http.chunk_size(line)


@pytest.mark.parametrize("value, length", [("0", 0), ("007", 7), ("9" * 18, 10**18 - 1)])
def test_content_length(value, length):
    assert _http.content_length(value) == length


@pytest.mark.parametrize("value", ["", "abc", "-1", "+5", " 5", "5, 2", "1" * 19, "٥", "²"])
def test_content_length_refuses(value):
    with pytest.raises(ValueError):
        _http.content_length(value)


def test_fields_of_a_request_head():
    # The stub passes the lines as read, CRLF and all.
    lines = [b"Host: stub\r\n", b"x-a:1\r\n", b"X-A:  2 \r\n", b"Empty:\r\n"]
    assert _http.fields(lines) == {"host": "stub", "x-a": "1, 2", "empty": ""}


def test_tokens():
    assert _http.tokens(" Keep-Alive ,CLOSE") == {"keep-alive", "close"}
    assert "close" not in _http.tokens("closed, x-close")


# -- The client half against http.client ------------------------------------------------

VERSIONS = ("HTTP/1.0", "HTTP/1.1")
REFUSED = "refused"


class Head(NamedTuple):
    """A response head, and whether it answers a HEAD request."""

    version: str
    status: int
    fields: tuple = ()
    head_request: bool = False
    reason: str = "Reason"

    def values(self, name: str) -> list:
        return [value for field, value in self.fields if field.lower() == name]

    def encode(self, status: int | None = None) -> bytes:
        start = " ".join(filter(None, (self.version, str(status or self.status), self.reason)))
        lines = [start, *(f"{name}: {value}" for name, value in self.fields), "", ""]
        return "\r\n".join(lines).encode("latin-1")

    @property
    def has_body(self) -> bool:
        """Whether a body may follow: not after HEAD, a 1xx, a 204 or a 304."""
        return not self.head_request and self.status >= 200 and self.status not in (204, 304)


def ours(head: Head):
    """``(status, length, keep_alive)`` by ``_http``, or REFUSED."""
    try:
        status, _, length, keep_alive = _http.response(head.encode(), head.head_request)
    except ValueError:
        return REFUSED
    return status, length, keep_alive


class _Socket:
    """The one call HTTPResponse makes of its socket."""

    def __init__(self, data: bytes):
        self._file = io.BytesIO(data)

    def makefile(self, mode):
        return self._file


def theirs(head: Head):
    """``(status, length, keep_alive)`` by http.client, or REFUSED; ``CHUNKED`` for chunked.

    The head comes twice, the second time as a 199, for http.client to read after a 100.
    """
    response = http.client.HTTPResponse(_Socket(head.encode() + head.encode(199)),
                                        method="HEAD" if head.head_request else "GET")
    try:
        response.begin()
    except http.client.HTTPException:
        return REFUSED
    return response.status, CHUNKED if response.chunked else response.length, not response.will_close


def differ(a, b) -> set:
    """The parts in which two results differ."""
    if REFUSED in (a, b):
        return set() if a == b else {"refused"}
    return {part for part, x, y in zip(("status", "framing", "keep"), a, b) if x != y}


def _first(head: Head, name: str) -> str:
    return (head.values(name) or [""])[0].lower()


# Where _http knowingly parts from http.client: (why, an example, where it applies, the
# parts that may differ there).
DIFFERENCES = [
    ("_http refuses every version but HTTP/1.0 and HTTP/1.1; http.client takes HTTP/0.9 as "
     "1.0 and any other HTTP/1.x as 1.1",
     Head("HTTP/1.2", 200, (("Content-Length", "0"),)),
     lambda h: h.version not in VERSIONS, {"refused"}),
    ("_http refuses a Content-Length that frames a body unless it is one decimal of 1-18 "
     "digits; http.client takes int() of the first field, or reads to the end if that fails",
     Head("HTTP/1.1", 200, (("Content-Length", "5"), ("Content-Length", "2"))),
     lambda h: (h.has_body and not h.values("transfer-encoding") and h.values("content-length")
                and not re.fullmatch("[0-9]{1,18}", ", ".join(h.values("content-length")))),
     {"refused"}),
    ("http.client skips only a 100, and answers for the head after it; run_bench skips every "
     "1xx but 101, so _http reads a 100 as a head of its own",
     Head("HTTP/1.1", 100), lambda h: h.status == 100, {"status"}),
    ("_http reuses no connection after a 101: it no longer speaks HTTP/1.1",
     Head("HTTP/1.1", 101), lambda h: h.status == 101, {"keep"}),
    ("the last coding of every Transfer-Encoding field decides, and one other than chunked "
     "frames to the end of the stream; http.client chunks only on a first field of exactly "
     "chunked, and frames by Content-Length otherwise",
     Head("HTTP/1.1", 200, (("Transfer-Encoding", "chunked, gzip"), ("Content-Length", "5"))),
     lambda h: h.has_body and h.values("transfer-encoding") and [
         value.lower() for value in h.values("transfer-encoding")] != ["chunked"],
     {"framing", "keep"}),
    ("http.client marks a response chunked by its first Transfer-Encoding even where no body "
     "follows (HEAD, 1xx, 204, 304); _http frames no body there",
     Head("HTTP/1.1", 204, (("Transfer-Encoding", "chunked"),)),
     lambda h: not h.has_body and _first(h, "transfer-encoding") == "chunked", {"framing"}),
    ("_http reuses no HTTP/1.0 connection; http.client keeps one open on a Keep-Alive field "
     "or a first Connection field with keep-alive in it",
     Head("HTTP/1.0", 200, (("Keep-Alive", "timeout=5"), ("Content-Length", "0"))),
     lambda h: h.version == "HTTP/1.0" and (
         h.values("keep-alive") or "keep-alive" in _first(h, "connection")), {"keep"}),
    ("_http closes on a close token in any Connection field; http.client reads only the first",
     Head("HTTP/1.1", 200, (("Connection", "keep-alive"), ("Connection", "close"),
                            ("Content-Length", "0"))),
     lambda h: h.version == "HTTP/1.1" and len(h.values("connection")) > 1, {"keep"}),
]


@pytest.mark.parametrize("why, example, applies, parts", DIFFERENCES,
                         ids=[f"difference-{i}" for i in range(len(DIFFERENCES))])
def test_each_known_difference_shows_in_its_example(why, example, applies, parts):
    assert applies(example)
    assert differ(ours(example), theirs(example)) == parts


_VALUES = {
    "Content-Length": ("0", "5", "007", "abc", "-1", "+5", "", "1" * 19),
    "Transfer-Encoding": ("chunked", "Chunked", "gzip", "gzip, chunked", "chunked, gzip"),
    "Connection": ("close", "Close", "keep-alive", "Keep-Alive, close", "upgrade"),
    "Keep-Alive": ("timeout=5",),
    "X-Exec-Time-Ms": ("1.5",),
}
_fields = st.sampled_from(sorted(_VALUES)).flatmap(lambda name: st.tuples(
    st.sampled_from([name, name.lower(), name.upper(), name.swapcase()]),
    st.sampled_from(_VALUES[name])))
heads = st.builds(
    Head,
    version=st.one_of(st.sampled_from(VERSIONS), st.sampled_from(
        ("HTTP/0.9", "HTTP/1.2", "HTTP/2.0", "lloHTTP/1.1", "http/1.1"))),
    status=st.one_of(st.sampled_from([100, 101, 103, 200, 204, 304]), st.integers(100, 599)),
    fields=st.lists(_fields, max_size=4).map(tuple),
    head_request=st.booleans(),
    reason=st.sampled_from(["OK", "", "Not Found"]),
)


@settings(max_examples=500, deadline=None)
@given(heads)
def test_response_agrees_with_http_client_but_for_the_known_differences(head):
    allowed = set().union(*(parts for _, _, applies, parts in DIFFERENCES if applies(head)))
    assert differ(ours(head), theirs(head)) <= allowed


# -- Over sockets ------------------------------------------------------------------------

class _Answers(socketserver.StreamRequestHandler):
    """Answers each request head with the server's ``answer``, and never closes first."""

    def setup(self):
        super().setup()
        self.server.connections.append(self.client_address)

    def handle(self):
        while line := self.rfile.readline():
            if line == b"\r\n":
                self.wfile.write(self.server.answer)


@contextlib.contextmanager
def _answering(answer: bytes):
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _Answers)
    server.daemon_threads = True
    server.answer, server.connections = answer, []
    server.handle_error = lambda request, address: None  # the client resets what it drops
    threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("answer", [
    # Read as 2 bytes, this left "llo" ahead of the next status line, which then counted
    # as a success: 6 samples on 3 connections.
    OK + b"Content-Length: 5\r\nContent-Length: 2\r\n\r\nhello",
    b"lloHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
    OK + b"Transfer-Encoding: chunked\r\n\r\n0x5\r\nhello\r\n0\r\n\r\n",
], ids=["two-lengths", "garbled-version", "bad-chunk-size"])
def test_run_bench_counts_a_refused_response_as_transport(answer):
    with _answering(answer) as server:
        result = run_bench(BenchRun(
            target=BenchTarget(url=f"http://127.0.0.1:{server.server_address[1]}/",
                               method="GET", timeout_ms=2000.0),
            pattern=TrafficPattern.steady(20, 0.3),
            n_warmup=0,
        ))
    assert result.attempts == 6
    assert result.errors == {"transport": 6}
    assert len(server.connections) == 6


def test_http_import_loads_no_io():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, faasplan._http; print(*sorted(sys.modules))"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "faasplan._http" in loaded
    assert loaded & {"socket", "asyncio", "ssl", "http.client", "http.server", "email"} == set()
