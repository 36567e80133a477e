"""The HTTP/1.1 message head (RFC 9110, RFC 9112) as pure functions over bytes.

The bench client and the stub of ``harness`` keep their reads, writes and timing, and
parse every head here: one grammar. A function raises ValueError on input it refuses.
"""

import re

# http.server's limits: the longest line of a head, CRLF included, and the most field lines.
MAX_LINE = 65536
MAX_FIELDS = 100
# The most digits of a Content-Length: a body of 10**18 bytes or more is no real message.
MAX_DIGITS = 18
CHUNKED = -1  # the length response() gives a chunked body


def tokens(value: str) -> set[str]:
    """The lower-cased tokens of a comma-separated field value such as ``Connection``'s."""
    return {token.strip().lower() for token in value.split(",")}


def fields(lines: list[bytes]) -> dict[str, str]:
    """Field lines by lower-cased name, a repeated field's values joined by ", " (RFC 9110 5.3)."""
    combined: dict[str, str] = {}
    for name, _, value in (line.decode("latin-1").partition(":") for line in lines):
        name, value = name.strip().lower(), value.strip()
        combined[name] = f"{combined[name]}, {value}" if name in combined else value
    return combined


def content_length(value: str) -> int:
    """A ``Content-Length`` value: one decimal of at most ``MAX_DIGITS`` digits."""
    if not (value.isascii() and value.isdigit() and len(value) <= MAX_DIGITS):
        raise ValueError(f"bad Content-Length {value!r}")
    return int(value)


def response(head: bytes, head_request: bool = False) -> tuple[int, dict, int | None, bool]:
    """``(status, fields, length, keep_alive)`` of a response head, its closing empty line included.

    ``length`` frames the body as RFC 9112 section 6.3 does: 0 after ``HEAD``, 1xx, 204 or
    304; ``CHUNKED`` if chunked is the last transfer coding; else ``Content-Length``, or None
    for the end of the stream. ``keep_alive``: the connection may carry more after the body.
    """
    start, *lines = head.split(b"\r\n")[:-2]
    match = re.fullmatch(rb"HTTP/1\.([01]) ([1-9][0-9][0-9])(?: .*)?", start)
    if match is None or len(lines) > MAX_FIELDS or max(map(len, (start, *lines))) + 2 > MAX_LINE:
        raise ValueError(f"bad response head {start[:80]!r}")
    status, named = int(match[2]), fields(lines)
    if head_request or status < 200 or status in (204, 304):
        length = 0
    elif (coding := named.get("transfer-encoding")) is not None:
        length = CHUNKED if coding.rsplit(",", 1)[-1].strip().lower() == "chunked" else None
    else:
        length = content_length(named["content-length"]) if "content-length" in named else None
    keep_alive = (match[1] == b"1" and status != 101 and length is not None
                  and "close" not in tokens(named.get("connection", "")))
    return status, named, length, keep_alive


def chunk_size(line: bytes) -> int:
    """The size a chunk-size line gives, its CRLF included: hex digits, extensions ignored."""
    if (match := re.fullmatch(rb"([0-9A-Fa-f]+)[ \t]*(?:;.*)?\r\n", line)) is None:
        raise ValueError(f"bad chunk-size line {line[:80]!r}")
    return int(match[1], 16)
