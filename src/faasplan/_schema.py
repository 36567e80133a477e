"""Reading and shape-checking of every JSON input: fixtures and scenarios.

All of them fail the same way on malformed input: ``cannot read <what>
<path>: ...`` for an unreadable file, ``<path>:<line>: ...`` for invalid
JSON (``<path>: ...`` for an integer literal too long to convert),
``<path>: <block>: <key>: ...`` for a value of the wrong shape, and
``<path>: <block>: ...`` for a value that the class built from it rejects
(``with block:``, see :class:`.errors.Where`), a fixture name that does
not resolve included. Unknown keys are errors, never silently ignored, and
JSON ``null`` stands for a key's default.
"""

from __future__ import annotations

import json
import reprlib
from decimal import Decimal
from importlib import resources
from pathlib import Path
from typing import Any, Iterator, Mapping

from .errors import ScenarioError, Where
from .units import mb_bytes

REQUIRED = object()

# The keys of a model entry: in a catalog fixture, and inline as a scenario's package model.
MODEL_KEYS = {"name", "size_bytes", "size_mb", "format", "metrics", "embedding_dim"}

_KIND_NAMES = {
    str: "a string", int: "an integer", float: "a number", Decimal: "a number",
    list: "a list", dict: "an object",
}


def load(path: str | Path | None, what: str, error: type[Exception] = ScenarioError,
         bundled: str | None = None, parse_float=None) -> tuple[Any, str]:
    """Parsed JSON of ``path``, or of the bundled fixture ``bundled`` when path is None.

    Returns the payload and the label that error messages name it by.
    """
    if path is None:
        text = resources.files("faasplan.data").joinpath(bundled).read_text("utf-8")
        label = f"data/{bundled}"
    else:
        try:
            text = Path(path).read_text("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise error(f"cannot read {what} {path}: {exc}") from exc
        label = str(path)
    try:
        return json.loads(text, parse_float=parse_float), label
    except json.JSONDecodeError as exc:
        raise error(f"{label}:{exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past sys.get_int_max_str_digits()
        raise error(f"{label}: {exc}") from exc


def _check(value, kind: type, where: str, error: type[Exception]):
    if kind in (float, Decimal):
        ok = isinstance(value, (int, float, Decimal))
    else:
        ok = isinstance(value, kind)
    if not ok or (isinstance(value, bool) and kind is not object):
        raise error(f"{where}: must be {_KIND_NAMES[kind]}, got {reprlib.repr(value)}")
    if kind is float:
        return float(value)
    if kind is Decimal:
        # Via str, so a binary float keeps the digits it was written with.
        number = Decimal(str(value))
        if not number.is_finite():  # JSON's NaN and Infinity
            raise error(f"{where}: must be a finite number, got {reprlib.repr(value)}")
        return number
    return value


class Block(Where):
    """One JSON object, read through typed getters that name ``context`` in errors.

    ``keys`` is the set of keys the object may hold; None allows any.
    ``with block:`` names a value check that fails inside by ``context``,
    raised as ``error``.
    """

    def __init__(self, raw, context: str, keys=None, error: type[Exception] = ScenarioError):
        if not isinstance(raw, Mapping):
            raise error(f"{context}: must be an object, got {reprlib.repr(raw)}")
        unknown = set(raw) - set(keys) if keys is not None else ()
        if unknown:
            raise error(f"{context}: unknown keys {reprlib.repr(sorted(unknown))}")
        super().__init__(context, error)
        self.raw = raw

    def get(self, key: str, kind: type = object, default=REQUIRED):
        """``raw[key]`` checked to be of ``kind`` (float and Decimal accept any number)."""
        value = self.raw.get(key)
        if value is None and default is not REQUIRED:
            return default
        if key not in self.raw:
            raise self.error(f"{self.context}: {key}: missing required key")
        return _check(value, kind, f"{self.context}: {key}", self.error)

    def get_list(self, key: str, kind: type, default=REQUIRED) -> list:
        """A list whose every item is of ``kind``."""
        values = self.get(key, list, default)
        if values is default:
            return default
        return [_check(v, kind, f"{self.context}: {key}[{i}]", self.error)
                for i, v in enumerate(values)]

    def block(self, key: str, keys=None, default=REQUIRED) -> "Block | None":
        """The nested object at ``key``; an absent one is ``default`` (a dict becomes a Block)."""
        raw = self.get(key, dict, default)
        if raw is None:
            return None
        return Block(raw, f"{self.context}: {key}", keys, self.error)

    def size(self, mb_key: str, bytes_key: str, default=REQUIRED) -> int:
        """Bytes from exactly one of ``mb_key`` (MB, any number) and ``bytes_key`` (integer)."""
        given = [k for k in (mb_key, bytes_key) if self.raw.get(k) is not None]
        if len(given) == 2 or (not given and default is REQUIRED):
            raise self.error(f"{self.context}: give exactly one of {mb_key} / {bytes_key}")
        if given == [bytes_key]:
            return self.get(bytes_key, int)
        return self.megabytes(mb_key, default)

    def megabytes(self, key: str, default=REQUIRED) -> int:
        """Bytes in the size at ``key``, in MB: any number that stays finite in bytes."""
        mb = self.get(key, float, default)
        if mb is default:
            return default
        try:
            return mb_bytes(mb)
        except ValueError as exc:
            raise self.error(f"{self.context}: {key}: {exc}, got {mb!r}") from None


def entries(payload, list_key: str, version: int, source: str, keys,
            required=(), error: type[Exception] = ScenarioError) -> Iterator[tuple[str, Block]]:
    """The named entries of a versioned-list fixture ``{"version": v, list_key: [...]}``.

    Each entry is an object holding only ``keys`` and at least ``required``;
    names are unique strings.
    """
    expected = {"version", list_key}
    if not isinstance(payload, Mapping) or set(payload) != expected:
        raise error(f"{source}: top-level keys must be exactly {sorted(expected)}")
    if payload["version"] != version:
        raise error(f"{source}: unsupported schema version {reprlib.repr(payload['version'])} "
                    f"(expected {version})")
    if not isinstance(payload[list_key], list):
        raise error(f"{source}: {list_key!r} must be a list")
    noun = list_key[:-1]
    names: set[str] = set()
    for entry in payload[list_key]:
        block = Block(entry, f"{source}: {noun} entry", keys, error)
        name = block.get("name", str)
        missing = set(required) - set(entry)
        if missing:
            raise error(f"{block.context}: missing keys {sorted(missing)}")
        if name in names:
            raise error(f"{source}: duplicate {noun} {name!r}")
        names.add(name)
        block.context = f"{source}: {noun} {name!r}"
        yield name, block
