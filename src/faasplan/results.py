"""The saved result of a simulation: records, JSON and CSV files.

A run's records and its summary go to ``<out>.json``, and its end-to-end
latencies to ``<out>.csv`` in the shared sample format. ``cost --result``
reads such a file back without loading the simulator that wrote it.
:mod:`faasplan.simulator` re-exports every public name here.
"""

from __future__ import annotations

import json
import math
import operator
import reprlib
import sys
from array import array
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

from . import _schema
from ._record import dataclass
from .errors import ScenarioError
from .metrics import CSV_HEADER, Summary, _durations, summary_from_dict, summary_to_dict


class InvocationRecord(NamedTuple):
    """One simulated request, all times in ms.

    ``end_ms`` is start + exec, plus the cold-start penalty when the
    instance had to be initialized. ``billed_ms`` is exec rounded up to
    the billing granularity; the penalty itself is not billed.
    """

    arrival_ms: float
    start_ms: float
    end_ms: float
    cold: bool
    instance_id: int
    exec_ms: float
    billed_ms: float


# Each column's array type code: a column holds every record's value of that field.
# ``cold`` has none; it stays a tuple of bools, so a record's ``cold`` is a bool.
_TYPECODES = {"arrival_ms": "d", "start_ms": "d", "end_ms": "d", "cold": None, "instance_id": "q",
              "exec_ms": "d", "billed_ms": "d"}
_COLUMNS = operator.attrgetter(*_TYPECODES)


@dataclass(frozen=True)
class SimulationResult:
    """Everything a finished run produced: one column per record field, in arrival order.

    The constructor takes any iterable for a column and stores it typed:
    the ms columns as ``array('d')``, ``instance_id`` as ``array('q')``
    and ``cold`` as a tuple of bools. So a value of another kind raises
    TypeError (OverflowError for an id outside ``[-2**63, 2**63)``) when
    the result is built, and columns of different lengths ValueError.
    """

    arrival_ms: Sequence[float]
    start_ms: Sequence[float]
    end_ms: Sequence[float]
    cold: Sequence[bool]
    instance_id: Sequence[int]
    exec_ms: Sequence[float]
    billed_ms: Sequence[float]
    cold_fraction: float
    latency_summary: Summary | None
    total_billed_gb_s: float
    memory_bytes: int

    def __post_init__(self):
        for name, typecode in _TYPECODES.items():
            column = getattr(self, name)
            object.__setattr__(self, name, tuple(map(bool, column)) if typecode is None
                               else array(typecode, column))
        if len(set(map(len, _COLUMNS(self)))) > 1:
            raise ValueError("SimulationResult columns differ in length")

    @property
    def records(self) -> tuple[InvocationRecord, ...]:
        """The columns as one record per request, built on each access."""
        return tuple(map(InvocationRecord._make, zip(*_COLUMNS(self))))

    @property
    def latencies_ms(self) -> tuple[float, ...]:
        return tuple(map(operator.sub, self.end_ms, self.arrival_ms))


def export_result_csv(result: SimulationResult, path: str | Path) -> None:
    """Write per-record end-to-end latencies in the shared sample CSV format.

    The bytes are those :func:`~faasplan.metrics.write_samples_csv` writes
    for the same samples, formatted straight from the record columns.

    Raises:
        DomainError: when a latency is negative or not finite.
    """
    rows = map(_CSV_ROW.format, result.arrival_ms, _durations(result.latencies_ms),
               map(int, result.cold), result.instance_id)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        fh.writelines(rows)


_NUMBER, _BOOL, _ID = (int, float), (bool,), (int,)
# The fields of a saved record, in InvocationRecord's order, and the types each may load as.
_RECORD_KINDS = {"arrival_ms": _NUMBER, "start_ms": _NUMBER, "end_ms": _NUMBER, "cold": _BOOL,
                 "instance_id": _ID, "exec_ms": _NUMBER, "billed_ms": _NUMBER}
_RECORD_ROW = operator.itemgetter(*_RECORD_KINDS)
# The least and greatest value of each kind that has bounds: a number must
# convert to a finite float, and an id must fit the instance_id column.
_BOUNDS = {_NUMBER: (0, sys.float_info.max), _ID: (0, 2**63 - 1)}
_KIND_TEXT = {_NUMBER: "a finite non-negative number", _BOOL: "true or false", _ID: "an integer"}
_BOUNDS_TEXT = {**_KIND_TEXT, _ID: "an integer in [0, 2**63)"}
# One record as json.dumps(..., indent=2) lays it out inside the "records" list.
_JSON_RECORD = "    {\n" + ",\n".join(f'      "{key}": %s' for key in InvocationRecord._fields) + "\n    }"
# Records save_result_json formats and writes at a time.
_JSON_BLOCK = 16384
# One row of the sample CSV, as csv.writer writes it: no cell here ever needs quoting.
_CSV_ROW = "{!r},{!r},{},{}\r\n"


def result_header(result: SimulationResult) -> dict:
    """The JSON-ready fields of ``result`` other than its records."""
    return {
        "memory_bytes": result.memory_bytes,
        "cold_fraction": result.cold_fraction,
        "total_billed_gb_s": result.total_billed_gb_s,
        "latency_summary": (
            None if result.latency_summary is None else summary_to_dict(result.latency_summary)
        ),
    }


def result_to_dict(result: SimulationResult) -> dict:
    """JSON-ready dict carrying the full result, including billing detail."""
    records = [dict(zip(_TYPECODES, values)) for values in zip(*_COLUMNS(result))]
    return {**result_header(result), "records": records}


def render_result_json(result: SimulationResult) -> str:
    """``json.dumps(result_to_dict(result), indent=2)``, built column by column.

    The indented encoder runs in pure Python; here each column of a block
    of records goes through one compact (C-encoded) ``json.dumps`` and the
    records are joined through one template, which gives the same text
    several times faster. Only the header goes through the indented encoder.
    """
    return "".join(_result_json_parts(result))


def save_result_json(result: SimulationResult, path: str | Path) -> None:
    """Write :func:`render_result_json` and a final newline to ``path``.

    The records go out ``_JSON_BLOCK`` at a time, so the text of the whole
    file is never held at once.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_result_json_parts(result))
        fh.write("\n")


def _result_json_parts(result: SimulationResult) -> Iterator[str]:
    """The text of :func:`render_result_json`, in parts of at most ``_JSON_BLOCK`` records."""
    header = json.dumps({**result_header(result), "records": []}, indent=2)
    if not result.arrival_ms:
        yield header
        return
    yield header.removesuffix("[]\n}") + "["
    columns = _COLUMNS(result)
    for low in range(0, len(result.arrival_ms), _JSON_BLOCK):
        # A compact dump of a column of numbers and booleans is "[a, b, ...]".
        cells = [json.dumps(list(column[low:low + _JSON_BLOCK]))[1:-1].split(", ")
                 for column in columns]
        yield ("\n" if low == 0 else ",\n") + ",\n".join(map(_JSON_RECORD.__mod__, zip(*cells)))
    yield "\n  ]\n}"


def _check_records(records: list, label: str) -> list[tuple]:
    """The saved records as columns, in InvocationRecord's field order.

    Raises naming a record that lacks a field or holds a bad value: a
    number must be finite and non-negative, an id in ``[0, 2**63)``. Each
    field is checked over all records at once, in passes that run in C: a
    Python-level check per record added a few percent to ``cost --result``
    on a 5k-record result.
    """
    try:
        rows = list(map(_RECORD_ROW, records))
    except (KeyError, TypeError):  # a record that is not an object, or lacks a field
        for i, record in enumerate(records):
            if type(record) is not dict:
                raise ScenarioError(
                    f"{label}: records[{i}]: must be an object, got {reprlib.repr(record)}") from None
            if not record.keys() >= _RECORD_KINDS.keys():
                missing = sorted(_RECORD_KINDS.keys() - record.keys())
                raise ScenarioError(f"{label}: records[{i}]: missing keys {missing}") from None
        raise
    columns = list(zip(*rows))
    for (key, types), column in zip(_RECORD_KINDS.items(), columns):
        sound = set(map(type, column)) <= set(types)
        low, high = _BOUNDS.get(types, (None, None))
        if sound and low is not None:
            try:  # with no NaN, min and max compare every value
                sound = not any(map(math.isnan, column)) and low <= min(column) and max(column) <= high
            except OverflowError:  # an int past the float range
                sound = False
        if not sound:
            i, value = next((i, v) for i, v in enumerate(column) if type(v) not in types
                            or (low is not None and not low <= v <= high))
            text = (_KIND_TEXT if type(value) not in types else _BOUNDS_TEXT)[types]
            raise ScenarioError(
                f"{label}: records[{i}]: {key}: must be {text}, got {reprlib.repr(value)}")
    return columns or [()] * len(_RECORD_KINDS)


def result_from_dict(payload: Mapping, source: str = "<result>") -> SimulationResult:
    """Inverse of :func:`result_to_dict`.

    Raises:
        ScenarioError: naming ``source``, when a key this reads is missing
            or of the wrong type, or a record holds a bad value.
    """
    top = _schema.Block(payload, source)
    columns = _check_records(top.get("records", list), source)
    cold_fraction = top.get("cold_fraction", float)
    total_billed_gb_s = top.get("total_billed_gb_s", float)
    memory_bytes = top.get("memory_bytes", int)
    if memory_bytes <= 0:
        raise ScenarioError(f"{source}: memory_bytes: must be positive")
    latency_summary = None
    if top.get("latency_summary") is not None:
        summary = top.block("latency_summary")
        summary.get("count", int)
        for key in ("mean_ms", "q50_ms", "q95_ms", "q99_ms"):
            summary.get(key, float)
        latency_summary = summary_from_dict(summary.raw)
    return SimulationResult(*columns, cold_fraction, latency_summary, total_billed_gb_s, memory_bytes)


def load_result_json(path: str | Path) -> SimulationResult:
    """Inverse of :func:`save_result_json`.

    Raises:
        ScenarioError: naming the file, when it is unreadable or fails the
            checks of :func:`result_from_dict`.
    """
    return result_from_dict(*_schema.load(path, "result"))
