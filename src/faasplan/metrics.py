"""Latency sample sets, warm-up filtering and nearest-rank quantiles.

Quantiles here are always observed values (nearest-rank, no
interpolation): a reported q99 is a latency that actually happened.
Sample sets carry optional per-sample tags (timestamp, cold flag,
instance label) and round-trip losslessly through CSV.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

from ._record import dataclass
from .errors import DomainError

CSV_HEADER = ("timestamp_ms", "duration_ms", "cold", "instance")

DEFAULT_WARMUP = 10


@dataclass(frozen=True)
class SampleSet:
    """Ordered latency samples in milliseconds, with optional tags.

    Tag columns are either absent (None) or exactly as long as ``values``.
    Individual tag entries may be None when a producer could not tell.
    """

    values: tuple[float, ...]
    timestamps: tuple[float, ...] | None = None
    cold: tuple[Union[bool, None], ...] | None = None
    instances: tuple[Union[str, None], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        for v in self.values:
            if not math.isfinite(v) or v < 0:
                raise DomainError(f"durations must be finite and non-negative, got {v}")
        for name in ("timestamps", "cold", "instances"):
            column = getattr(self, name)
            if column is not None:
                column = tuple(column)
                object.__setattr__(self, name, column)
                if len(column) != len(self.values):
                    raise DomainError(
                        f"{name} has {len(column)} entries for {len(self.values)} samples"
                    )

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "SampleSet":
        return cls(values=tuple(values))


Samples = Union[SampleSet, Sequence[float]]


def _as_values(samples: Samples) -> tuple[float, ...]:
    if isinstance(samples, SampleSet):
        return samples.values
    return tuple(float(v) for v in samples)


def nearest_rank_index(q: float, n: int) -> int:
    """1-based nearest-rank index: the smallest k with k >= q*n.

    ``q`` is snapped to the closest rational with denominator <= 10**6
    before the rank is computed, so q=0.95 of 100 samples lands on rank
    95 rather than wherever binary floating point puts 0.95 * 100.
    """
    if n <= 0:
        raise DomainError("rank of an empty sample set")
    if not 0.0 < q <= 1.0:
        raise DomainError(f"q must lie in (0, 1], got {q}")
    exact = Fraction(q).limit_denominator(1_000_000)
    return min(max(math.ceil(exact * n), 1), n)


def quantile(samples: Samples, q: float) -> float:
    """Nearest-rank q-quantile: the ceil(q*n)-th smallest observed value.

    Always returns an element of the sample set.

    Raises:
        DomainError: on an empty set or q outside (0, 1].
    """
    # numpy loads here, not at import time: reading and writing samples
    # (the planner commands) never sorts them.
    import numpy as np

    values = _as_values(samples)
    if not values:
        raise DomainError("quantile of an empty sample set")
    ordered = np.sort(np.asarray(values, dtype=float))
    return float(ordered[nearest_rank_index(q, ordered.size) - 1])


@dataclass(frozen=True)
class Summary:
    """Count, mean and the q50/q95/q99 nearest-rank quantiles, in ms."""

    count: int
    mean: float
    q50: float
    q95: float
    q99: float


def summarize(samples: Samples) -> Summary:
    """Summary statistics of a non-empty sample set.

    The mean uses compensated summation, so it is invariant under
    permutation of the samples.
    """
    import numpy as np

    values = _as_values(samples)
    if not values:
        raise DomainError("cannot summarize an empty sample set")
    ordered = np.sort(np.asarray(values, dtype=float))
    n = ordered.size

    def at(q: float) -> float:
        return float(ordered[nearest_rank_index(q, n) - 1])

    return Summary(
        count=n,
        mean=math.fsum(values) / n,
        q50=at(0.5),
        q95=at(0.95),
        q99=at(0.99),
    )


def _take(samples: SampleSet, indices: list[int]) -> SampleSet:
    def pick(column):
        return None if column is None else tuple(column[i] for i in indices)

    return SampleSet(
        values=tuple(samples.values[i] for i in indices),
        timestamps=pick(samples.timestamps),
        cold=pick(samples.cold),
        instances=pick(samples.instances),
    )


def warmup_filter(samples: SampleSet, n_warmup: int = DEFAULT_WARMUP) -> SampleSet:
    """Drop the first ``n_warmup`` samples per instance label.

    Sets without instance labels are filtered globally. Order of the
    surviving samples is preserved; an instance with fewer than
    ``n_warmup`` samples contributes nothing.
    """
    if n_warmup < 0:
        raise DomainError(f"n_warmup must be non-negative, got {n_warmup}")
    if n_warmup == 0:
        return samples
    if samples.instances is None:
        keep = list(range(n_warmup, len(samples)))
    else:
        seen: dict = {}
        keep = []
        for i, instance in enumerate(samples.instances):
            seen[instance] = seen.get(instance, 0) + 1
            if seen[instance] > n_warmup:
                keep.append(i)
    return _take(samples, keep)


def _float_cell(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def write_samples_csv(samples: SampleSet, path: str | Path) -> None:
    """Write samples as ``timestamp_ms,duration_ms,cold,instance`` rows.

    Floats are written in shortest round-trip form; absent tags become
    empty cells, so a read-back reproduces the set exactly.
    """
    n = len(samples)
    timestamps = samples.timestamps or (None,) * n
    cold = samples.cold or (None,) * n
    instances = samples.instances or (None,) * n
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for ts, value, c, inst in zip(timestamps, samples.values, cold, instances):
            writer.writerow([
                _float_cell(ts),
                repr(float(value)),
                "" if c is None else ("1" if c else "0"),
                "" if inst is None else inst,
            ])


def read_samples_csv(path: str | Path) -> SampleSet:
    """Read a sample CSV written by :func:`write_samples_csv`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != CSV_HEADER:
            raise DomainError(f"{path}: expected header {','.join(CSV_HEADER)}")
        timestamps: list[float | None] = []
        values: list[float] = []
        cold: list[bool | None] = []
        instances: list[str | None] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise DomainError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
            try:
                timestamps.append(float(row[0]) if row[0] else None)
                values.append(float(row[1]))
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: {exc}") from exc
            cold.append(None if row[2] == "" else row[2] == "1")
            instances.append(row[3] if row[3] else None)
    return SampleSet(
        values=tuple(values),
        timestamps=None if all(t is None for t in timestamps) else tuple(timestamps),
        cold=None if all(c is None for c in cold) else tuple(cold),
        instances=None if all(i is None for i in instances) else tuple(instances),
    )


def summary_to_dict(summary: Summary) -> dict:
    return {
        "count": summary.count,
        "mean_ms": summary.mean,
        "q50_ms": summary.q50,
        "q95_ms": summary.q95,
        "q99_ms": summary.q99,
    }


def summary_from_dict(payload: Mapping) -> Summary:
    return Summary(
        count=payload["count"],
        mean=payload["mean_ms"],
        q50=payload["q50_ms"],
        q95=payload["q95_ms"],
        q99=payload["q99_ms"],
    )


def format_summary_table(rows: Mapping[str, Summary] | Iterable[tuple[str, Summary]]) -> str:
    """Aligned text table of latency summaries (ms, two decimals)."""
    if isinstance(rows, Mapping):
        rows = rows.items()
    rows = list(rows)
    header = ("", "count", "mean", "q50", "q95", "q99")
    body = [
        (name, str(s.count), f"{s.mean:.2f}", f"{s.q50:.2f}", f"{s.q95:.2f}", f"{s.q99:.2f}")
        for name, s in rows
    ]
    widths = [max(len(r[i]) for r in [header, *body]) for i in range(len(header))]
    lines = []
    for row in [header, *body]:
        name = row[0].ljust(widths[0])
        rest = "  ".join(cell.rjust(widths[i + 1]) for i, cell in enumerate(row[1:]))
        lines.append(f"{name}  {rest}".rstrip())
    return "\n".join(lines)
