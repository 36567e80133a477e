"""Serverless billing, VM baseline and break-even analysis.

Money is ``decimal.Decimal`` end to end. Pricing profiles ship in
``data/pricing.json`` and are parsed with ``parse_float=Decimal``, so a
rate like 0.0000166667 stays exactly what the file says rather than its
nearest binary float. Every amount is computed in one fixed 60-digit
context, so the caller's decimal context (its precision, rounding and
traps) does not change a report; rendering one runs in the caller's.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, Underflow, localcontext
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence, Union

from . import _schema
from ._record import dataclass
from .errors import DomainError, check_int
from .units import GB, mb_text

if TYPE_CHECKING:  # pragma: no cover
    from .metrics import SampleSet
    from .results import SimulationResult

PRICING_SCHEMA_VERSION = 1

# Enough digits that request fees, GB-second products and the memory/GB
# ratio (denominator 2**30) all come out exact. Entered only through
# localcontext(), which works on a copy, so its flags are never shared.
_EXACT = Context(prec=60)

Money = Union[int, float, str, Decimal]


def _dec(value: Money) -> Decimal:
    """Decimal from a number without inheriting binary-float noise."""
    if isinstance(value, Decimal):
        return value
    if isinstance(value, int):
        return Decimal(value)
    return Decimal(str(value))


def _non_negative(value: Money, name: str) -> Decimal:
    """``_dec(value)``, or DomainError naming ``name`` when it is negative."""
    amount = _dec(value)
    if amount < 0:
        raise DomainError(f"{name} must be non-negative")
    return amount


@dataclass(frozen=True)
class PricingModel:
    """Per-request plus per-GB-second serverless pricing.

    ``billing_granularity_ms`` is the integer step durations are rounded
    up to before billing; keeping it integral keeps billed durations
    exact.
    """

    per_million_requests: Decimal
    per_gb_second: Decimal
    billing_granularity_ms: int = 1
    currency: str = "USD"

    def __post_init__(self):
        object.__setattr__(self, "per_million_requests", _dec(self.per_million_requests))
        object.__setattr__(self, "per_gb_second", _dec(self.per_gb_second))
        if self.per_million_requests < 0 or self.per_gb_second < 0:
            raise DomainError("pricing rates must be non-negative")
        object.__setattr__(self, "billing_granularity_ms",
                           check_int(self.billing_granularity_ms, "billing_granularity_ms", positive=True))


@dataclass(frozen=True)
class VmBaseline:
    """Always-on VM to compare against: flat monthly price at a memory size.

    The price is flat: ``memory_bytes`` is checked, but enters no amount.
    """

    monthly_price: Decimal
    memory_bytes: int = GB

    def __post_init__(self):
        object.__setattr__(self, "monthly_price", _non_negative(self.monthly_price, "monthly_price"))
        object.__setattr__(self, "memory_bytes", check_int(self.memory_bytes, "memory_bytes", positive=True))


DEFAULT_VM_BASELINE = VmBaseline(monthly_price=Decimal("8"), memory_bytes=GB)


@dataclass(frozen=True)
class CostAssumptions:
    """Inputs echoed into a report so the numbers can be re-derived."""

    n_requests: int
    billed_ms_per_request: Decimal | None
    memory_bytes: int
    months: Decimal


@dataclass(frozen=True)
class CostReport:
    """Serverless total vs VM baseline, with the break-even point.

    ``breakeven_requests_per_month`` is None when no volume ever reaches the
    VM price (requests cost nothing) or when there is no billed duration per
    request to derive it from (a cost of zero requests).
    """

    serverless_total: Decimal
    vm_total: Decimal
    breakeven_requests_per_month: int | None
    assumptions: CostAssumptions
    currency: str = "USD"


def round_up(value, step):
    """Smallest multiple of ``step`` at or above ``value``.

    Exact for integers, which is how the simulator bills microseconds and
    :func:`ceil_ms` milliseconds: values on a step boundary never move up.
    """
    return -(-value // step) * step


def ceil_ms(duration_ms: float, granularity_ms: int) -> int:
    """``duration_ms`` rounded up to a whole multiple of ``granularity_ms``.

    Exact: multiples of an integer granularity are integers, so rounding up the
    float's exact integer ceiling loses nothing, and boundaries never move up.
    """
    return round_up(math.ceil(duration_ms), granularity_ms)


def billed_duration(exec_ms: float, granularity_ms: int) -> float:
    """Smallest multiple of the granularity at or above ``exec_ms`` (see ``ceil_ms``)."""
    if exec_ms < 0 or not math.isfinite(exec_ms):
        raise DomainError(f"exec_ms must be finite and non-negative, got {exec_ms}")
    return float(ceil_ms(exec_ms, check_int(granularity_ms, "granularity_ms", positive=True)))


def serverless_cost(
    n_requests: int,
    billed_ms_per_request: Money,
    memory_bytes: int,
    pricing: PricingModel,
) -> Decimal:
    """Total charge for ``n_requests``: request fee plus GB-second fee.

    Linear in ``n_requests``; zero requests cost exactly zero.
    """
    n_requests = check_int(n_requests, "n_requests")
    billed = _non_negative(billed_ms_per_request, "billed_ms_per_request")
    with localcontext(_EXACT):
        return serverless_cost_total(n_requests, n_requests * billed, memory_bytes, pricing)


def serverless_cost_total(
    n_requests: int,
    billed_ms_total: Money,
    memory_bytes: int,
    pricing: PricingModel,
) -> Decimal:
    """Total charge when per-request billed durations vary.

    The request fee scales with ``n_requests``; the compute fee scales
    with the summed billed milliseconds.
    """
    n_requests = check_int(n_requests, "n_requests")
    billed_total = _non_negative(billed_ms_total, "billed_ms_total")
    memory_bytes = check_int(memory_bytes, "memory_bytes", positive=True)
    with localcontext(_EXACT):
        request_fee = Decimal(n_requests) * pricing.per_million_requests / 1_000_000
        gb_seconds = billed_total / 1000 * Decimal(memory_bytes) / GB
        return request_fee + gb_seconds * pricing.per_gb_second


def vm_baseline_cost(baseline: VmBaseline, months: Money = 1) -> Decimal:
    """Flat VM cost over ``months`` (fractional months allowed)."""
    months = _non_negative(months, "months")
    with localcontext(_EXACT):
        return baseline.monthly_price * months


def breakeven(
    pricing: PricingModel,
    baseline: VmBaseline,
    billed_ms_per_request: Money,
    memory_bytes: int,
) -> int | None:
    """Smallest monthly request count whose serverless cost reaches the VM price.

    Returns 0 when the VM is free, None when the marginal request cost is
    zero. The count is computed in exact rationals, so the boundary
    property holds: cost(n - 1) < vm_price <= cost(n).
    """
    memory_bytes = check_int(memory_bytes, "memory_bytes", positive=True)
    if baseline.monthly_price <= 0:
        return 0
    marginal = serverless_cost(1, billed_ms_per_request, memory_bytes, pricing)
    if marginal == 0:
        return None
    return math.ceil(Fraction(baseline.monthly_price) / Fraction(marginal))


def build_cost_report(
    n_requests: int,
    billed_ms_per_request: Money,
    memory_bytes: int,
    pricing: PricingModel,
    baseline: VmBaseline = DEFAULT_VM_BASELINE,
    months: Money = 1,
) -> CostReport:
    """Closed-form report for a uniform per-request billed duration."""
    n_requests = check_int(n_requests, "n_requests")
    billed = _non_negative(billed_ms_per_request, "billed_ms_per_request")
    with localcontext(_EXACT):
        return _report(n_requests, n_requests * billed, memory_bytes, pricing, baseline, months, billed)


def _report(
    n: int,
    billed_total_ms: Money,
    memory_bytes: int,
    pricing: PricingModel,
    baseline: VmBaseline,
    months: Money,
    billed_ms_per_request: Decimal | None = None,
) -> CostReport:
    """Report for ``n`` requests whose billed durations sum to ``billed_total_ms``.

    The break-even column uses ``billed_ms_per_request``, by default the
    mean billed duration, which matches the exact answer whenever every
    request bills the same. No requests cost exactly zero and have no break-even.
    """
    n, memory_bytes = check_int(n, "n_requests"), check_int(memory_bytes, "memory_bytes", positive=True)
    if billed_ms_per_request is None and n:
        with localcontext(_EXACT):
            billed_ms_per_request = Decimal(billed_total_ms) / n
    return CostReport(
        serverless_total=serverless_cost_total(n, billed_total_ms, memory_bytes, pricing),
        vm_total=vm_baseline_cost(baseline, months),
        breakeven_requests_per_month=(
            None if billed_ms_per_request is None
            else breakeven(pricing, baseline, billed_ms_per_request, memory_bytes)
        ),
        assumptions=CostAssumptions(
            n_requests=n,
            billed_ms_per_request=billed_ms_per_request,
            memory_bytes=memory_bytes,
            months=_dec(months),
        ),
        currency=pricing.currency,
    )


def cost_from_simulation(
    result: "SimulationResult",
    pricing: PricingModel,
    baseline: VmBaseline = DEFAULT_VM_BASELINE,
    months: Money = 1,
) -> CostReport:
    """Bill a finished simulation record by record and compare to the VM.

    Each ``exec_ms`` is rounded up at ``pricing``'s granularity, as in :func:`cost_from_samples`;
    the records' ``billed_ms`` state the simulation's own pricing and are not read.
    """
    return _bill(result.exec_ms, result.memory_bytes, pricing, baseline, months)


def cost_from_samples(
    samples: "SampleSet",
    pricing: PricingModel,
    baseline: VmBaseline = DEFAULT_VM_BASELINE,
    memory_bytes: int = GB,
    months: Money = 1,
) -> CostReport:
    """Bill measured durations (one request each), rounding each up to the granularity."""
    return _bill(samples.values, memory_bytes, pricing, baseline, months)


def _bill(durations_ms: Sequence[float], memory_bytes: int, pricing: PricingModel,
          baseline: VmBaseline, months: Money) -> CostReport:
    """Report for one request per duration, each rounded up to ``pricing``'s granularity."""
    billed_ms = sum(map(ceil_ms, durations_ms, repeat(pricing.billing_granularity_ms)))
    return _report(len(durations_ms), billed_ms, memory_bytes, pricing, baseline, months)


# Both formats write amounts in positional notation, and the table rounds
# money to four places in 28 digits, so amounts stay within this many
# digits of the decimal point.
_PRINTABLE_DIGITS = 24


def check_printable(report: CostReport) -> None:
    """Raise OverflowError (Underflow) when an amount of ``report`` is too large (small) to print.

    Nonzero totals, months and billed ms per request must lie in
    ``10**-24 <= |x| < 10**24``, and the break-even count below ``10**24``.
    Past that an amount cannot be rendered at all or runs to megabytes of
    digits, so both output formats refuse the same reports.
    """
    assumptions = report.assumptions
    for amount in (report.serverless_total, report.vm_total, assumptions.months,
                   assumptions.billed_ms_per_request):
        if amount and amount.adjusted() < -_PRINTABLE_DIGITS:
            raise Underflow(f"amount {amount:.3e} is too close to 0 to print")
        if amount and amount.adjusted() >= _PRINTABLE_DIGITS:
            raise OverflowError(f"amount {amount:.3e} is too far from 1 to print")
    breakeven = report.breakeven_requests_per_month
    if breakeven is not None and breakeven >= 10**_PRINTABLE_DIGITS:
        raise OverflowError("break-even request count is too large to print")


def _dec_str(value: Decimal) -> str:
    # Strip trailing zeros without drifting into scientific notation.
    return format(value.normalize(), "f")


def cost_report_to_dict(report: CostReport) -> dict:
    """JSON-ready dict; Decimals become strings to stay exact."""
    assumptions = report.assumptions
    return {
        "currency": report.currency,
        "serverless_total": _dec_str(report.serverless_total),
        "vm_total": _dec_str(report.vm_total),
        "breakeven_requests_per_month": report.breakeven_requests_per_month,
        "assumptions": {
            "n_requests": assumptions.n_requests,
            "billed_ms_per_request": (
                None if assumptions.billed_ms_per_request is None
                else _dec_str(assumptions.billed_ms_per_request)
            ),
            "memory_bytes": assumptions.memory_bytes,
            "months": _dec_str(assumptions.months),
        },
    }


def _money(value: Decimal) -> str:
    # Four decimals, trimmed back to two when the tail is zero.
    text = f"{value.quantize(Decimal('0.0001')):f}"
    if text.endswith("00"):
        text = text[:-2]
    return text


def render_cost_table(report: CostReport) -> str:
    """Aligned text comparison, money at up to four decimal places."""
    assumptions = report.assumptions
    be = report.breakeven_requests_per_month
    if be is None and assumptions.billed_ms_per_request is None:
        be_text = "unknown (no requests to derive it from)"
    elif be is None:
        be_text = "never (requests are free)"
    elif be == 0:
        be_text = "0 (VM is free)"
    else:
        rps = be / (30 * 24 * 3600)
        be_text = f"{be} requests/month (~{rps:.2f} rps)"
    if assumptions.months == 1:
        vm_label = f"vm baseline ({report.currency}/month)"
    else:
        vm_label = f"vm baseline ({report.currency}, {_dec_str(assumptions.months)} months)"
    rows = [
        ("requests", f"{assumptions.n_requests}"),
        ("billed ms/request", (
            "n/a" if assumptions.billed_ms_per_request is None
            else _dec_str(assumptions.billed_ms_per_request)
        )),
        ("memory", mb_text(assumptions.memory_bytes)),
        (f"serverless total ({report.currency})", _money(report.serverless_total)),
        (vm_label, _money(report.vm_total)),
        ("break-even", be_text),
    ]
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label.ljust(width)}  {value}" for label, value in rows)


def parse_pricing(payload: Mapping, source: str = "<pricing>") -> dict[str, PricingModel]:
    """Parse the pricing fixture schema into an ordered name -> model map."""
    out: dict[str, PricingModel] = {}
    for name, entry in _schema.entries(
        payload, "profiles", PRICING_SCHEMA_VERSION, source,
        keys={"name", "per_million_requests", "per_gb_second", "billing_granularity_ms", "currency"},
    ):
        with entry:
            out[name] = PricingModel(
                per_million_requests=entry.get("per_million_requests", Decimal),
                per_gb_second=entry.get("per_gb_second", Decimal),
                billing_granularity_ms=entry.get("billing_granularity_ms", int, 1),
                currency=entry.get("currency", str, "USD"),
            )
    return out


def load_pricing(path: str | Path | None = None) -> dict[str, PricingModel]:
    """Load pricing profiles from ``path``, or the bundled ones if None.

    Rates are parsed straight into Decimal; no float ever touches them.
    """
    return parse_pricing(*_schema.load(path, "pricing", bundled="pricing.json", parse_float=Decimal))
