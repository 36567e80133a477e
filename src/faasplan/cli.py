"""Command-line front end: validate, select, simulate, cost, bench.

Every command reads its inputs from flags and JSON scenario files, so a
run is reproducible from the scenario alone. Exit codes: 0 success, 1
domain failure (plan rejected, nothing feasible, error budget blown), 2
configuration or usage problems.

This module parses the arguments and resolves fixtures; each command runs
in its own module, ``faasplan.commands.<name>``, and scenario files are
read by ``faasplan.scenario``. A command is one short process, and without
a bytecode cache a process compiles every module it imports, so ``main``
imports only the module of the command it runs.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys
from decimal import Decimal
from pathlib import Path
from threading import TIMEOUT_MAX
from typing import TYPE_CHECKING

from .errors import DomainError, FaasPlanError, PreflightError
from .units import mb_bytes

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import ModelArtifact
    from .cost import PricingModel
    from .packaging import RuntimeLibrary
    from .providers import ProviderLimits
    from .scenario import SCENARIO_SCHEMA_VERSION, Scenario, load_scenario  # noqa: F401

# Names defined in faasplan.scenario, resolved on first access, so that a
# command that reads no scenario file never compiles the loader.
_SCENARIO_NAMES = {"SCENARIO_SCHEMA_VERSION", "Scenario", "load_scenario"}


def __getattr__(name: str):
    if name not in _SCENARIO_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(".scenario", __package__), name)
    globals()[name] = value
    return value


class ProfileStore:
    """Resolves named fixtures, preferring files in ``--profile-dir``.

    Each fixture file is read at most once per store. A name that does not
    resolve is a bad value (DomainError), which a scenario names by its key.
    """

    def __init__(self, profile_dir: Path | None = None):
        self.profile_dir = Path(profile_dir) if profile_dir is not None else None
        self._tables: dict[str, dict] = {}

    def _override(self, filename: str) -> Path | None:
        if self.profile_dir is not None:
            candidate = self.profile_dir / filename
            if candidate.exists():
                return candidate
        return None

    def _lookup(self, filename: str, loader, kind: str, name: str):
        if filename not in self._tables:
            self._tables[filename] = loader(self._override(filename))
        table = self._tables[filename]
        if name not in table:
            raise DomainError(f"unknown {kind} {name!r}; available: {', '.join(table)}")
        return table[name]

    def provider(self, name: str) -> ProviderLimits:
        from .providers import load_provider_limits
        return self._lookup("providers.json", load_provider_limits, "provider", name)

    def pricing_profile(self, name: str) -> PricingModel:
        from .cost import load_pricing
        return self._lookup("pricing.json", load_pricing, "pricing profile", name)

    def runtime(self, name: str) -> RuntimeLibrary:
        from .packaging import load_runtime_libraries
        return self._lookup("runtimes.json", load_runtime_libraries, "runtime", name)

    def catalog(self, source: str) -> list[ModelArtifact]:
        """A built-in catalog, else the file ``source`` in ``--profile-dir``, else ``source``."""
        from . import _schema
        from .catalog import BUILTIN_CATALOGS, load_catalog, parse_catalog
        if source in BUILTIN_CATALOGS:
            return load_catalog(source)
        path = self._override(source) or source
        return parse_catalog(*_schema.load(path, "catalog", DomainError))


def _number(kind: type, rule: str = "", ok=lambda value: True, size: bool = False):
    """argparse ``type=`` for a number flag: a ``kind`` value for which ``ok`` holds.

    Text that is no ``kind``, a float or Decimal that is not finite, a value
    outside ``ok`` (worded ``rule``) and a ``size`` in MB that is not finite
    in bytes are usage errors (exit 2), which argparse prefixes with the flag.
    A size's range holds for its whole bytes too: 1e-9 MB is 0 bytes.
    """
    def parse(text: str):
        try:
            value = kind(text)
        except (ValueError, ArithmeticError):  # Decimal signals InvalidOperation
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        try:
            if not (value.is_finite() if kind is Decimal else kind is int or math.isfinite(value)):
                raise ValueError("must be a finite number")
            if not ok(value) or size and not ok(mb_bytes(value)):
                raise ValueError(rule)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None
        return value
    return parse


# The ranges of most number flags: (rule, ok).
_POSITIVE = "must be positive", lambda value: value > 0
_NON_NEGATIVE = "must be non-negative", lambda value: value >= 0

# --seed as a run's SeedSequence requires it; --memory-mb, a size in MB.
_seed = _number(int, "must be a non-negative integer", lambda value: value >= 0)
_mb = _number(int, *_POSITIVE)
_finite_float = _number(float)
_finite_decimal = _number(Decimal, *_NON_NEGATIVE)  # --vm and --months: a price, a horizon
_megabytes = _number(float, *_POSITIVE, size=True)  # --max-package-mb: a budget
_ratio = _number(float, "must lie in [0, 1]", lambda value: 0 <= value <= 1)
# --stub-delay-ms and --stub-jitter-ms: a wait the stub's thread can time, as StubServer bounds it.
_stub_ms = _number(float, f"must lie in [0, {TIMEOUT_MAX * 1000:.0f}]",
                   lambda value: 0 <= value <= TIMEOUT_MAX * 1000)


def _mb_list(text: str) -> list[int]:
    """``--memory-sweep`` value: comma-separated positive integer MB sizes, at least one."""
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        sizes = []
    if not sizes:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integer MB sizes, got {text!r}")
    if min(sizes) <= 0:
        raise argparse.ArgumentTypeError(f"sizes must be positive, got {text!r}")
    return sizes


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "json"), default="table",
                        help="output format (default: table)")
    parser.add_argument("--profile-dir", type=Path, default=None,
                        help="directory with providers.json / pricing.json / runtimes.json overrides")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faasplan",
        description="Plan, simulate and benchmark serverless deployments of compact ML models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a deployment plan against provider limits")
    _add_common(p)
    p.add_argument("--scenario", required=True, help="scenario JSON with a package block")
    p.add_argument("--provider", help="override the scenario provider")
    p.add_argument("--memory-mb", type=_mb, default=None, help="override the plan memory")

    p = sub.add_parser("select", help="pick the best model that fits a size budget")
    _add_common(p)
    p.add_argument("--catalog", required=True, help="built-in catalog name or a JSON path")
    p.add_argument("--provider", help="take the package budget from this provider")
    p.add_argument("--max-package-mb", type=_megabytes, default=None,
                   help="explicit package budget in MB")
    p.add_argument("--metric", required=True, help="objective metric name")
    p.add_argument("--min-score", type=_finite_float, default=None, help="minimum acceptable score")
    p.add_argument("--runtime", default="onnxruntime", help="runtime library (default: onnxruntime)")
    p.add_argument("--code-mb", type=_number(float, *_NON_NEGATIVE, size=True), default=1.0,
                   help="function code size (default: 1 MB)")

    p = sub.add_parser("simulate", help="run a seeded deployment simulation")
    _add_common(p)
    p.add_argument("--scenario", required=True, help="scenario JSON with profile/traffic/simulation")
    p.add_argument("--seed", type=_seed, default=None,
                   help="override the scenario seed, a non-negative integer; a seed gives "
                        "the same records whether numpy or faasplan's own PCG64 draws them")
    p.add_argument("--memory-sweep", type=_mb_list, default=None,
                   help="comma-separated memory sizes in MB, one run per size")
    p.add_argument("--out", default=None,
                   help="output prefix; writes <out>.csv and <out>.json (or <out>_sweep.csv)")

    p = sub.add_parser("cost", help="price a workload against a VM baseline")
    _add_common(p)
    p.add_argument("--scenario", default=None, help="scenario JSON with a cost block")
    p.add_argument("--result", default=None,
                   help="price a simulation result (.json) or sample CSV instead")
    p.add_argument("--pricing", default=None, help="pricing profile name (default: aws)")
    p.add_argument("--vm", type=_finite_decimal, default=None, help="override the VM monthly price")
    p.add_argument("--months", type=_finite_decimal, default=None, help="billing horizon (default: 1)")
    p.add_argument("--memory-mb", type=_mb, default=None,
                   help="memory for CSV results (default: 1024)")

    p = sub.add_parser("bench", help="open-loop load generation against a live endpoint")
    _add_common(p)
    p.add_argument("--url", default=None, help="endpoint to hit")
    p.add_argument("--payload-file", default=None, help="request body file")
    p.add_argument("--method", default="POST", help="HTTP method (default: POST)")
    p.add_argument("--rate", type=_number(float, *_NON_NEGATIVE), default=1.0,
                   help="requests per second (default: 1)")
    p.add_argument("--duration", type=_number(float, *_POSITIVE), default=10.0,
                   help="run length in seconds (default: 10)")
    p.add_argument("--pattern", choices=("steady", "poisson"), default="steady",
                   help="send schedule (default: steady)")
    p.add_argument("--seed", type=_seed, default=0, help="seed of the poisson schedule, a non-negative integer (default: 0)")
    p.add_argument("--warmup", type=_number(int, *_NON_NEGATIVE), default=10,
                   help="successful responses to exclude up front (default: 10)")
    p.add_argument("--timeout-ms", type=_number(float, *_POSITIVE), default=10_000.0,
                   help="per-request timeout (default: 10000)")
    p.add_argument("--limits-profile", default=None,
                   help="provider whose request cap the payload must pass")
    p.add_argument("--max-error-ratio", type=_ratio, default=None,
                   help="fail the run when the error ratio exceeds this")
    p.add_argument("--out", default=None, help="write post-warmup samples to this CSV")
    p.add_argument("--stub", action="store_true",
                   help="bench the built-in stub server instead of a real endpoint")
    p.add_argument("--stub-delay-ms", type=_stub_ms, default=50.0,
                   help="stub response delay (default: 50)")
    p.add_argument("--stub-jitter-ms", type=_stub_ms, default=0.0,
                   help="uniform extra stub delay (default: 0)")
    p.add_argument("--stub-fail-every", type=_number(int, *_POSITIVE), default=None,
                   help="stub fails every k-th request with HTTP 500")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    store = ProfileStore(args.profile_dir)
    command = importlib.import_module(f".commands.{args.command}", __package__)
    try:
        return command.run(args, store)
    except BrokenPipeError:
        # Downstream consumer (head, less) went away; suppress the flush error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except PreflightError as exc:
        from ._record import asdict
        from .commands import violation_line

        print(f"error: {exc}", file=sys.stderr)
        for v in exc.report.violations:
            print(violation_line(asdict(v)), file=sys.stderr)
        return 1
    except FaasPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
