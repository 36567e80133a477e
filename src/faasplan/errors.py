"""Exception types shared across the toolkit."""

from __future__ import annotations

import contextlib
import operator


class FaasPlanError(Exception):
    """Base class for every error raised by this package."""


class DomainError(FaasPlanError, ValueError):
    """An argument or field value lies outside its valid domain."""


class IncompatibleFormatError(DomainError):
    """A model's serialization format cannot be executed by the chosen runtime."""


class CatalogError(FaasPlanError):
    """A model catalog file is malformed or breaks catalog invariants."""


class NoFeasibleModelError(FaasPlanError):
    """No catalog entry satisfies the selection constraints.

    ``rejections`` maps each candidate name to the first constraint it
    violated, so callers can report why the catalog came up empty.
    """

    def __init__(self, message: str, rejections: dict[str, str]):
        super().__init__(message)
        self.rejections = dict(rejections)


class ScenarioError(FaasPlanError):
    """A scenario, profile or fixture file cannot be loaded or resolved."""


class Where:
    """``with Where(context):`` re-raises a DomainError from inside as ``error("<context>: ...")``.

    The only code that names a failed value check by where its value was
    read, such as ``<path>: <block>``; ``_schema.Block`` is a Where.
    """

    def __init__(self, context: str, error: type[Exception] = ScenarioError):
        self.context, self.error = context, error

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, DomainError):
            raise self.error(f"{self.context}: {exc}") from exc


@contextlib.contextmanager
def writing(path):
    """Re-raise a failed write of ``path`` as ``FaasPlanError("<path>: cannot write: <reason>")``."""
    try:
        yield
    except OSError as exc:
        raise FaasPlanError(f"{path}: cannot write: {exc.strerror or exc}") from exc


def create_outputs(*paths) -> None:
    """Create or empty each of ``paths`` through :func:`writing`.

    A command calls this before its run, so an output it cannot write
    fails at once instead of after the work whose result it would hold.
    """
    for path in paths:
        with writing(path), open(path, "w"):
            pass


class PreflightError(FaasPlanError):
    """A bench target violates the selected provider's request limits."""

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


def check_seed(seed) -> int:
    """``seed`` as a plain ``int``, the seeds a run's draws start from.

    Any integer type passes, numpy's included (``operator.index``), so long
    as its value is non-negative.

    Raises:
        DomainError: naming the bad seed.
    """
    try:
        value = operator.index(seed)
    except TypeError:
        value = None
    if value is None or value < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    return value
