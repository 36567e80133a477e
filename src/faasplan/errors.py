"""Exception types shared across the toolkit."""

from __future__ import annotations

import contextlib
import operator
import reprlib

from .units import Unlimited


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


_REPR = reprlib.Repr()
_REPR.maxother = 80  # reprlib.repr's limits, but an object's default repr fits whole


def check_int(value, name: str, positive: bool = False, unlimited: bool = False):
    """``value`` as a plain ``int``: the one check of every count, byte size and seed.

    Any integer type but bool passes (``operator.index``, numpy's included) if at least 0,
    or at least 1 if ``positive``; UNLIMITED too, as it is, if ``unlimited``. Else DomainError
    ``<name> must be a <non-negative | positive> integer [or UNLIMITED], got <value>``.
    """
    if unlimited and isinstance(value, Unlimited):
        return value
    with contextlib.suppress(TypeError):
        number = operator.index(value)
        if number >= positive and not isinstance(value, bool):
            return number
    kind = ("positive integer or UNLIMITED" if unlimited else "positive integer" if positive
            else "non-negative integer")
    raise DomainError(f"{name} must be a {kind}, got {_REPR.repr(value)}")
