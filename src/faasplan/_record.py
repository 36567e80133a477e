"""Value classes without :mod:`dataclasses`.

``import dataclasses`` loads :mod:`inspect` (and with it ``ast``, ``dis``
and ``tokenize``), and its decorator ``exec``s freshly generated methods
for every class. Together that was the largest piece of a planner
command's start-up. This module gives faasplan's value classes the part
of ``dataclasses`` they use, with the same behaviour:

- ``dataclass`` / ``dataclass(frozen=True)`` reads the class's own
  annotations in order, and its class-level defaults, which stay readable
  on the class;
- ``field(default_factory=...)`` gives each instance a fresh value;
- one shared ``__init__`` binds arguments by field order, sets each field
  with ``object.__setattr__`` and then calls ``__post_init__``;
- ``__eq__`` compares field tuples of the same class, ``__hash__`` hashes
  them when frozen (and is ``None`` otherwise), ``__repr__`` is
  ``QualName(a=1, b='x')``;
- frozen instances refuse assignment and deletion;
- ``asdict`` recurses like ``dataclasses.asdict``, and ``replace`` goes
  through ``__init__``, so the checks run again.

Type checkers see ``dataclasses`` itself, so constructors stay typed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

_MISSING = object()
# Values that copy.deepcopy returns unchanged; asdict passes them through
# without loading copy.
_ATOMIC = frozenset({type(None), bool, int, float, complex, str, bytes})


class FrozenInstanceError(AttributeError):
    """Raised on assignment to, or deletion of, a field of a frozen instance."""


class _Factory:
    """What ``field(default_factory=...)`` leaves in a class body."""

    def __init__(self, default_factory):
        self.default_factory = default_factory


def _field(*, default_factory) -> _Factory:
    return _Factory(default_factory)


def _dataclass(cls=None, /, *, frozen: bool = False):
    if cls is None:
        return lambda cls: _dataclass(cls, frozen=frozen)
    fields = {}  # name -> default, a _Factory or _MISSING, in annotation order
    defaulted = False
    for name in cls.__dict__.get("__annotations__", {}):
        default = cls.__dict__.get(name, _MISSING)
        if default is _MISSING and defaulted:
            raise TypeError(f"non-default argument {name!r} follows default argument")
        defaulted = default is not _MISSING
        if isinstance(default, _Factory):
            delattr(cls, name)
        fields[name] = default
    cls.__record_fields__ = fields
    cls.__init__ = _init
    cls.__repr__ = _repr
    cls.__eq__ = _eq
    if frozen:
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
        cls.__hash__ = _hash
    else:
        cls.__hash__ = None
    return cls


def _init(self, *args, **kwargs):
    cls = type(self)
    fields = cls.__record_fields__
    if len(args) > len(fields):
        raise TypeError(f"{cls.__qualname__}() takes {len(fields)} positional arguments "
                        f"but {len(args)} were given")
    values = dict(zip(fields, args))
    for name, value in kwargs.items():
        if name not in fields:
            raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
        values[name] = value
    missing = [name for name, default in fields.items() if default is _MISSING and name not in values]
    if missing:
        raise TypeError(f"{cls.__qualname__}() missing required arguments: "
                        f"{', '.join(map(repr, missing))}")
    for name, default in fields.items():
        if name in values:
            value = values[name]
        else:
            value = default.default_factory() if isinstance(default, _Factory) else default
        object.__setattr__(self, name, value)
    if hasattr(cls, "__post_init__"):
        self.__post_init__()


def _values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in type(obj).__record_fields__)


def _repr(self) -> str:
    args = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__record_fields__)
    return f"{type(self).__qualname__}({args})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _asdict(obj) -> dict:
    if not hasattr(type(obj), "__record_fields__"):
        raise TypeError("asdict() should be called on dataclass instances")
    return _asdict_inner(obj)


def _asdict_inner(obj):
    if type(obj) in _ATOMIC:
        return obj
    if hasattr(type(obj), "__record_fields__"):
        return {name: _asdict_inner(getattr(obj, name)) for name in type(obj).__record_fields__}
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):  # a namedtuple
        return type(obj)(*[_asdict_inner(v) for v in obj])
    if isinstance(obj, (list, tuple)):
        return type(obj)(_asdict_inner(v) for v in obj)
    if isinstance(obj, dict):
        return type(obj)((_asdict_inner(k), _asdict_inner(v)) for k, v in obj.items())
    import copy
    return copy.deepcopy(obj)


def _replace(obj, /, **changes):
    for name in type(obj).__record_fields__:
        changes.setdefault(name, getattr(obj, name))
    return type(obj)(**changes)


if TYPE_CHECKING:
    from dataclasses import asdict, dataclass, field, replace
else:
    asdict, dataclass, field, replace = _asdict, _dataclass, _field, _replace
