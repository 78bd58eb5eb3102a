"""``Record``: the frozen-dataclass base of the package's result and parameter types.

A subclass is a dataclass whose one compiled method is ``__init__``; the
frozen ``__setattr__``/``__delattr__``, ``__repr__``, ``__eq__`` and ``__hash__``
are shared and act as ``dataclass(frozen=True)``'s.  Fields take a default or a
``default_factory``, no other ``field`` option.  ``class X(Record, eq=False)``
compares and hashes by identity, for records that hold arrays.
"""
import dataclasses
import math
import numbers
import operator

import numpy as np

#: Relative slack of the package's "nonincreasing" checks, absorbing rounding.
_MONOTONE_SLACK = 1e-12


def _keepable(values) -> bool:
    """Whether ``values`` is a read-only float64 array that no writeable array shares memory
    with: it owns its data, or its base, the owner of that memory, is read-only and must stay so."""
    if type(values) is np.ndarray and values.dtype == np.float64 and not values.flags.writeable:
        base = values.base
        return base is None or (type(base) is np.ndarray and not base.flags.writeable)
    return False


def _whole(value) -> bool:
    """Whether ``value`` is a finite real number equal to its ``int``, as a count must be."""
    return isinstance(value, numbers.Real) and abs(value) < np.inf and value == int(value)


def _real(name: str, value, *, above: float | None = None, at_least: float | None = None) -> float:
    """``value`` as a float if it is a finite real number above ``above`` and at least ``at_least``,
    as a parameter must be; else a ValueError naming the parameter, its bound and the value."""
    real = type(value) is float or isinstance(value, numbers.Real)  # a float skips the slower ABC check
    try:
        x = float(value) if real else None
    except OverflowError:  # an int or Fraction past the float range
        x = math.inf if value > 0 else -math.inf
    if x is not None and abs(x) < math.inf:  # NaN fails
        if (above is None or x > above) and (at_least is None or x >= at_least):
            return x
    bound = ("" if above is None else " and positive" if above == 0 else f" and above {above:g}") + (
        "" if at_least is None else " and nonnegative" if at_least == 0 else f" and at least {at_least:g}")
    raise ValueError(f"{name} must be finite{bound}, got {repr(value) if x is None else x}")


def _frozen(values) -> np.ndarray:
    """``values`` as a read-only float64 array: kept if :func:`_keepable`, else
    copied once and frozen."""
    if _keepable(values):
        return values
    array = np.array(values, dtype=float)
    array.setflags(write=False)
    return array


class _Factory:
    def __repr__(self) -> str:  # how a signature shows a default_factory
        return "<factory>"


_FACTORY = _Factory()


class Record:
    """Base of a frozen dataclass that compiles only its ``__init__``, which stores each
    field annotated ``np.ndarray`` by :func:`_frozen` (the kept-array rule)."""

    def __init_subclass__(cls, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        dataclasses.dataclass(cls, init=False, repr=False, eq=False)
        fields = dataclasses.fields(cls)
        names = cls._record_names = tuple(f.name for f in fields)
        # the field values that __eq__ and __hash__ compare: the generated methods' tuple
        # (a one-field record's lone value, which compares the same)
        cls._record_values = staticmethod(operator.attrgetter(*names))
        # the __init__ that dataclass would write: defaults, factories, stores, __post_init__
        scope = dict(__name__=cls.__module__, _setattr=object.__setattr__, _FACTORY=_FACTORY, _frozen=_frozen)
        params, body = ["self"], []
        for f in fields:
            value = f.name
            if f.default_factory is not dataclasses.MISSING:
                scope[f"_d_{f.name}"] = f.default_factory
                value = f"_d_{f.name}() if {f.name} is _FACTORY else {f.name}"
                params.append(f"{f.name}=_FACTORY")
            elif f.default is not dataclasses.MISSING:
                scope[f"_d_{f.name}"] = f.default
                params.append(f"{f.name}=_d_{f.name}")
            else:
                params.append(f.name)
            if f.type in ("np.ndarray", np.ndarray):  # the kept-array rule
                value = f"_frozen({value})"
            body.append(f"_setattr(self, {f.name!r}, {value})")
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        exec(f"def __init__({', '.join(params)}):\n " + "\n ".join(body), scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__.__annotations__ = {**{f.name: f.type for f in fields}, "return": None}
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._record_names)
        return f"{type(self).__qualname__}({values})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._record_values(self) == other._record_values(other)

    def __hash__(self) -> int:
        return hash(self._record_values(self))

    def __reduce__(self):  # pickle and copy through __init__: a copy is checked, frozen, uncached
        return type(self), tuple(getattr(self, name) for name in self._record_names)

    def __setattr__(self, name: str, value: object) -> None:
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")
