"""Record classes: fields from annotations, methods as closures.

``@record`` reads a class's annotated fields and their defaults (a class
attribute, or ``field(default_factory=...)`` for a fresh value per
instance) and installs

- ``__init__``, taking the fields positionally or by keyword, then calling
  ``__post_init__`` when the class defines one;
- ``__repr__``;
- with ``eq`` (the default), value equality over the fields, hashable when
  the record is ``frozen``; with ``eq=False`` the identity of ``object``;
- with ``frozen``, ``__setattr__`` and ``__delattr__`` raising
  AttributeError (``__post_init__`` sets fields with ``object.__setattr__``).

``asdict`` and ``replace`` act on records as the standard library's
functions of those names act on its data classes.  The methods are closures
over each class's field names: no source is generated or compiled, so
defining the package's records costs microseconds, and no command loads the
standard library's data-class module.
"""

_MISSING = object()


class _Factory:
    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def field(*, default_factory):
    """A per-instance default: ``default_factory()`` at each construction."""
    return _Factory(default_factory)


def record(cls=None, /, *, frozen: bool = False, eq: bool = True):
    """Class decorator, bare or as ``record(frozen=..., eq=...)``."""
    if cls is None:
        return lambda c: _build(c, frozen, eq)
    return _build(cls, frozen, eq)


def _build(cls, frozen, eq):
    names = tuple(cls.__annotations__)
    known = frozenset(names)
    defaults = {}
    for name in names:
        value = cls.__dict__.get(name, _MISSING)
        if isinstance(value, _Factory):
            delattr(cls, name)
        if value is not _MISSING:
            defaults[name] = value
    post_init = getattr(cls, "__post_init__", None)
    qual = cls.__qualname__

    def values(self):
        return tuple(getattr(self, name) for name in names)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{qual}() takes {len(names)} arguments, {len(args)} given")
        state = self.__dict__
        state.update(zip(names, args))
        for name, value in kwargs.items():
            if name not in known or name in state:
                raise TypeError(f"{qual}() got an unexpected or repeated argument {name!r}")
            state[name] = value
        for name in names:
            if name not in state:
                default = defaults.get(name, _MISSING)
                if default is _MISSING:
                    raise TypeError(f"{qual}() missing required argument {name!r}")
                state[name] = default.make() if isinstance(default, _Factory) else default
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in names) + ")"

    methods = {"__init__": __init__, "__repr__": __repr__}
    if eq:
        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return values(self) == values(other)

        def __hash__(self):
            return hash(values(self))

        methods["__eq__"] = __eq__
        methods["__hash__"] = __hash__ if frozen else None
    if frozen:
        def __setattr__(self, name, value):
            raise AttributeError(f"cannot assign to {name!r} of a frozen {qual}")

        def __delattr__(self, name):
            raise AttributeError(f"cannot delete {name!r} of a frozen {qual}")

        methods.update(__setattr__=__setattr__, __delattr__=__delattr__)
    for name, method in methods.items():
        setattr(cls, name, method)
    cls._record_fields = names
    return cls


def asdict(obj) -> dict:
    """The fields of the record ``obj`` as a dict, with records inside lists,
    tuples and dicts turned into dicts too.  Unlike the standard library's
    ``asdict`` it does not deep-copy the leaves; the containers are new."""
    return {name: _plain(getattr(obj, name)) for name in obj._record_fields}


def _plain(value):
    if hasattr(type(value), "_record_fields"):
        return asdict(value)
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(v) for v in value)
    if isinstance(value, dict):
        return type(value)((_plain(k), _plain(v)) for k, v in value.items())
    return value


def replace(obj, **changes):
    """A new record like ``obj`` with ``changes``; ``__post_init__`` runs again."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._record_fields},
                        **changes})
