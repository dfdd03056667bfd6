"""Immutable value records.

``@record`` makes a class with annotated fields an immutable value.  Its
methods are plain closures over the field names, not generated source, so
defining a record compiles nothing at import time.

- The constructor takes the fields in annotation order, positionally or
  by keyword; a missing, repeated or unknown argument raises TypeError.
  It then calls ``__post_init__`` when the class defines one, looked up
  on the class at each call so that a wrapper rebound there (a timing
  span, say) takes effect.  ``__post_init__`` may normalise fields with
  ``object.__setattr__``.
- Equality compares the fields of two instances of the same class;
  other classes get ``NotImplemented``.  The hash is that of the field
  tuple.  The repr is ``Name(field=value, ...)``.
- Assigning or deleting an attribute raises AttributeError.  Instances
  keep their ``__dict__``, so ``functools.cached_property`` works.

A method the class defines itself is kept (``IntMatrix`` has its own
``__init__``, ``JobSpec`` its own ``__repr__``).
"""

from operator import attrgetter

_set = object.__setattr__


def _bind(name, fields, args, kwargs):
    """The field values of a constructor call, by field name."""
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
    bound = dict(zip(fields, args))
    for key, value in kwargs.items():
        if key not in fields:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if key in bound:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
        bound[key] = value
    missing = [f for f in fields if f not in bound]
    if missing:
        raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
    return bound


def _frozen_setattr(self, name, value):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


def record(cls):
    """Make ``cls`` an immutable value record over its annotated fields."""
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    keys = frozenset(fields)
    name = cls.__qualname__
    post_init = hasattr(cls, "__post_init__")

    get = attrgetter(*fields)
    if len(fields) == 1:  # attrgetter of one name returns the bare value
        def values(self):
            return (get(self),)
    else:
        values = get

    def __init__(self, *args, **kwargs):
        if not kwargs and len(args) == len(fields):
            items = zip(fields, args)
        elif not args and kwargs.keys() == keys:
            items = kwargs.items()
        else:
            items = _bind(name, fields, args, kwargs).items()
        # One store per field keeps the values inline in the instance;
        # writing through ``__dict__`` would materialise it and slow every
        # later field read.
        for field, value in items:
            _set(self, field, value)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in fields)
        return f"{self.__class__.__qualname__}({shown})"

    methods = {
        "__init__": __init__,
        "__eq__": __eq__,
        "__hash__": __hash__,
        "__repr__": __repr__,
        "__setattr__": _frozen_setattr,
        "__delattr__": _frozen_delattr,
    }
    for attr, method in methods.items():
        if attr not in cls.__dict__:
            setattr(cls, attr, method)
    return cls
