"""Frozen value records: the one class decorator behind the library's record types.

:func:`record` gives these classes what ``dataclasses.dataclass(frozen=True)``
gave them, without importing :mod:`dataclasses`.  That import pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``, and each dataclass is
built by generating and compiling source, so a command paid both on
every start.
"""

from __future__ import annotations

from operator import attrgetter


def record(cls: type) -> type:
    """Make ``cls`` an immutable record over the fields its body annotates.

    The fields are the names in the class's own ``__annotations__``, in
    order; a class attribute of the same name is that field's default.
    The class gains:

    - ``__init__``: each field by position or by keyword.  A missing,
      unknown or repeated argument, or too many positional ones, raises
      ``TypeError``.  It ends with ``self.__post_init__()`` when the
      class defines that method; the call looks it up on the instance
      each time, so a patched ``__post_init__`` is the one that runs.
    - ``__eq__``: records of the same class are equal when their field
      tuples are; against any other class it returns ``NotImplemented``,
      so a record never equals a tuple.
    - ``__hash__``: the hash of the field tuple (so a record with an
      unhashable field, such as a dict, is unhashable).
    - ``__repr__``: ``Name(field=value, ...)``, unless the class defines
      its own.
    - ``__setattr__`` and ``__delattr__``: both raise ``AttributeError``.
    """
    fields = tuple(cls.__annotations__)
    arity = len(fields)
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
    post_init = hasattr(cls, "__post_init__")
    get = attrgetter(*fields)
    values = get if arity > 1 else lambda self: (get(self),)
    title = cls.__qualname__

    def bind(args: tuple, kwargs: dict) -> tuple:
        # The field values in order, from arguments that are not exactly one per field.
        if len(args) > arity:
            raise TypeError(f"{title}() takes {arity} arguments but {len(args)} were given")
        given = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{title}() got an unexpected keyword argument {name!r}")
            if name in given:
                raise TypeError(f"{title}() got multiple values for argument {name!r}")
            given[name] = value
        missing = [name for name in fields if name not in given and name not in defaults]
        if missing:
            raise TypeError(f"{title}() missing argument(s): {', '.join(map(repr, missing))}")
        return tuple(given[name] if name in given else defaults[name] for name in fields)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values(self)))
        return f"{title}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {title} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {title} is immutable")

    cls.__init__ = __init__
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = __repr__
    return cls
