"""Immutable records, built without generated code.

A subclass of `Record` declares its fields as annotated class attributes,
read in order; a field given a class value has that default.  A record
is built by position or keyword, then checked or coerced by its
`__post_init__` if it has one (which assigns with `object.__setattr__`);
it compares and hashes as the tuple of its compared fields (all but the
`uncompared` class keyword's), reads `Name(field=...)` and refuses
assignment.  Instances keep a `__dict__`, so `functools.cached_property`,
copy and pickle work on them.  A class that defines its own `__eq__`
keeps it, and is unhashable.
"""

from operator import attrgetter

_set = object.__setattr__


class Record:
    def __init_subclass__(cls, uncompared=(), **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__annotations__)
        defaults = {f: cls.__dict__[f] for f in names if f in cls.__dict__}
        post = getattr(cls, "__post_init__", None)
        n = len(names)

        # closures over the field names, so the methods read no class
        # attribute; the index loop is about twice as fast as zip here
        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != n:
                args = _bind(cls.__name__, names, defaults, args, kwargs)
            i = 0
            for name in names:
                _set(self, name, args[i])
                i += 1
            if post is not None:
                post(self)

        cls.__init__ = __init__
        cls._fields = names
        if "__eq__" in cls.__dict__:
            return
        compared = [f for f in names if f not in uncompared]
        get = attrgetter(*compared)
        key = get if len(compared) > 1 else lambda r: (get(r),)

        # field by field from the instance dicts, stopping at the first
        # difference; `is` first, as a tuple comparison would
        def __eq__(self, other):
            if self is other:
                return True
            if other.__class__ is not self.__class__:
                return NotImplemented
            mine, theirs = self.__dict__, other.__dict__
            for name in compared:
                a, b = mine[name], theirs[name]
                if a is not b and a != b:
                    return False
            return True

        def __hash__(self):
            return hash(key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a record")


def _bind(cls_name, names, defaults, args, kwargs):
    """The field values of a call by keyword or with defaults left out."""
    if len(args) > len(names):
        raise TypeError(f"{cls_name}() takes {len(names)} positional arguments but {len(args)} were given")
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{cls_name}() got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{cls_name}() got multiple values for argument {name!r}")
        values[name] = value
    missing = [f for f in names if f not in values and f not in defaults]
    if missing:
        raise TypeError(f"{cls_name}() missing required arguments: {', '.join(missing)}")
    return [values[f] if f in values else defaults[f] for f in names]
