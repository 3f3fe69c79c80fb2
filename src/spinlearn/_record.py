"""Frozen records without ``dataclasses``, whose import pulls in ``inspect``."""


class Record:
    """Immutable fields named by the annotations, the base classes' first.  A record equals
    only a record of its own class with equal fields, and hashes as the tuple of its fields."""
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete field {name!r} of a frozen record")
    __delattr__ = __setattr__


def record(cls):
    """Compile the ``__init__`` of the Record subclass ``cls`` once: it takes the fields,
    positional or keyword, with class attributes as defaults, and calls any ``__post_init__``."""
    cls._fields = tuple({f: None for base in reversed(cls.__mro__)
                         for f in base.__dict__.get("__annotations__", ())})
    defaults = {f: getattr(cls, f) for f in cls._fields if hasattr(cls, f)}
    params = "".join(f", {f}=_d[{f!r}]" if f in defaults else f", {f}" for f in cls._fields)
    body = [f"_set(self, {f!r}, {f})" for f in cls._fields]
    body += ["self.__post_init__()"] if hasattr(cls, "__post_init__") else []
    namespace = {"_set": object.__setattr__, "_d": defaults}
    exec(f"def __init__(self{params}):\n " + "\n ".join(body or ["pass"]), namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls
