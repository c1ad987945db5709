"""The one helper behind the package's record classes.

``record(name, fields, defaults)`` returns a slotted base class; a
record class derives from it, declares ``__slots__ = ()`` and adds only
its own methods.  The base's ``__init__`` is generated from source, the
way ``collections.namedtuple`` builds ``__new__``: it sets each field
through its slot's member descriptor, whose ``__set__`` is bound once
per class, since the class refuses ``self.f = f``.  Building
``CertifiedReal(1.5, 1e-16)`` so takes about 0.32 us, against 0.43 us
through ``object.__setattr__`` and 0.18 us for a hand-written
``__init__`` of a class that allows assignment (2-vCPU VM, Python
3.11).  Every record is a frozen
value: it refuses assignment and deletion, compares and hashes by every
field, prints its fields in declaration order and copies and pickles
through ``__init__``.  A record holding a list is unhashable, as a tuple
holding one is.  Defaults are shared, so they must be immutable.

The module imports nothing: ``dataclasses`` (and the ``inspect`` it
loads) would add to the start of every call that builds a record.  The
command line loads no record at import; its first one comes with the
module that defines it.
"""


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(name: str, fields: tuple, defaults: dict | None = None):
    """A base class for the record ``name`` with ``fields`` in order.

    ``defaults`` maps trailing field names to their default values.
    """
    defaults = defaults or {}
    namespace = {}  # the slots' setters join it once the class exists
    params = []
    for f in fields:
        if f in defaults:
            namespace[f"_d_{f}"] = defaults[f]
            params.append(f"{f}=_d_{f}")
        else:
            params.append(f)
    body = "".join(f"    _set_{f}(self, {f})\n" for f in fields)
    getters = "".join(f"self.{f}, " for f in fields)
    source = (
        f"def __init__(self, {', '.join(params)}):\n{body}"
        f"def _values(self):\n    return ({getters})\n"
    )
    exec(source, namespace)
    values = namespace["_values"]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __repr__(self):
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values(self)))
        return f"{name}({shown})"

    def __reduce__(self):
        return (self.__class__, values(self))

    cls = type(name, (), {
        "__slots__": fields,
        "_fields": fields,
        "__init__": namespace["__init__"],
        "__eq__": __eq__,
        "__hash__": lambda self: hash(values(self)),
        "__repr__": __repr__,
        "__reduce__": __reduce__,
        "__setattr__": _refuse_assignment,
        "__delattr__": _refuse_deletion,
    })
    for f in fields:
        namespace[f"_set_{f}"] = cls.__dict__[f].__set__
    return cls
