"""The one helper behind the package's record classes.

``record(name, fields, defaults, frozen)`` returns a slotted base class;
a record class derives from it, declares ``__slots__ = ()`` and adds
only its own methods.  The base's ``__init__`` is generated from source,
the way ``collections.namedtuple`` builds ``__new__``, so building a
record costs what a hand-written ``__init__`` costs.  Records compare
by every field, print their fields in declaration order and copy and
pickle through ``__init__``.  A frozen record refuses assignment and
deletion and hashes by its fields; a mutable one does not hash.  A list
or dict default is copied for each record that leaves it out.

The module imports nothing: ``dataclasses`` (and the ``inspect`` it
loads) would add to the start of every CLI call, and the CLI loads
three record classes.
"""


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(name: str, fields: tuple, defaults: dict | None = None, frozen=False):
    """A base class for the record ``name`` with ``fields`` in order.

    ``defaults`` maps trailing field names to their default values.
    """
    defaults = defaults or {}
    namespace = {"_set": object.__setattr__}
    params, body = [], []
    for f in fields:
        if f in defaults:
            namespace[f"_d_{f}"] = defaults[f]
            params.append(f"{f}=_d_{f}")
            if isinstance(defaults[f], (list, dict)):
                body.append(f"    if {f} is _d_{f}: {f} = _d_{f}.copy()")
        else:
            params.append(f)
        body.append(
            f"    _set(self, {f!r}, {f})" if frozen else f"    self.{f} = {f}"
        )
    getters = "".join(f"self.{f}, " for f in fields)
    source = (
        f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body) + "\n"
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

    members = {
        "__slots__": fields,
        "_fields": fields,
        "__init__": namespace["__init__"],
        "__eq__": __eq__,
        "__hash__": None,
        "__repr__": __repr__,
        "__reduce__": __reduce__,
    }
    if frozen:
        members["__hash__"] = lambda self: hash(values(self))
        members["__setattr__"] = _refuse_assignment
        members["__delattr__"] = _refuse_deletion
    return type(name, (), members)
