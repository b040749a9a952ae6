"""What the package's records share.

A record is a plain class with `__slots__` and a written-out `__init__`:
no method is generated from source when a module is imported, which keeps
the package's import cheap (README, "Start-up"). A read-only record
subclasses `Frozen` and sets its fields through `object.__setattr__`. A
record made rarely takes its fields from its constructor's parameters
(`parameters`, `set_fields`); one made on the step path or at import sets
each field by name, which costs no loop.
"""


class Frozen:
    """A record whose fields are set once, in `__init__`: any later
    assignment or deletion raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__


def parameters(init) -> tuple[str, ...]:
    """The names of a constructor's parameters after `self`, in order. A
    record whose `__init__` is its one declaration of fields, order and
    defaults takes its `__slots__` from here."""
    code = init.__code__
    return code.co_varnames[1:code.co_argcount]


def set_fields(record, values: dict) -> None:
    """Set every field of a record read from its `__init__` from `values`,
    that constructor's `locals()`."""
    for name in parameters(type(record).__init__):
        object.__setattr__(record, name, values[name])


def same_fields(record, other) -> bool:
    """`__eq__` of a record that has one: `other` is of the same class and
    equal in every field its constructor takes."""
    return type(other) is type(record) and all(
        getattr(record, name) == getattr(other, name) for name in parameters(type(record).__init__))
