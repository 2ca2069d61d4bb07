"""Base of the exact layer's immutable value types, kept light to import."""


class FrozenValue:
    """A value whose fields are its ``__slots__``, in order.

    Equality, hashing, the repr and pickling follow the field tuple, as
    for a frozen dataclass, and assigning or deleting an attribute raises
    AttributeError. Public constructors coerce their input; results built
    from already-coerced fields go through the trusted ``_of``.
    """

    __slots__ = ()

    @classmethod
    def _of(cls, *fields):
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(self, name, value)
        return self

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the default reduction restores slots by assignment, which is refused
        return type(self), self._fields()
