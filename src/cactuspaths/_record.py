"""Frozen records: plain classes whose fields are their annotations.

A Record behaves as a frozen dataclass did: it is built by position or by
keyword, with a class attribute as a field's default; it equals only a
record of its own class with equal fields; it hashes as the tuple of its
fields; its repr is Name(field=value, ...); assigning or deleting an
attribute raises AttributeError; and it pickles and copies as a call with
its fields.  A subclass that declares __slots__ naming its fields defines
its own __init__, as may a hot one.

Dataclasses cost every command's start-up about 18 ms: importing them
pulls in inspect, ast, dis and tokenize, and each frozen class exec'd six
generated methods.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__annotations__)
        own = {k: v for k, v in vars(cls).items() if k not in vars(cls).get("__slots__", ())}
        cls._defaults = {name: own[name] for name in fields if name in own}
        # an attrgetter, which is no method: it is called as self._values(self);
        # with two or more fields it returns their tuple
        cls._values = attrgetter(*fields)

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict[str, object]) -> tuple:
        """The field values of a call that is not one value per field, in
        field order; raises TypeError as a call to a function would."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, got {len(args)}")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
            values[name] = value
        values = {**cls._defaults, **values}
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__}() is missing the arguments {missing}")
        return tuple(values[name] for name in fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple]:
        return type(self), self._values(self)
