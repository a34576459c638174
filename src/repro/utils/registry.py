"""One name table, shared by every registry of the library.

The gossip backends (:mod:`repro.core.backend`), the comparison
algorithms (:mod:`repro.algorithms.registry`), the attack families
(:mod:`repro.attacks.models`), the scenario catalogue
(:mod:`repro.scenarios.spec`) and the experiments
(:mod:`repro.experiments.registry`) each keep one :class:`Registry`. Every
entry has exactly one name, and an unknown name raises the registry's
own typed error listing the catalogue.
"""

from __future__ import annotations

from typing import Dict, Generic, Tuple, Type, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """A table of named entries, one name per entry.

    Parameters
    ----------
    noun:
        What an entry is called in error messages ("gossip
        backend/engine", "attack family", ...).
    error:
        The exception :meth:`resolve` raises for an unregistered name; a
        ``KeyError`` subclass.

    Examples
    --------
    >>> colours = Registry("colour", KeyError)
    >>> colours.register("red", 0xFF0000)
    >>> colours.get("red") == 0xFF0000
    True
    >>> colours.names()
    ('red',)
    """

    def __init__(self, noun: str, error: Type[KeyError]):
        self.noun = noun
        self.error = error
        self._entries: Dict[str, T] = {}

    def register(self, name: str, entry: T, *, overwrite: bool = False) -> None:
        """Register ``entry`` under ``name``.

        After registration the entry is selectable everywhere a name of
        this kind is accepted. A taken name raises ``ValueError`` and
        leaves the table as it was, unless ``overwrite=True``.

        Examples
        --------
        >>> table = Registry("colour", KeyError)
        >>> table.register("red", 1)
        >>> table.register("red", 2)
        Traceback (most recent call last):
            ...
        ValueError: colour 'red' is already registered (pass overwrite=True)
        >>> table.register("red", 2, overwrite=True)
        >>> table.get("red")
        2
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.noun} name must be a non-empty string, got {name!r}")
        if not overwrite and name in self._entries:
            raise ValueError(f"{self.noun} {name!r} is already registered (pass overwrite=True)")
        self._entries[name] = entry

    def resolve(self, name: str) -> str:
        """``name`` itself, once checked against the table.

        Examples
        --------
        >>> table = Registry("colour", KeyError)
        >>> table.register("red", 1)
        >>> table.resolve("red")
        'red'
        >>> table.resolve("blue")
        Traceback (most recent call last):
            ...
        KeyError: "unknown colour 'blue'; available: red"
        """
        if name in self._entries:
            return name
        raise self.error(f"unknown {self.noun} {name!r}; available: {', '.join(self.names())}")

    def get(self, name: str) -> T:
        """The entry registered under ``name``.

        Examples
        --------
        >>> table = Registry("colour", KeyError)
        >>> table.register("red", 0xFF0000)
        >>> hex(table.get("red"))
        '0xff0000'
        """
        return self._entries[self.resolve(name)]

    def names(self) -> Tuple[str, ...]:
        """Every registered name, sorted.

        Examples
        --------
        >>> table = Registry("colour", KeyError)
        >>> table.register("red", 1)
        >>> table.register("blue", 2)
        >>> table.names()
        ('blue', 'red')
        """
        return tuple(sorted(self._entries))
