"""Von Neumann and Zermelo numeral constructors.

Both systems start from a configurable base object (the empty set or an
atom) at level 0 and build upward: the von Neumann numeral at level n+1
collects every earlier level, the Zermelo numeral wraps the previous
level in a singleton. With an atom base the level-0 numeral *is* that
atom, so e.g. the level-1 numeral of atom x is {x}.

Levels above :data:`MAX_LEVEL` are refused with
:class:`~hardysets.hfset.ValueTooLarge`, before any node is built. The
von Neumann numerals meet the printed-length bound of ``hfset`` long
before that: they double in length with each level, so vn(26) is
refused as it is built, whatever its base.

Both towers are built by :mod:`hardysets.hfset`, which owns the
canonical order: each level's member tuple is canonical as it stands,
so it skips the sort and member checks of
:func:`~hardysets.hfset.set_of`. This module checks the level and the
base first; of the levels the von Neumann loop returns, it takes the top.
"""

from __future__ import annotations

from .hfset import HfSet, ValueTooLarge, _von_neumann_tower, _zermelo_tower, empty

__all__ = ["MAX_LEVEL", "numeral", "von_neumann", "zermelo"]

# Highest numeral level. zm(n) prints just 2n characters plus its base,
# far below hfset.MAX_PRINT_CHARS, but builds one node of a few hundred
# bytes per level: zm(100000) takes about a second and under 100 MiB.
MAX_LEVEL = 100_000


def _check_base(base: HfSet | None) -> HfSet:
    if base is None:
        return empty()
    if not isinstance(base, HfSet):
        raise TypeError(f"numeral base must be an HfSet, got {type(base).__name__}")
    if not (base.is_atom or base == empty()):
        raise ValueError("numeral base must be the empty set or an atom")
    return base


def _check_level(n: int) -> None:
    if n < 0:
        raise ValueError("numeral level must be non-negative")
    if n > MAX_LEVEL:
        raise ValueTooLarge(f"numeral level {n} is above the limit of {MAX_LEVEL}")


def von_neumann(n: int, base: HfSet | None = None) -> HfSet:
    """Level-n von Neumann numeral: each level is the set of all earlier levels.

    Cardinality is n for n >= 1.
    """
    _check_level(n)
    return _von_neumann_tower(_check_base(base), n)[n]


def zermelo(n: int, base: HfSet | None = None) -> HfSet:
    """Level-n Zermelo numeral: each level is the singleton of the previous one.

    Cardinality is 1 for n >= 1.
    """
    _check_level(n)
    return _zermelo_tower(_check_base(base), n)


def numeral(system: str, n: int, base: HfSet | None = None) -> HfSet:
    """Dispatch on a system name: ``"vn"`` (von Neumann) or ``"zm"`` (Zermelo)."""
    if system == "vn":
        return von_neumann(n, base)
    if system == "zm":
        return zermelo(n, base)
    raise ValueError(f"unknown numeral system {system!r}: expected 'vn' or 'zm'")
