"""Hereditarily finite sets over atom urelements.

A value is either an atom (an opaque identifier) or a finite set of
values. Sets are kept in canonical form: members are deduplicated and
stored in a fixed total order, so structural equality coincides with
extensional equality and every value has exactly one textual rendering.

The canonical order puts atoms before set nodes, compares atoms by
label, and compares set nodes by cardinality first and then childwise.
It is an internal representation contract; it exists to make equality,
hashing and serialization deterministic across runs.

Atoms are memberless: membership queries against an atom are false, and
applying set algebra (union, intersection, cardinality, monadic union)
directly to an atom raises :class:`AtomOperand`.
"""

from __future__ import annotations

import re
from typing import Iterable

__all__ = [
    "AtomOperand",
    "HfSet",
    "ParseError",
    "atom",
    "canonical_key",
    "cardinality",
    "empty",
    "equals",
    "intersect",
    "member",
    "monadic_union",
    "parse_set",
    "parse_set_prefix",
    "print_set",
    "rank",
    "set_of",
    "unite",
]

_ATOM_LABEL = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class AtomOperand(TypeError):
    """A set-algebra operation was applied to an atom."""


class ParseError(ValueError):
    """Malformed set notation.

    ``byte_offset`` is the UTF-8 byte position of the failure and
    ``expected`` describes the token class that would have been legal.
    """

    def __init__(self, byte_offset: int, expected: str) -> None:
        self.byte_offset = byte_offset
        self.expected = expected
        super().__init__(f"parse error at byte {byte_offset}: expected {expected}")


class HfSet:
    """Immutable hereditarily finite set or atom with value semantics.

    Instances are created through :func:`atom`, :func:`empty`,
    :func:`set_of` or :func:`parse_set`; the constructor canonicalizes
    (dedup plus ordering), so any two extensionally equal values compare
    and hash identically.
    """

    __slots__ = ("_label", "_children", "_key", "_hash")

    def __init__(
        self,
        *,
        label: str | None = None,
        children: Iterable["HfSet"] | None = None,
    ) -> None:
        if (label is None) == (children is None):
            raise TypeError("construct with exactly one of label= or children=")
        if label is not None:
            if not _ATOM_LABEL.match(label):
                raise ValueError(
                    f"invalid atom label {label!r}: need a letter followed by "
                    "letters, digits or underscores"
                )
            self._label: str | None = label
            self._children: tuple[HfSet, ...] | None = None
            self._key: tuple = (0, label)
        else:
            kids = tuple(children)  # type: ignore[arg-type]
            for child in kids:
                if not isinstance(child, HfSet):
                    raise TypeError(
                        f"set members must be HfSet values, got {type(child).__name__}"
                    )
            unique = tuple(dict.fromkeys(kids))
            ordered = tuple(sorted(unique, key=lambda c: c._key))
            self._label = None
            self._children = ordered
            self._key = (1, len(ordered), tuple(c._key for c in ordered))
        self._hash = hash(self._key)

    @property
    def is_atom(self) -> bool:
        return self._label is not None

    @property
    def label(self) -> str | None:
        """Atom label, or None for set nodes."""
        return self._label

    @property
    def children(self) -> tuple["HfSet", ...]:
        """Canonical member tuple; raises :class:`AtomOperand` on atoms."""
        if self._children is None:
            raise AtomOperand(f"atom '{self._label}' has no members")
        return self._children

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, HfSet):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "HfSet") -> bool:
        # Canonical total order: atoms first, atoms by label, sets by
        # (cardinality, childwise). Realized by the nested key tuples.
        if not isinstance(other, HfSet):
            return NotImplemented
        return self._key < other._key

    def __repr__(self) -> str:
        return print_set(self)


_EMPTY = HfSet(children=())


def canonical_key(s: HfSet) -> tuple:
    """Sort key realizing the canonical total order on values."""
    return s._key


def empty() -> HfSet:
    """The empty set."""
    return _EMPTY


def atom(label: str) -> HfSet:
    """An atom with the given identifier label."""
    return HfSet(label=label)


def set_of(children: Iterable[HfSet]) -> HfSet:
    """The set of the given values, canonicalized."""
    return HfSet(children=children)


def equals(a: HfSet, b: HfSet) -> bool:
    """Extensional equality (order- and duplication-insensitive)."""
    _check_value(a)
    _check_value(b)
    return a == b


def member(a: HfSet, s: HfSet) -> bool:
    """True iff ``a`` is an element of ``s``; always false when ``s`` is an atom."""
    _check_value(a)
    _check_value(s)
    if s._children is None:
        return False
    return a in s._children


def unite(a: HfSet, b: HfSet) -> HfSet:
    """Binary union of two set nodes."""
    _check_set(a, "unite")
    _check_set(b, "unite")
    return HfSet(children=a._children + b._children)  # type: ignore[operator]


def intersect(a: HfSet, b: HfSet) -> HfSet:
    """Binary intersection of two set nodes."""
    _check_set(a, "intersect")
    _check_set(b, "intersect")
    bk = b._children
    return HfSet(children=(c for c in a._children if c in bk))  # type: ignore[union-attr,operator]


def cardinality(s: HfSet) -> int:
    """Number of elements of a set node."""
    _check_set(s, "cardinality")
    return len(s._children)  # type: ignore[arg-type]


def monadic_union(z: HfSet) -> HfSet:
    """Set of all members of members of ``z``.

    Atom children contribute nothing (they have no members); applying
    the operator directly to an atom is an error.
    """
    _check_set(z, "monadic_union")
    gathered: list[HfSet] = []
    for child in z._children:  # type: ignore[union-attr]
        if child._children is not None:
            gathered.extend(child._children)
    return HfSet(children=gathered)


def rank(s: HfSet) -> int:
    """Nesting depth: 0 for atoms and the empty set, else 1 + max child rank."""
    _check_value(s)
    return _rank(s)


def _rank(s: HfSet) -> int:
    if s._children is None or not s._children:
        return 0
    return 1 + max(_rank(c) for c in s._children)


def print_set(s: HfSet) -> str:
    """Deterministic canonical rendering; inverse of :func:`parse_set`."""
    _check_value(s)
    return _render(s)


def _render(s: HfSet) -> str:
    if s._label is not None:
        return s._label
    return "{" + ",".join(_render(c) for c in s._children) + "}"


def parse_set(text: str) -> HfSet:
    """Parse set notation: ``{elem,...}`` with atoms as identifiers.

    ``{}`` and the character ``∅`` both denote the empty set; whitespace
    is insignificant. Raises :class:`ParseError` on malformed input.
    """
    parser = _SetParser(text, 0)
    value = parser.parse_set()
    parser.expect_end()
    return value


def parse_set_prefix(text: str, pos: int) -> tuple[HfSet, int]:
    """Parse one set literal starting at ``text[pos]``, after optional whitespace.

    Returns the value and the position just past its closing brace (or
    its ``∅``); what follows is left to the caller. Used by expression
    readers that embed set literals. The ``byte_offset`` of a
    :class:`ParseError` counts from the start of ``text``.
    """
    parser = _SetParser(text, pos)
    value = parser.parse_set()
    return value, parser.pos


class _SetParser:
    __slots__ = ("text", "pos")

    def __init__(self, text: str, pos: int) -> None:
        self.text = text
        self.pos = pos

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _at(self, ch: str) -> bool:
        return self.pos < len(self.text) and self.text[self.pos] == ch

    def fail(self, expected: str) -> None:
        byte_offset = len(self.text[: self.pos].encode("utf-8"))
        raise ParseError(byte_offset, expected)

    def parse_set(self) -> HfSet:
        self._skip_ws()
        if not (self._at("{") or self._at("∅")):
            self.fail("'{' or '∅'")
        return self._literal()

    def _literal(self) -> HfSet:
        # The cursor is on '{' or '∅'; whitespace before it is already skipped.
        if self.text[self.pos] == "∅":
            self.pos += 1
            return _EMPTY
        self.pos += 1
        self._skip_ws()
        if self._at("}"):
            self.pos += 1
            return _EMPTY
        members = [self.parse_elem()]
        while True:
            self._skip_ws()
            if self._at(","):
                self.pos += 1
                members.append(self.parse_elem())
                continue
            if self._at("}"):
                self.pos += 1
                return HfSet(children=members)
            self.fail("',' or '}'")

    def parse_elem(self) -> HfSet:
        self._skip_ws()
        if self._at("{") or self._at("∅"):
            return self._literal()
        m = _IDENT.match(self.text, self.pos)
        if m is None:
            self.fail("a set or an atom identifier")
        self.pos = m.end()  # type: ignore[union-attr]
        return HfSet(label=m.group())  # type: ignore[union-attr]

    def expect_end(self) -> None:
        self._skip_ws()
        if self.pos != len(self.text):
            self.fail("end of input")


def _check_value(s: HfSet) -> None:
    if not isinstance(s, HfSet):
        raise TypeError(f"expected an HfSet value, got {type(s).__name__}")


def _check_set(s: HfSet, op: str) -> None:
    _check_value(s)
    if s._children is None:
        raise AtomOperand(f"{op} requires a set, got atom '{s._label}'")
