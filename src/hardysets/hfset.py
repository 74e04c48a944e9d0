"""Hereditarily finite sets over atom urelements, hash-consed.

A value is either an atom (an opaque identifier) or a finite set of
values. Sets are kept in canonical form: members are deduplicated and
stored in a fixed total order, so every value has exactly one textual
rendering.

Every value is interned (hash-consing): the module keeps one node per
distinct value, in one weak table keyed by the atom label (a ``str``) or
by the canonical tuple of a set's members (a ``tuple``). Two equal
values are therefore the same object, so equality and hashing are object
identity, and building a node costs O(members) however deep the values
below it are. Nodes come only from :func:`atom`, :func:`empty`,
:func:`set_of`, the set algebra and the parser, and each of them goes
through one function, ``_intern``, the only caller of ``HfSet(key)``;
``HfSet(...)`` is not a public constructor. A node lives as long as
something refers to it, and its table entry goes with it. The numeral
towers, whose level tuples are canonical by construction, go to the
table without a sort, and the von Neumann loop returns every level it
builds.

The canonical order puts atoms before set nodes, compares atoms by
label, and compares set nodes by cardinality first and then childwise.
It is an internal representation contract; it exists to make
serialization deterministic across runs.

No function here recurses over a value. Rank and printed length are
cached at construction; printing, parsing and the canonical order run
as loops, so nesting depth is bounded by memory, not by Python's
recursion limit. The one bound is on size: a value that would print
more than :data:`MAX_PRINT_CHARS` characters is refused when it would
be built, with :class:`ValueTooLarge`.

The parser scans the text a character at a time and calls a regular
expression only where an identifier starts or whitespace runs. At a
closing brace it looks the members up in the intern table as read,
before any sort: printed text lists them in canonical order, so reading
back the text of a live value finds every node there and sorts nothing.

Printing and parsing both exploit shared structure. The printer writes
the text of a node that is a member of several nodes once and reuses
it. The parser reads a repeated sub-literal once: within one call, after
a ``,`` it compares the text ahead with the source of the set node that
followed the same member in a set already read twice, and takes the
node whole on a match (see :func:`parse_set_prefix`). Failed comparisons
are charged to a budget of the input's length, so parsing stays linear
in the input whatever the text, and the printed ``vn(n)``, 2^(n+1) - 1
characters over a one-letter atom, is read in O(n^2) tokens.

Atoms are memberless: membership queries against an atom are false, and
applying set algebra (union, intersection, cardinality, monadic union)
directly to an atom raises :class:`AtomOperand`. Intersection and the
check suites' unchecked ``_difference`` keep a subsequence of the first
operand's members, canonical as it stands. Parse and ``eval`` errors
point at the UTF-8 byte offset ``_byte_offset`` gives for a position.
"""

from __future__ import annotations

import re
import weakref
from itertools import pairwise, repeat
from operator import attrgetter
from typing import Iterable

__all__ = [
    "MAX_PRINT_CHARS",
    "AtomOperand",
    "HfSet",
    "ParseError",
    "ValueTooLarge",
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

# Largest printed length of any value: 2^26 characters, about 21 times the
# 3,145,727 of vn(20) over a three-letter atom. For n >= 1, vn(n) over a
# base that prints L characters prints (L + 3) * 2^(n-1) - 1, so vn(25, a)
# (2^26 - 1 characters) is the highest von Neumann numeral of any base.
MAX_PRINT_CHARS = 1 << 26

# Keys of nodes of at least this rank compare by a loop (_DeepKey). Below
# it, C compares the nested key tuples, one level of its recursion limit
# per rank.
_DEEP_RANK = 100

# An identifier (an atom label; in cli, also a function name) starts with
# one of _LETTERS. \s is str.isspace.
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_SPACE = re.compile(r"\s*")


class AtomOperand(TypeError):
    """A set-algebra operation was applied to an atom."""


class ValueTooLarge(ValueError):
    """A value would print more than :data:`MAX_PRINT_CHARS` characters."""


class ParseError(ValueError):
    """Malformed set notation.

    ``byte_offset`` is the UTF-8 byte position of the failure and
    ``expected`` describes the token class that would have been legal.
    """

    def __init__(self, byte_offset: int, expected: str) -> None:
        self.byte_offset = byte_offset
        self.expected = expected
        super().__init__(f"parse error at byte {byte_offset}: expected {expected}")


class _DeepKey(tuple):
    """Canonical key of a node whose rank is at least ``_DEEP_RANK``.

    Comparing nested tuples recurses in C once per level and raises
    RecursionError past the recursion limit; a deep key compares by the
    loop of :func:`_compare_keys` instead.
    """

    __slots__ = ()

    def __lt__(self, other):
        return _compare_keys(self, other) < 0

    def __le__(self, other):
        return _compare_keys(self, other) <= 0

    def __gt__(self, other):
        return _compare_keys(self, other) > 0

    def __ge__(self, other):
        return _compare_keys(self, other) >= 0


def _compare_keys(x: tuple, y: tuple) -> int:
    """-1, 0 or 1 as key ``x`` sorts before, with or after key ``y``.

    Keys are ``(0, label)`` or the flat ``(1, cardinality, *member keys)``.
    Two sets of equal cardinality are ordered by their first differing
    members; since members are interned, that is the first pair of keys
    that are not the same object, and the loop descends into it.
    """
    while x is not y:
        if type(x) is tuple and type(y) is tuple:
            return -1 if x < y else 1
        if x[:2] != y[:2]:
            return -1 if x[:2] < y[:2] else 1
        x, y = next((a, b) for a, b in zip(x[2:], y[2:]) if a is not b)
    return 0


class HfSet:
    """Immutable hereditarily finite set or atom, interned.

    There is one node per value, so ``==`` and ``hash`` are those of the
    object identity. Values are made by :func:`atom`, :func:`empty`,
    :func:`set_of`, the set algebra and :func:`parse_set`; calling
    ``HfSet(...)`` directly would make a second node for a value and is
    not supported. ``__init__`` runs once per new value, called by
    ``_intern`` with the value's table key: an atom label (a ``str``) or
    a canonical member tuple. It caches the canonical key, the rank and
    the printed length.
    """

    __slots__ = ("_label", "_children", "_key", "_rank", "_chars", "__weakref__")

    def __init__(self, key: str | tuple) -> None:
        # Only _intern calls this, with an atom label or a set's member
        # tuple, deduplicated and in canonical order.
        if isinstance(key, str):
            if not _IDENT.fullmatch(key):
                raise ValueError(
                    f"invalid atom label {key!r}: need a letter followed by "
                    "letters, digits or underscores"
                )
            label, children = key, None
            sort_key: tuple = (0, key)
            rank = 0
            chars = len(key)
        else:
            # One pass over the members gives the flat key (1, n, *member
            # keys), the rank and the printed length: braces, n - 1 commas
            # and the members.
            label, children = None, key
            n = len(children)
            keys = [1, n]
            rank = 0
            chars = n + 1 if n else 2
            for c in children:
                keys.append(c._key)
                chars += c._chars
                if c._rank >= rank:
                    rank = c._rank + 1
            sort_key = _DeepKey(keys) if rank >= _DEEP_RANK else tuple(keys)
        if chars > MAX_PRINT_CHARS:
            raise ValueTooLarge(
                f"value too large: it would print {chars} characters, "
                f"more than the limit of {MAX_PRINT_CHARS}"
            )
        self._label = label
        self._children = children
        self._key = sort_key
        self._rank = rank
        self._chars = chars

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

    def __lt__(self, other: "HfSet") -> bool:
        # Canonical total order: atoms first, atoms by label, sets by
        # (cardinality, childwise). Realized by the key tuples.
        if not isinstance(other, HfSet):
            return NotImplemented
        return self._key < other._key

    def __repr__(self) -> str:
        return print_set(self)

    def __reduce__(self):
        # Copies and unpickled values are looked up in the intern table
        # too, so they stay the one node of their value.
        if self._children is None:
            return (atom, (self._label,))
        return (set_of, (self._children,))


_key_of = attrgetter("_key")


class _Ref(weakref.ref):
    """Weak reference to an interned node that remembers its table key."""

    __slots__ = ("key",)


# The intern table: atom label (a str) or canonical member tuple (a
# tuple) -> weak reference to the one node of that value. The two kinds
# of key never compare equal, so atoms and sets share the table. The
# reference's callback removes the entry when the node is freed.
_NODES: dict[str | tuple, _Ref] = {}


def _intern(key: str | tuple) -> HfSet:
    """The node of an atom label or a canonical member tuple, made on first use."""
    ref = _NODES.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = HfSet(key)
    ref = _NODES[key] = _Ref(node, _forget)
    ref.key = key
    return node


def _forget(ref: _Ref) -> None:
    if _NODES.get(ref.key) is ref:
        del _NODES[ref.key]


def _canonical(members: Iterable[HfSet]) -> HfSet:
    """The set node of ``members``, given in any order and with repeats.

    The order-keeping de-duplication leaves the sorted runs of a union
    or a parse for timsort; zero or one member needs no sort.
    """
    kids = dict.fromkeys(members)
    return _intern(tuple(sorted(kids, key=_key_of)) if len(kids) > 1 else tuple(kids))


_EMPTY = _intern(())


def canonical_key(s: HfSet) -> tuple:
    """Sort key realizing the canonical total order on values.

    ``(0, label)`` for an atom; the flat ``(1, cardinality, *member keys)``
    for a set node, its members' keys in canonical order.
    """
    return s._key


def empty() -> HfSet:
    """The empty set."""
    return _EMPTY


def atom(label: str) -> HfSet:
    """An atom with the given identifier label."""
    if not isinstance(label, str):
        raise TypeError(f"atom label must be a str, got {type(label).__name__}")
    return _intern(label)


def set_of(children: Iterable[HfSet]) -> HfSet:
    """The set of the given values, canonicalized."""
    kids = tuple(children)
    if not all(map(isinstance, kids, repeat(HfSet))):
        bad = next(c for c in kids if not isinstance(c, HfSet))
        raise TypeError(f"set members must be HfSet values, got {type(bad).__name__}")
    return _canonical(kids)


def _von_neumann_tower(base: HfSet, n: int) -> list[HfSet]:
    """Levels 0..n of the von Neumann numerals on ``base``, an atom or ∅.

    Level k + 1 is the set of levels 0..k, and that tuple is canonical as
    it stands: the base sorts first (an atom before every set node, ∅ as
    the one set of cardinality 0) and level k has k members, so the
    cardinality-first key ascends along it. Each level therefore goes to
    the intern table without the sort and member checks of :func:`set_of`.
    Levels 0..n are the members of level n + 1, which is not built. The
    caller (:mod:`hardysets.numerals`, :mod:`hardysets.hardy`) has
    checked ``base`` and ``n``.
    """
    levels = [base]
    for _ in range(n):
        levels.append(_intern(tuple(levels)))
    return levels


def _zermelo_tower(base: HfSet, n: int) -> HfSet:
    """Level ``n`` of the Zermelo numerals on ``base``: ``n`` nested singletons.

    A one-member tuple is canonical, so each level goes to the intern
    table directly, as in :func:`_von_neumann_tower`.
    """
    current = base
    for _ in range(n):
        current = _intern((current,))
    return current


def equals(a: HfSet, b: HfSet) -> bool:
    """Extensional equality (order- and duplication-insensitive)."""
    _check_value(a)
    _check_value(b)
    return a is b


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
    return _canonical(a._children + b._children)  # type: ignore[operator]


def intersect(a: HfSet, b: HfSet) -> HfSet:
    """Binary intersection of two set nodes."""
    _check_set(a, "intersect")
    _check_set(b, "intersect")
    return _kept_members(a, b, True)


def _difference(a: HfSet, b: HfSet) -> HfSet:
    return _kept_members(a, b, False)


def _kept_members(a: HfSet, b: HfSet, keep: bool) -> HfSet:
    bk = set(b._children)  # type: ignore[arg-type]
    # A subsequence of a's members is already canonical.
    return _intern(tuple([c for c in a._children if (c in bk) is keep]))  # type: ignore[union-attr]


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
    return _canonical(gathered)


def rank(s: HfSet) -> int:
    """Nesting depth: 0 for atoms and the empty set, else 1 + max child rank."""
    _check_value(s)
    return s._rank


def print_set(s: HfSet) -> str:
    """Deterministic canonical rendering; inverse of :func:`parse_set`.

    Each set node that is a member of two or more nodes of ``s`` is
    rendered once and its text reused; every other node is written out
    where it occurs. The work is linear in the printed length.
    """
    _check_value(s)
    # Pass 1: how many distinct nodes under s have each set node as a member.
    parents: dict[HfSet, int] = {}
    stack = [s]
    while stack:
        for c in stack.pop()._children or ():
            if c._children is None:
                continue
            if c in parents:
                parents[c] += 1
            else:
                parents[c] = 1
                stack.append(c)
    # Pass 2: write the text in order. The stack holds nodes still to
    # write, literal pieces, and (node, start) marks that close a shared
    # node: its pieces out[start:] are joined once and kept in `shared`.
    shared: dict[HfSet, str] = {}
    out: list[str] = []
    todo: list = [s]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
        elif type(item) is tuple:
            node, start = item
            text = "".join(out[start:])
            del out[start:]
            out.append(text)
            shared[node] = text
        elif item._label is not None:
            out.append(item._label)
        elif item in shared:
            out.append(shared[item])
        else:
            if parents.get(item, 1) > 1:
                todo.append((item, len(out)))
            todo.append("}")
            for kid in reversed(item._children):
                todo.append(kid)
                todo.append(",")
            if item._children:
                todo.pop()  # no comma before the first member
            todo.append("{")
    return "".join(out)


# Parser states: what the next token may be.
_START, _FIRST, _NEXT, _AFTER = range(4)  # literal, '}' or member, member, ',' or '}'
# What each state's error says was expected.
_EXPECTED = ("'{' or '∅'", "a set or an atom identifier", "a set or an atom identifier",
             "',' or '}'")


def parse_set(text: str) -> HfSet:
    """Parse set notation: ``{elem,...}`` with atoms as identifiers.

    ``{}`` and the character ``∅`` both denote the empty set; whitespace
    is insignificant. Raises :class:`ParseError` on malformed input.
    """
    value, end = parse_set_prefix(text, 0)
    end = _SPACE.match(text, end).end()  # type: ignore[union-attr]
    if end != len(text):
        raise ParseError(_byte_offset(text, end), "end of input")
    return value


def parse_set_prefix(text: str, pos: int) -> tuple[HfSet, int]:
    """Parse one set literal starting at ``text[pos]``, after optional whitespace.

    Returns the value and the position just past its closing brace (or
    its ``∅``); what follows is left to the caller. Used by expression
    readers that embed set literals. The ``byte_offset`` of a
    :class:`ParseError` counts from the start of ``text``.

    The text is scanned a character at a time: ``{``, ``}``, ``,`` and
    ``∅`` are tokens of one character, a letter starts an identifier,
    and only where the text has whitespace is a run of it skipped.

    A set is looked up by its member tuple, as read, before it is
    sorted. Printed text lists members in canonical order, so a set that
    is still live is found in the intern table as it stands; only text in
    another order, with repeats, or of a new value goes to the sort. A
    tuple that is a key of the table is that node's member tuple, so the
    lookup cannot find a wrong node.

    A repeated sub-literal is read once. For the length of one call the
    parser keeps the text each set node was first read from, and, for
    each set read a second time, which member followed which among its
    members. After a ``,`` whose preceding member has such a follower
    with a kept text, text that starts (after whitespace) with that
    source is taken as the follower by one string comparison, and the
    scan resumes past it. Exactly that text has already parsed to that
    node, so the value, the end position and every error are those of
    reading it token by token. A failed comparison is charged the length
    of the source; once the charges reach ``len(text) - pos`` characters,
    the parser stops predicting. The extra work is thus a few dict and
    list operations per token, and O(input) character comparisons,
    whatever the text. A printed ``vn(n)``, which repeats level k
    2^(n-k-1) times, is read in O(n^2) tokens.
    """
    # Members read so far, and the offset of the '{', one each per set not
    # yet closed.
    open_sets: list[list[HfSet]] = []
    starts: list[int] = []
    # Set node -> the text it was first read from, as (start, end) offsets
    # until the first comparison slices it. Only sets written with braces
    # and read after a comma are kept: a source ends with a whole token,
    # and only a member after a comma is ever predicted.
    sources: dict[HfSet, tuple[int, int] | str] = {}
    # Member -> the member that followed it in a set read twice. Learning
    # only from sets that repeat keeps it off the path of text that does not.
    follower: dict[HfSet, HfSet] = {}
    # A negative start counts from 0, as it does for a regular expression.
    pos = max(pos, 0)
    budget = len(text) - pos
    find = _NODES.get
    state = _START
    while True:
        # The character at pos, or "" at the end of the text, which every
        # state rejects.
        try:
            c = text[pos]
        except IndexError:
            c = ""
        if c == "{":
            if state == _AFTER:
                break
            open_sets.append([])
            starts.append(pos)
            pos += 1
            state = _FIRST
            continue
        elif c == "}":
            if state == _AFTER:
                members = open_sets.pop()
                pos += 1
                ref = find(tuple(members))
                if ref is None or (value := ref()) is None:
                    value = _canonical(members)
                start = starts.pop()
                if value in sources:
                    follower.update(pairwise(members))
                elif open_sets and open_sets[-1]:
                    sources[value] = (start, pos)
            elif state == _FIRST:
                open_sets.pop()
                starts.pop()
                pos += 1
                value = _EMPTY
            else:
                break
        elif c == ",":
            if state != _AFTER:
                break
            pos += 1
            state = _NEXT
            # `value` is the member before this comma.
            if budget > 0 and (value := follower.get(value)) is not None:
                source = sources.get(value)
                if source is not None:
                    if type(source) is tuple:
                        source = sources[value] = text[source[0]:source[1]]
                    if text[pos:pos + 1].isspace():
                        pos = _SPACE.match(text, pos).end()  # type: ignore[union-attr]
                    if text.startswith(source, pos):
                        # The follower matched: it is the next member, read whole.
                        pos += len(source)
                        open_sets[-1].append(value)
                        state = _AFTER
                    else:
                        budget -= len(source)
            continue
        elif c in _LETTERS:
            if state == _START or state == _AFTER:
                break
            m = _IDENT.match(text, pos)
            value = _intern(m[0])  # type: ignore[index]
            pos = m.end()  # type: ignore[union-attr]
        elif c == "∅":
            if state == _AFTER:
                break
            pos += 1
            value = _EMPTY
        elif c.isspace():
            pos = _SPACE.match(text, pos).end()  # type: ignore[union-attr]
            continue
        else:
            break
        # A value is complete: the whole literal, or the next member.
        if not open_sets:
            return value, pos
        open_sets[-1].append(value)
        state = _AFTER
    raise ParseError(_byte_offset(text, pos), _EXPECTED[state])


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _check_value(s: HfSet) -> None:
    if not isinstance(s, HfSet):
        raise TypeError(f"expected an HfSet value, got {type(s).__name__}")


def _check_set(s: HfSet, op: str) -> None:
    _check_value(s)
    if s._children is None:
        raise AtomOperand(f"{op} requires a set, got atom '{s._label}'")
