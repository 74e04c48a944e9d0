"""Reference reader of set notation, independent of the package under test.

A plain recursive-descent reader, one character at a time, of the
grammar that ``hardysets.parse_set`` documents: ``{elem,...}`` with
atoms as identifiers, ``{}`` or ``∅`` for the empty set, whitespace
anywhere between tokens. It keeps nothing between tokens beyond the
call stack, so it never reuses text. Values are frozensets with atom
labels as bare strings, as in ``expansion_oracle``; :func:`render`
writes them in the package's canonical order. Errors carry the same
UTF-8 byte offset and expected-token text as the package's.
"""

import functools
import string

IDENT_START = frozenset(string.ascii_letters)
IDENT_REST = frozenset(string.ascii_letters + string.digits + "_")
MEMBER = "a set or an atom identifier"


class OracleParseError(ValueError):
    def __init__(self, byte_offset, expected):
        self.byte_offset = byte_offset
        self.expected = expected
        super().__init__(f"parse error at byte {byte_offset}: expected {expected}")


def _error(text, pos, expected):
    return OracleParseError(len(text[:pos].encode("utf-8")), expected)


def _token(text, i):
    """(token, start, end) of the token after the whitespace at ``i``.

    The token is None where the text ends or has a character that starts
    no token; ``start`` is then where that character (or the end) is.
    """
    while i < len(text) and text[i].isspace():
        i += 1
    if i == len(text):
        return None, i, i
    if text[i] in "{},∅":
        return text[i], i, i + 1
    if text[i] in IDENT_START:
        j = i + 1
        while j < len(text) and text[j] in IDENT_REST:
            j += 1
        return text[i:j], i, j
    return None, i, i


def parse_prefix(text, pos):
    """(value, end) of the one literal at ``text[pos]``, after whitespace."""
    token, start, end = _token(text, pos)
    if token == "∅":
        return frozenset(), end
    if token != "{":
        raise _error(text, start, "'{' or '∅'")
    return _set_after_brace(text, end)


def parse(text):
    """The value of ``text``, which must hold one literal and nothing else."""
    value, end = parse_prefix(text, 0)
    token, start, _ = _token(text, end)
    if start != len(text):
        raise _error(text, start, "end of input")
    return value


def _set_after_brace(text, pos):
    token, _, end = _token(text, pos)
    if token == "}":
        return frozenset(), end
    members = []
    while True:
        value, pos = _member(text, pos)
        members.append(value)
        token, start, end = _token(text, pos)
        if token == "}":
            return frozenset(members), end
        if token != ",":
            raise _error(text, start, "',' or '}'")
        pos = end


def _member(text, pos):
    token, start, end = _token(text, pos)
    if token == "{":
        return _set_after_brace(text, end)
    if token == "∅":
        return frozenset(), end
    if token is not None and token[0] in IDENT_START:
        return token, end
    raise _error(text, start, MEMBER)


@functools.cache
def key(x):
    """Canonical order: atoms first, by label; sets by size, then by sorted members."""
    if isinstance(x, str):
        return (0, x)
    return (1, len(x), tuple(sorted(key(c) for c in x)))


@functools.cache
def render(x):
    if isinstance(x, str):
        return x
    return "{" + ",".join(render(c) for c in sorted(x, key=key)) + "}"
