"""The set-literal parser: against a reference reader, and its cost on shared text.

``parse_set_prefix`` reads a repeated sub-literal by one string
comparison instead of token by token. These tests check that this never
changes a result (value, end offset, error offset and expectation, all
compared with the package-free reader of ``parser_oracle``), that shared
text is read in work proportional to its distinct set nodes, and that
text which defeats the prediction costs no more than before. The last
section checks the member-tuple lookup: printed text of a live value is
never sorted, and members in any other order still read as the
canonical node.
"""

import random
import time
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given

import parser_oracle as oracle
from conftest import hf_values
from hardysets import (
    ParseError,
    atom,
    checks,
    empty,
    hfset,
    parse_set,
    parse_set_prefix,
    print_set,
    set_of,
    unite,
    von_neumann,
    zermelo,
)


def package_outcome(text, pos=None):
    """What ``parse_set`` (pos None) or ``parse_set_prefix`` makes of ``text``."""
    try:
        if pos is None:
            value, end = parse_set(text), None
        else:
            value, end = parse_set_prefix(text, pos)
    except ParseError as exc:
        return ("error", exc.byte_offset, exc.expected)
    return ("value", print_set(value), end)


def oracle_outcome(text, pos=None):
    try:
        if pos is None:
            value, end = oracle.parse(text), None
        else:
            value, end = oracle.parse_prefix(text, pos)
    except oracle.OracleParseError as exc:
        return ("error", exc.byte_offset, exc.expected)
    return ("value", oracle.render(value), end)


def assert_same_reading(text, pos):
    assert package_outcome(text) == oracle_outcome(text), text
    assert package_outcome(text, pos) == oracle_outcome(text, pos), (text, pos)


# --- inputs ----------------------------------------------------------------

TOKENS = ["{", "}", ",", "∅", "{}", "a", "b", "q07", "q07x", "x_1",
          " ", "\t", "\n", " ", "\x1c", "1", "#", "é"]
token_texts = st.lists(st.sampled_from(TOKENS), max_size=30).map("".join)


@st.composite
def shared_values(draw):
    """A set whose members share sub-values, so its text repeats sub-literals."""
    pool = draw(st.lists(hf_values, min_size=1, max_size=3))
    pool.append(draw(st.builds(von_neumann, st.integers(0, 7), st.just(atom("a")) | st.just(empty()))))
    for _ in range(draw(st.integers(1, 4))):
        pool.append(set_of(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))))
    return set_of(pool[-3:])


def spaced(text, draw):
    """``text`` with whitespace at a few drawn places, often inside one copy of a repeat."""
    places = draw(st.lists(st.integers(0, len(text)), max_size=3))
    for i in sorted(places, reverse=True):
        text = text[:i] + draw(st.sampled_from([" ", "\n", " "])) + text[i:]
    return text


def with_empty_signs(text, draw):
    """``text`` with some of its ``{}`` written as ``∅``."""
    pieces = text.split("{}")
    out = pieces[0]
    for piece in pieces[1:]:
        out += draw(st.sampled_from(["{}", "∅"])) + piece
    return out


@st.composite
def printed_texts(draw):
    text = print_set(draw(shared_values()))
    if draw(st.booleans()):
        text = spaced(text, draw)
    if draw(st.booleans()):
        text = with_empty_signs(text, draw)
    return text


# An atom's text is a prefix of a longer atom's: a prediction must never
# take "q" out of "qx", nor "{q}" out of "{q}x". A set read twice after a
# comma, such as {p,q} below, teaches the parser that q follows p.
TRAP_MEMBERS = ["p", "q", "qx", "q1", "{p,q}", "{p,qx}", "{p,{q}}", "{p,{q}x}", "{q}", "{q}x", "∅"]
trap_texts = st.lists(st.sampled_from(TRAP_MEMBERS), min_size=1, max_size=8).map(
    lambda members: "{" + ",".join(members) + "}"
)
TRAPS = [
    "{x,{p,q},{p,q},p,qx}",
    "{x,{p,q},{p,q},{p,qx}}",
    "{x,{p,{q}},{p,{q}},p,{q}x}",
    "{x,{p,{q}},{p,{q}},{p,{q}x}}",
    "{x,{p,{q}},{p,{q}},p, {q},p,{q}}",
]


@pytest.mark.parametrize("text", TRAPS)
def test_atom_prefix_traps(text):
    for pos in range(len(text) + 1):
        assert_same_reading(text, pos)


@st.composite
def texts_and_positions(draw, texts):
    text = draw(texts)
    prefix = draw(st.sampled_from(["", " ", "f(", "∅ ", "union({a},"]))
    text = prefix + text + draw(st.sampled_from(["", ")", ",{}", " x", "}"]))
    pos = draw(st.one_of(st.just(len(prefix)), st.integers(0, len(text))))
    return text, pos


@given(texts_and_positions(token_texts))
def test_random_token_strings_read_as_the_reference_reads_them(case):
    assert_same_reading(*case)


@given(texts_and_positions(printed_texts()))
def test_printed_shared_values_read_as_the_reference_reads_them(case):
    assert_same_reading(*case)


@given(texts_and_positions(trap_texts))
def test_atom_prefix_traps_read_as_the_reference_reads_them(case):
    assert_same_reading(*case)


def test_whitespace_inside_one_copy_of_a_repeat():
    text = print_set(von_neumann(6, atom("a")))
    copies = [i for i in range(len(text)) if text.startswith("{a,{a}}", i)]
    assert len(copies) > 2
    for i in copies:
        for spaced_text in (text[:i + 3] + " " + text[i + 3:], text[:i + 3] + " x" + text[i + 3:]):
            for pos in (0, i, i + 1):
                assert_same_reading(spaced_text, pos)


# --- cost on shared text ---------------------------------------------------


@pytest.fixture
def parse_closes(monkeypatch):
    """Counts the sets the parser sorts.

    A set read token by token is looked up by its member tuple as read,
    and sorted by ``_canonical`` only when that tuple is not in the
    intern table; a set read whole by a prediction is not closed again.
    So on text whose sets are all new, this is the number of non-empty
    sets closed token by token, and on the printed text of a live value
    it is zero.
    """
    calls = []
    original = hfset._canonical

    def counting(members):
        calls.append(len(members))
        return original(members)

    monkeypatch.setattr(hfset, "_canonical", counting)
    return calls


class ExaminedText(str):
    """A text that counts the characters the scanner takes from it by index or slice."""

    def __getitem__(self, index):
        self.examined += 1
        return str.__getitem__(self, index)


def set_nodes(value):
    """The distinct set nodes of ``value``, itself included."""
    seen, stack = {value}, [value]
    while stack:
        for child in stack.pop().children:
            if not child.is_atom and child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


def wings(depth):
    x1, x2, x3, x4 = (atom(f"x{i}") for i in range(1, 5))
    return unite(unite(von_neumann(depth, x1), von_neumann(depth, x2)),
                 unite(zermelo(depth, x3), zermelo(depth, x4)))


def comb(depth, leaf):
    """``{a,{a,...{a,leaf}...}}``, ``depth`` sets deep."""
    return "{a," * depth + leaf + "}" * depth


@pytest.mark.parametrize("value", [von_neumann(16, atom("a")), wings(14)], ids=["vn16", "wings14"])
def test_shared_text_closes_o_distinct_nodes(parse_closes, value):
    text = ExaminedText(print_set(value))
    text.examined = 0
    parse_closes.clear()
    assert parse_set(text) is value
    # The value is live and its text is in canonical order, so every set
    # is found in the intern table and none is sorted.
    assert parse_closes == []
    # Token by token, the scan takes each of the text's characters, and
    # vn(16) alone closes 2^15 sets. The predictions leave a few hundred
    # characters per distinct node, under 2.5% of these texts.
    assert text.examined <= len(text) // 40


def test_two_combs_close_every_set_token_by_token(parse_closes):
    # No set is read twice, so nothing is predicted: every set is closed
    # token by token, as many closes as token-by-token reading makes. All
    # of them are new nodes, so each close sorts.
    depth = 20000
    text = "{" + comb(depth, "c") + "," + comb(depth, "d") + "}"
    value = parse_set(text)
    assert len(parse_closes) == 2 * depth + 1
    assert len(set_nodes(value)) == 2 * depth + 1


class ComparingText(str):
    """A text that adds up how many characters its ``startswith`` calls may compare."""

    def startswith(self, prefix, *args):
        self.compared += len(prefix)
        return str.startswith(self, prefix, *args)


def test_failed_predictions_stay_within_the_budget():
    # The first comb, read twice, teaches the parser that the comb one
    # level down follows "a". Then every "a," of the third comb predicts
    # it, and the text ahead matches until the leaf, about 3 * depth
    # characters later; the closing braces after it pass the first- and
    # last-character tests of str.startswith. Unbudgeted, the sources
    # compared against add up to about 4 * depth^2 characters.
    depth = 20000
    text = ComparingText("{" + comb(depth, "c") + "," + comb(depth, "c") + ","
                         + comb(depth, "∅") + "}" * (5 * depth))
    text.compared = 0
    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse_set(text)
    seconds = time.perf_counter() - start
    assert exc.value.expected == "end of input"
    assert text.compared <= 2 * len(text)
    # Read token by token, this text takes about 0.7 s on a 2-vCPU Xeon.
    # At this depth, comparing in C, an unbudgeted parser is only about
    # twice as slow, so the count above is the sharp check.
    assert seconds < 10.0


def test_peak_memory_of_a_deep_numeral_is_a_small_multiple_of_its_text():
    value = von_neumann(20, atom("q07"))
    text = print_set(value)
    assert len(text) == 3_145_727
    tracemalloc.start()
    try:
        assert parse_set(text) is value
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The kept sources are slices of the text, one byte per character here;
    # those of vn(1)..vn(18) add up to about an eighth of it.
    assert peak < len(text)


# --- the member-tuple lookup -----------------------------------------------


def test_printed_text_of_live_values_is_never_sorted(parse_closes):
    rng = random.Random(42)
    values = [checks.random_hfset(rng) for _ in range(1000)]
    values += [von_neumann(12, atom("q07")), wings(6), set_of([atom("b"), atom("a")])]
    parse_closes.clear()
    for value in values:
        assert parse_set(print_set(value)) is value
    assert parse_closes == []


@pytest.mark.parametrize("text, members, sorts", [
    ("{b,a,a}", "ab", [3]),
    ("{{a},a}", ["a", "{a}"], [2]),
    ("{ b , a }", "ab", [2]),
    ("{a,b}", "ab", []),
    ("{a, b}", "ab", []),
])
def test_unprinted_order_reads_as_the_canonical_node(parse_closes, text, members, sorts):
    # The canonical node is live, so its member tuple is in the intern
    # table; a tuple in another order or with repeats is not, and is sorted.
    value = set_of([parse_set(m) if m.startswith("{") else atom(m) for m in members])
    parse_closes.clear()
    assert parse_set(text) is value
    assert parse_closes == sorts
    assert print_set(value) == "{" + ",".join(members) + "}"


def test_unprinted_order_of_a_new_value_reads_as_its_canonical_node(parse_closes):
    value = parse_set("{{lookup_b},lookup_b,lookup_a,lookup_a}")
    assert parse_closes == [1, 4]
    assert print_set(value) == "{lookup_a,lookup_b,{lookup_b}}"
    assert parse_set("{lookup_a,lookup_b,{lookup_b}}") is value
    assert parse_closes == [1, 4]


def test_a_negative_start_reads_from_the_start_of_the_text():
    assert parse_set_prefix("{a}", -2) == (set_of([atom("a")]), 3)
    assert parse_set_prefix(" ∅x", -1) == (empty(), 2)
