import ast
import copy
import gc
import pickle
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

from hardysets import hfset
from hardysets import (
    AtomOperand,
    ParseError,
    atom,
    cardinality,
    empty,
    equals,
    intersect,
    member,
    monadic_union,
    parse_set,
    parse_set_prefix,
    print_set,
    rank,
    set_of,
    unite,
    von_neumann,
    zermelo,
)
from hardysets.hfset import canonical_key

from conftest import hf_sets, hf_values


X1 = atom("x1")


def c2x1():
    return set_of([X1, set_of([X1])])


def test_empty_set_basics():
    assert cardinality(empty()) == 0
    assert equals(empty(), set_of([]))
    assert rank(empty()) == 0
    assert print_set(empty()) == "{}"


def test_set_of_dedupes_extensional_duplicates():
    s = set_of([empty(), empty()])
    assert cardinality(s) == 1
    assert s == set_of([empty()])


def test_set_of_orders_canonically():
    s = set_of([set_of([empty()]), empty()])
    assert print_set(s) == "{{},{{}}}"
    assert s == set_of([empty(), set_of([empty()])])


def test_set_of_builds_pair_with_atom_first():
    assert print_set(c2x1()) == "{x1,{x1}}"


def test_equality_is_order_insensitive():
    a = set_of([empty(), set_of([empty()])])
    b = set_of([set_of([empty()]), empty()])
    assert equals(a, b)


def test_unequal_sets():
    d2 = set_of([set_of([empty()])])
    c2 = set_of([empty(), set_of([empty()])])
    assert not equals(d2, c2)


def test_atom_never_equals_set():
    assert not equals(X1, set_of([X1]))
    assert atom("x1") == atom("x1")
    assert atom("x1") != atom("x2")


def test_atom_label_validation():
    with pytest.raises(ValueError):
        atom("1abc")
    with pytest.raises(ValueError):
        atom("")
    with pytest.raises(ValueError):
        atom("_x")
    assert atom("a_1").label == "a_1"


def test_member_in_pair():
    assert member(set_of([X1]), c2x1())
    assert member(X1, c2x1())


def test_member_of_atom_is_false():
    assert not member(X1, atom("x1"))
    assert not member(empty(), atom("x1"))


def test_member_shape_mismatch():
    c3 = von_neumann(3, X1)
    probe = set_of([set_of([X1])])  # {{x1}}: cardinality 1, but not {x1}
    assert not member(probe, c3)


def test_unite_identity_and_disjoint_sizes():
    s = c2x1()
    assert unite(empty(), s) == s
    u = unite(von_neumann(3, X1), zermelo(3, X1))
    assert cardinality(u) == 4


def test_unite_absorbs_subset():
    c2 = c2x1()
    d2 = zermelo(2, X1)
    assert unite(c2, d2) == c2


def test_unite_rejects_atoms():
    with pytest.raises(AtomOperand):
        unite(X1, empty())
    with pytest.raises(AtomOperand):
        unite(empty(), X1)


def test_intersect_examples():
    c2, d2 = c2x1(), zermelo(2, X1)
    assert intersect(c2, d2) == d2
    assert intersect(c2, empty()) == empty()
    assert intersect(von_neumann(3), zermelo(3)) == empty()


def test_cardinality_rejects_atoms():
    with pytest.raises(AtomOperand):
        cardinality(X1)


def test_monadic_union_examples():
    assert monadic_union(von_neumann(3, X1)) == c2x1()
    assert monadic_union(zermelo(3, X1)) == zermelo(2, X1)
    assert monadic_union(set_of([X1])) == empty()
    with pytest.raises(AtomOperand):
        monadic_union(X1)


def test_rank_examples():
    assert rank(zermelo(3, X1)) == 3
    assert rank(von_neumann(3, X1)) == 3
    assert rank(X1) == 0


def test_parse_examples():
    assert parse_set("{}") == empty()
    assert parse_set("∅") == empty()
    assert parse_set("{x1,{x1}}") == c2x1()
    assert parse_set("{{x1},x1}") == c2x1()
    assert parse_set(" { x1 , { x1 } } ") == c2x1()


def test_parse_error_offset_and_expectation():
    with pytest.raises(ParseError) as exc:
        parse_set("{x1,}")
    assert exc.value.byte_offset == 4
    assert "identifier" in exc.value.expected

    with pytest.raises(ParseError) as exc:
        parse_set("x1")
    assert exc.value.byte_offset == 0

    # '∅' is three UTF-8 bytes, so trailing garbage is reported at byte 3
    with pytest.raises(ParseError) as exc:
        parse_set("∅∅")
    assert exc.value.byte_offset == 3
    assert exc.value.expected == "end of input"

    with pytest.raises(ParseError) as exc:
        parse_set("{x1")
    assert exc.value.expected == "',' or '}'"


def test_parse_set_prefix_stops_after_one_literal():
    text = "f( {x1, ∅} ,x2)"
    assert parse_set_prefix(text, 2) == (set_of([X1, empty()]), 10)
    assert parse_set_prefix("∅∅", 0) == (empty(), 1)
    # the byte offset counts from the start of the text, not from pos
    with pytest.raises(ParseError) as exc:
        parse_set_prefix("∅ {x1 x2}", 1)
    assert exc.value.byte_offset == 8
    assert exc.value.expected == "',' or '}'"


def test_print_examples():
    assert print_set(c2x1()) == "{x1,{x1}}"
    assert print_set(zermelo(3, X1)) == "{{{x1}}}"


@given(hf_sets)
def test_roundtrip(s):
    assert parse_set(print_set(s)) is s


@given(hf_values)
def test_canonicalization_idempotent(s):
    if not s.is_atom:
        assert set_of(s.children) is s


@given(hf_values)
def test_copies_are_the_interned_node(s):
    assert copy.copy(s) is s
    assert copy.deepcopy(s) is s
    assert pickle.loads(pickle.dumps(s)) is s


@given(hf_values, hf_values)
def test_equal_iff_same_rendering(a, b):
    assert (a == b) == (print_set(a) == print_set(b))


def reference_key(s):
    """The canonical order, recursively and without the package's keys:
    atoms first, by label; sets by cardinality, then by their sorted members."""
    if s.is_atom:
        return (0, s.label)
    return (1, len(s.children), tuple(sorted(reference_key(c) for c in s.children)))


def reference_rank(s):
    if s.is_atom or not s.children:
        return 0
    return 1 + max(reference_rank(c) for c in s.children)


@given(st.lists(hf_values, max_size=8))
def test_canonical_key_order_matches_reference(values):
    assert sorted(values, key=canonical_key) == sorted(values, key=reference_key)


def flat_reference_key(s):
    """The documented key: ``(0, label)``, or ``(1, n, *member keys)``
    with the member keys in canonical order."""
    if s.is_atom:
        return (0, s.label)
    return (1, len(s.children), *sorted(flat_reference_key(c) for c in s.children))


@given(hf_values)
def test_canonical_key_is_flat(s):
    assert canonical_key(s) == flat_reference_key(s)


def test_canonical_key_order_across_the_deep_key_rank():
    # Ranks on both sides of the rank where keys start to compare by a loop.
    a, b = atom("a"), atom("b")
    values = [a, b, empty()]
    for n in (95, 99, 100, 101, 110):
        values += [zermelo(n, a), zermelo(n, b), set_of([zermelo(n, a), zermelo(n - 1, b)])]
        values.append(set_of([a, zermelo(n, b)]))
    values.reverse()
    assert all(canonical_key(v) == flat_reference_key(v) for v in values)
    assert sorted(values, key=canonical_key) == sorted(values, key=reference_key)
    assert [print_set(v) for v in sorted(values)] == [
        print_set(v) for v in sorted(values, key=reference_key)
    ]


@given(hf_values)
def test_cached_rank_matches_reference(s):
    assert rank(s) == reference_rank(s)


@given(hf_values)
def test_cached_printed_length_matches_the_text(s):
    # The length MAX_PRINT_CHARS is checked against, cached at construction.
    assert s._chars == len(print_set(s))


def test_numeral_creates_one_node_per_level(construct_calls):
    value = von_neumann(9, atom("fresh_count_probe"))
    assert len(construct_calls) == 10
    assert rank(value) == 9
    # While vn(n) lives, zm(n) over the same atom shares zm(1) = vn(1) with it.
    construct_calls.clear()
    assert rank(zermelo(9, atom("fresh_count_probe"))) == 9
    assert len(construct_calls) == 8
    for n in (1, 2, 5):
        construct_calls.clear()
        base = atom(f"fresh_count_probe{n}")
        value = von_neumann(n, base)
        assert rank(value) == n
        assert len(construct_calls) == n + 1
        construct_calls.clear()
        assert rank(zermelo(n, base)) == n
        assert len(construct_calls) == n - 1


def test_reparse_of_a_live_value_creates_no_node(construct_calls):
    value = von_neumann(12, atom("a"))
    text = print_set(value)
    construct_calls.clear()
    assert parse_set(text) is value
    assert construct_calls == []


def test_intern_tables_release_freed_values():
    def counts():
        # Atoms are keyed by their str label, set nodes by their member tuple.
        atoms = sum(type(key) is str for key in hfset._NODES)
        return atoms, len(hfset._NODES) - atoms

    gc.collect()
    atoms, sets = counts()
    tower = von_neumann(12, atom("fresh_leak_probe"))
    chain = zermelo(300, atom("other_probe"))
    value = unite(tower, chain)
    assert counts() == (atoms + 2, sets + 12 + 300 + 1)
    del tower, chain, value
    gc.collect()
    assert counts() == (atoms, sets)


def test_deep_values_round_trip():
    deep = zermelo(20000, atom("a"))
    text = print_set(deep)
    assert text == "{" * 20000 + "a" + "}" * 20000
    assert parse_set(text) is deep
    assert rank(deep) == 20000


HFSET_SOURCE = Path(hfset.__file__)
SRC = HFSET_SOURCE.parent


def self_calls(path):
    """Names of the functions in ``path`` that call themselves by name,
    directly or as a method of ``self``."""
    found = set()
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == fn.name:
                found.add(fn.name)
            elif (isinstance(callee, ast.Attribute) and callee.attr == fn.name
                  and isinstance(callee.value, ast.Name) and callee.value.id == "self"):
                found.add(fn.name)
    return found


def test_self_calls_sees_direct_and_method_recursion(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "def f(x):\n    return f(x - 1)\n"
        "class C:\n"
        "    def g(self):\n        return self.g()\n"
        "    def __init__(self):\n        super().__init__()\n"
        "def h(x):\n    return f(x)\n"
    )
    assert self_calls(source) == {"f", "g"}


def test_no_function_in_src_recurses():
    # Deep values must never reach Python's recursion limit: no function
    # of the package calls itself.
    sources = sorted(SRC.glob("*.py"))
    assert HFSET_SOURCE in sources
    found = {path.name: self_calls(path) for path in sources}
    assert {name: calls for name, calls in found.items() if calls} == {}


@given(hf_values, hf_values)
def test_equality_symmetric(a, b):
    assert (a == b) == (b == a)
    if a == b:
        assert hash(a) == hash(b)


@given(st.lists(hf_values, max_size=6), st.randoms(use_true_random=False))
def test_extensionality_under_permutation_and_duplication(children, rnd):
    shuffled = list(children) + children[:2]
    rnd.shuffle(shuffled)
    assert set_of(children) == set_of(shuffled)


@given(hf_sets, hf_sets)
def test_union_intersection_laws(a, b):
    assert unite(a, b) == unite(b, a)
    assert intersect(a, b) == intersect(b, a)
    assert unite(a, a) == a
    assert intersect(a, a) == a


@given(hf_sets, hf_sets, hf_sets)
def test_associativity(a, b, c):
    assert unite(a, unite(b, c)) == unite(unite(a, b), c)
    assert intersect(a, intersect(b, c)) == intersect(intersect(a, b), c)


@given(hf_sets, hf_sets)
def test_monadic_union_of_pair_is_binary_union(a, b):
    assert monadic_union(set_of([a, b])) == unite(a, b)


@given(hf_sets)
def test_members_are_children(s):
    for c in s.children:
        assert member(c, s)
    assert not member(atom("zz_fresh_probe"), s)


def test_set_of_rejects_a_non_value_member():
    with pytest.raises(TypeError, match="^set members must be HfSet values, got int$"):
        set_of([atom("a"), 3, empty()])
