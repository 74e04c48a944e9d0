import pytest

from hardysets import (
    ValueTooLarge,
    atom,
    cardinality,
    empty,
    intersect,
    monadic_union,
    numeral,
    parse_set,
    print_set,
    set_of,
    von_neumann,
    zermelo,
)

import expansion_oracle as oracle


BASES = [("empty", None), ("atom", atom("x1"))]


def test_level_three_shapes():
    assert parse_set("{{},{{}},{{},{{}}}}") == von_neumann(3)
    assert parse_set("{{{{}}}}") == zermelo(3)
    assert print_set(von_neumann(3, atom("x1"))) == "{x1,{x1},{x1,{x1}}}"
    assert print_set(zermelo(3, atom("x1"))) == "{{{x1}}}"


def test_level_zero_and_one():
    assert von_neumann(0) == empty()
    assert zermelo(0) == empty()
    assert von_neumann(0, atom("q")) == atom("q")
    assert zermelo(1) == set_of([empty()])
    assert von_neumann(1, atom("q")) == zermelo(1, atom("q")) == set_of([atom("q")])


@pytest.mark.parametrize("base_name,base", BASES)
@pytest.mark.parametrize("n", range(1, 11))
def test_cardinalities(base_name, base, n):
    assert cardinality(von_neumann(n, base)) == n
    assert cardinality(zermelo(n, base)) == 1


@pytest.mark.parametrize("base_name,base", BASES)
@pytest.mark.parametrize("n", range(2, 11))
def test_monadic_union_recurrence(base_name, base, n):
    assert monadic_union(von_neumann(n, base)) == von_neumann(n - 1, base)
    assert monadic_union(zermelo(n, base)) == zermelo(n - 1, base)


def test_level_one_monadic_union_with_atom_base():
    assert monadic_union(von_neumann(1, atom("q"))) == empty()
    assert monadic_union(zermelo(1, atom("q"))) == empty()


@pytest.mark.parametrize("base_name,base", BASES)
def test_low_level_coincidences(base_name, base):
    assert von_neumann(1, base) == zermelo(1, base)
    c2, d2 = von_neumann(2, base), zermelo(2, base)
    assert c2 != d2
    assert intersect(c2, d2) == d2


@pytest.mark.parametrize("base_name,base", BASES)
@pytest.mark.parametrize("n", range(3, 11))
def test_disjoint_from_level_three(base_name, base, n):
    # element-level disjointness holds from level 3; the values themselves
    # are already distinct from level 2
    assert intersect(von_neumann(n, base), zermelo(n, base)) == empty()
    assert von_neumann(n, base) != zermelo(n, base)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
def test_cross_base_disjointness(n):
    x, y = atom("x"), atom("y")
    assert intersect(von_neumann(n, x), von_neumann(n, y)) == empty()
    assert intersect(zermelo(n, x), zermelo(n, y)) == empty()


def test_dispatch():
    assert numeral("vn", 3, atom("a")) == von_neumann(3, atom("a"))
    assert numeral("zm", 3, atom("a")) == zermelo(3, atom("a"))
    with pytest.raises(ValueError):
        numeral("nope", 1, None)


def test_base_validation():
    with pytest.raises(ValueError):
        von_neumann(2, set_of([empty()]))
    with pytest.raises(ValueError):
        von_neumann(-1)


@pytest.mark.parametrize("build", [von_neumann, zermelo])
@pytest.mark.parametrize(
    "n, base, error, message",
    [
        (2, "a", TypeError, "numeral base must be an HfSet, got str"),
        (2, set_of([empty()]), ValueError, "numeral base must be the empty set or an atom"),
        (0, set_of([atom("a")]), ValueError, "numeral base must be the empty set or an atom"),
        (-1, atom("a"), ValueError, "numeral level must be non-negative"),
        (-1, "a", ValueError, "numeral level must be non-negative"),
        (100_001, atom("a"), ValueTooLarge, "numeral level 100001 is above the limit of 100000"),
        (100_001, "a", ValueTooLarge, "numeral level 100001 is above the limit of 100000"),
    ],
    ids=["str-base", "set-base", "set-base-level-0", "negative", "negative-before-base",
         "past-max", "past-max-before-base"],
)
def test_numeral_errors(build, n, base, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build(n, base)


@pytest.mark.parametrize("base", [empty(), atom("nb")], ids=["empty", "atom"])
def test_levels_are_the_set_of_nodes(base):
    # The towers skip set_of's sort, so a level built from a non-canonical
    # tuple would be a second node of its value; set_of gets the earlier
    # levels in reverse order and must sort them.
    levels = [base]
    singletons = [base]
    for _ in range(12):
        levels.append(set_of(reversed(levels)))
        singletons.append(set_of([singletons[-1]]))
    for n in (0, 1, 2, 3, 7, 12):
        assert von_neumann(n, base) is levels[n]
        assert zermelo(n, base) is singletons[n]


def test_highest_zermelo_level_is_exact():
    value = zermelo(100_000, atom("a"))
    assert print_set(value) == "{" * 100_000 + "a" + "}" * 100_000
    assert monadic_union(value) is zermelo(99_999, atom("a"))


@pytest.mark.parametrize("n", range(0, 9))
def test_structure_matches_expansion_oracle(n):
    # compare the whole tree against the frozenset-based oracle
    def reflect(s):
        if s.is_atom:
            return s.label
        return frozenset(reflect(c) for c in s.children)

    assert reflect(von_neumann(n, atom("x1"))) == oracle.vn(n, "x1")
    assert reflect(zermelo(n, atom("x1"))) == oracle.zm(n, "x1")
