import hypothesis
import hypothesis.strategies as st
import pytest

from hardysets import HfSet, atom, empty, set_of

hypothesis.settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=120,
    deadline=None,
)
hypothesis.settings.load_profile("deterministic")


atom_labels = st.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True)
atoms = atom_labels.map(atom)

# bounded recursive values: atoms and the empty set as leaves, small sets above
hf_values = st.recursive(
    st.just(empty()) | atoms,
    lambda inner: st.lists(inner, max_size=5).map(set_of),
    max_leaves=20,
)

# top-level set nodes (the parser grammar's root is a set)
hf_sets = st.lists(hf_values, max_size=5).map(set_of)


@pytest.fixture
def construct_calls(monkeypatch):
    """Counts HfSet.__init__ runs, that is, nodes created."""
    calls = []
    original = HfSet.__init__

    def counting(self, key):
        calls.append(key)
        original(self, key)

    monkeypatch.setattr(HfSet, "__init__", counting)
    return calls
