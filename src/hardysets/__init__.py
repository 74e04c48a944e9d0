"""Exact set-theoretic model of measurement after mutual annihilation.

Hereditarily finite sets over atoms, von Neumann and Zermelo numeral
towers, exact-rational finite probability triples, a two-wing
annihilation model whose joint double-detection probability is exactly
1/16 at depth 3, and an independent quantum amplitude oracle confirming
the same number.

The package imports none of its modules itself. A public name is
loaded on first use from the one module whose own ``__all__`` lists it,
so the set engine (``hfset``, ``numerals``, ``probability`` and
``hardy``) imports without numpy; the quantum oracle's names load it.
"""

from importlib import import_module

__version__ = "0.1.0"

# Searched in this order for a public name. The quantum oracle, the one
# module that loads numpy, comes last, so no set-engine name loads it.
_MODULES = ("hfset", "numerals", "probability", "hardy", "quantum")

__all__ = [
    "AtomOperand",
    "AtomQuadruple",
    "AxiomReport",
    "BeamSplitterConvention",
    "DEFAULT_CONVENTION",
    "DistinctnessReport",
    "DuplicateElement",
    "EmptySampleSpace",
    "Event",
    "GAMMA",
    "HardyModel",
    "HardyResult",
    "HfSet",
    "IndexOutOfRange",
    "NonDistinctAtoms",
    "NonUnitaryConvention",
    "NotAnEvent",
    "OutcomeDistribution",
    "ParseError",
    "ProbabilityTriple",
    "QuantumState",
    "SampleSpaceTooLarge",
    "ValueTooLarge",
    "annihilate",
    "apply_annihilation",
    "apply_beam_splitter",
    "atom",
    "build_model",
    "cardinality",
    "complement",
    "distinctness_diagnostic",
    "empty",
    "equals",
    "event_from_set",
    "field_membership_report",
    "field_size_log2",
    "full_event",
    "hardy_probability",
    "intersect",
    "intersect_events",
    "intersection_identity_check",
    "member",
    "monadic_union",
    "numeral",
    "parse_set",
    "parse_set_prefix",
    "print_set",
    "prob",
    "rank",
    "run_double_mzi",
    "set_of",
    "uniform_triple",
    "union_events",
    "unite",
    "verify_axioms",
    "von_neumann",
    "zermelo",
]


def __getattr__(name: str):
    """One of the five modules, or a public name from its owner module; cached once read."""
    if name in _MODULES:
        value = import_module(f"{__name__}.{name}")
    elif name in __all__:
        modules = (import_module(f"{__name__}.{m}") for m in _MODULES)
        value = getattr(next(m for m in modules if name in m.__all__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
