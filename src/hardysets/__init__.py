"""Exact set-theoretic model of measurement after mutual annihilation.

Hereditarily finite sets over atoms, von Neumann and Zermelo numeral
towers, exact-rational finite probability triples, a two-wing
annihilation model whose joint double-detection probability is exactly
1/16 at depth 3, and an independent quantum amplitude oracle confirming
the same number.

The package imports none of its modules itself. A public name is
loaded on first use from its one owner module, and only that module is
imported, so the set engine (``hfset``, ``numerals``, ``probability``
and ``hardy``) imports without numpy and an oracle name loads only
``quantum``.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each owner module and the public names the package reads from it.
_PUBLIC = {
    "hfset": (
        "AtomOperand",
        "HfSet",
        "ParseError",
        "ValueTooLarge",
        "atom",
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
    ),
    "numerals": ("numeral", "von_neumann", "zermelo"),
    "probability": (
        "AxiomReport",
        "DuplicateElement",
        "EmptySampleSpace",
        "IndexOutOfRange",
        "NotAnEvent",
        "ProbabilityTriple",
        "SampleSpaceTooLarge",
        "event_from_set",
        "prob",
        "uniform_triple",
        "verify_axioms",
    ),
    "hardy": (
        "AtomQuadruple",
        "DistinctnessReport",
        "HardyModel",
        "HardyResult",
        "NonDistinctAtoms",
        "annihilate",
        "build_model",
        "distinctness_diagnostic",
        "field_membership_report",
        "hardy_probability",
        "intersection_identity_check",
    ),
    "quantum": (
        "BeamSplitterConvention",
        "DEFAULT_CONVENTION",
        "GAMMA",
        "NonUnitaryConvention",
        "OutcomeDistribution",
        "QuantumState",
        "apply_annihilation",
        "apply_beam_splitter",
        "run_double_mzi",
    ),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """One of the five modules, or a public name from its owner module; cached once read."""
    if name in _PUBLIC:
        value = import_module(f"{__name__}.{name}")
    elif name in _OWNER:
        value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_PUBLIC})
