import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from hardysets import (
    BeamSplitterConvention,
    DEFAULT_CONVENTION,
    GAMMA,
    NonUnitaryConvention,
    OutcomeDistribution,
    QuantumState,
    apply_annihilation,
    apply_beam_splitter,
    run_double_mzi,
)
from hardysets import quantum
from hardysets.quantum import (
    ARMS,
    BASIS,
    DRIFT_CHUNK,
    max_norm_drift,
    pipeline_stages,
    random_two_particle_state,
)

TOL = 1e-12
PHASE = BeamSplitterConvention(np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2.0))
# A unitary with no zero entries and no equal parts, so every product term counts.
SKEW = BeamSplitterConvention(
    np.linalg.qr(np.array([[0.3 + 1.1j, -0.7 + 0.2j], [0.5 - 0.4j, 1.3 + 0.6j]]))[0]
)


def test_default_distribution_values():
    dist = run_double_mzi()
    assert abs(dist.p("d", "d") - 1 / 16) <= TOL
    assert abs(dist.p_gamma - 1 / 4) <= TOL
    assert abs(dist.p("c", "c") - 9 / 16) <= TOL
    assert abs(dist.p("c", "d") - 1 / 16) <= TOL
    assert abs(dist.p("d", "c") - 1 / 16) <= TOL
    assert abs(dist.total - 1.0) <= TOL


def test_distribution_totals_one_for_other_unitaries():
    phase = BeamSplitterConvention(
        np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2.0)
    )
    dist = run_double_mzi(phase)
    assert abs(dist.total - 1.0) <= TOL


def test_non_unitary_convention_rejected():
    with pytest.raises(NonUnitaryConvention):
        BeamSplitterConvention([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError):
        BeamSplitterConvention(np.eye(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_non_finite_convention_rejected(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonUnitaryConvention):
            BeamSplitterConvention([[bad, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_probability_rejected(bad):
    pairs = {(ae, ap): 0.1875 for ae in ("c", "d") for ap in ("c", "d")}
    with pytest.raises(ValueError):
        OutcomeDistribution(bad, pairs)
    with pytest.raises(ValueError):
        OutcomeDistribution(0.25, {**pairs, ("d", "d"): bad})


def test_default_matrix_is_involution():
    m = DEFAULT_CONVENTION.matrix
    assert np.max(np.abs(m @ m - np.eye(2))) <= TOL


def test_identity_convention_leaves_stage_one_unchanged():
    identity = BeamSplitterConvention(np.eye(2))
    state = QuantumState.from_amplitudes(
        {("u", "v"): 0.6, ("v", "u"): 0.8j}
    )
    out = apply_beam_splitter(state, "electron", 1, identity)
    assert out.amplitude(("u", "v")) == pytest.approx(0.6)
    assert out.amplitude(("v", "u")) == pytest.approx(0.8j)


def test_stage_two_moves_arms_to_detectors():
    identity = BeamSplitterConvention(np.eye(2))
    state = QuantumState.basis_state(("u", "u"))
    out = apply_beam_splitter(state, "electron", 2, identity)
    assert abs(out.amplitude(("c", "u")) - 1.0) <= TOL
    assert abs(out.amplitude(("u", "u"))) <= TOL


def test_beam_splitter_keeps_gamma_untouched():
    state = QuantumState.from_amplitudes({GAMMA: 1.0})
    out = apply_beam_splitter(state, "positron", 1, DEFAULT_CONVENTION)
    assert abs(out.amplitude(GAMMA) - 1.0) <= TOL
    assert abs(out.norm() - 1.0) <= TOL


def test_annihilation_transfer():
    idle = QuantumState.from_amplitudes({("v", "v"): 1.0})
    assert apply_annihilation(idle).amplitude(("v", "v")) == pytest.approx(1.0)

    pure = QuantumState.basis_state(("u", "u"))
    out = apply_annihilation(pure)
    assert abs(out.amplitude(GAMMA) - 1.0) <= TOL
    assert abs(out.amplitude(("u", "u"))) <= TOL


def test_annihilation_of_equal_superposition():
    state = QuantumState.basis_state(("u", "u"))
    state = apply_beam_splitter(state, "electron", 1, DEFAULT_CONVENTION)
    state = apply_beam_splitter(state, "positron", 1, DEFAULT_CONVENTION)
    out = apply_annihilation(state)
    assert abs(out.amplitude(GAMMA) - 0.5) <= TOL


def test_norm_preserved_across_stages_random_states():
    rng = random.Random(42)
    stages = pipeline_stages(DEFAULT_CONVENTION)
    for _ in range(1000):
        state = random_two_particle_state(rng)
        for stage in stages:
            state = stage(state)
            assert abs(state.norm() - 1.0) <= TOL


def test_unknown_particle_and_stage_rejected():
    state = QuantumState.basis_state(("u", "u"))
    with pytest.raises(ValueError):
        apply_beam_splitter(state, "muon", 1, DEFAULT_CONVENTION)
    with pytest.raises(ValueError):
        apply_beam_splitter(state, "electron", 3, DEFAULT_CONVENTION)


def test_amplitude_chase_matches_hand_value():
    # dd amplitude is (1/2) * (-1/2 - 1/2 + 1/2) = -1/4
    state = QuantumState.basis_state(("u", "u"))
    for stage in pipeline_stages(DEFAULT_CONVENTION):
        state = stage(state)
    assert state.amplitude(("d", "d")).real == pytest.approx(-0.25, abs=TOL)
    assert state.amplitude(("d", "d")).imag == pytest.approx(0.0, abs=TOL)


def _loop_random_state(rng):
    """The reference draw: 32 words, mapped to [-1, 1) and normalized as one vector.

    Taking the words one ``getrandbits(32)`` call at a time pins the order
    in which the bulk draw reads the stream's bytes.
    """
    parts = np.array([rng.getrandbits(32) * 2.0**-31 - 1.0 for _ in range(32)])
    vec = parts[:16] + 1j * parts[16:]
    vec /= np.linalg.norm(vec)
    return np.concatenate([vec, [0.0]])


def _loop_beam_splitter(amps, particle, stage, m):
    """The splitter as a loop over numpy scalars: the arithmetic the kernels must repeat."""
    amps = amps.copy()
    outs = ("u", "v") if stage == 1 else ("c", "d")

    def idx(own, other):
        return BASIS.index((own, other) if particle == "electron" else (other, own))

    for other in ARMS:
        i0, i1 = idx("u", other), idx("v", other)
        o0, o1 = idx(outs[0], other), idx(outs[1], other)
        a0, a1 = amps[i0], amps[i1]
        if stage == 2:
            amps[i0], amps[i1] = amps[o0], amps[o1]
        amps[o0] = m[0, 0] * a0 + m[0, 1] * a1
        amps[o1] = m[1, 0] * a0 + m[1, 1] * a1
    return amps


# The batch and one-state paths share the kernels; both must match the loop.
@pytest.mark.parametrize("convention", [DEFAULT_CONVENTION, PHASE, SKEW])
def test_splitter_kernel_matches_scalar_loop_bit_for_bit(convention):
    rng, one_rng = random.Random(3), random.Random(3)
    expected = [_loop_random_state(rng) for _ in range(9)]
    one = [random_two_particle_state(one_rng)._amps for _ in range(9)]
    batch = quantum._random_amplitudes(random.Random(3), 9)
    for i, want in enumerate(expected):
        assert batch[:, i].tobytes() == one[i].tobytes() == want.tobytes()
    for particle, slot, stage in (
        ("electron", 0, 1), ("positron", 1, 1), ("electron", 0, 2), ("positron", 1, 2)
    ):
        one = [apply_beam_splitter(QuantumState(a), particle, stage, convention) for a in expected]
        expected = [_loop_beam_splitter(a, particle, stage, convention.matrix) for a in expected]
        quantum._split(batch, convention.matrix, slot, stage)
        for i, want in enumerate(expected):
            assert batch[:, i].tobytes() == want.tobytes()
            assert one[i]._amps.tobytes() == want.tobytes()


def _per_state_worst(convention, seed, trials):
    """Entry t - 1: worst drift of the per-state loop over its first t states."""
    rng = random.Random(seed)
    stages = pipeline_stages(convention)
    worst, out = 0.0, []
    for _ in range(trials):
        state = random_two_particle_state(rng)
        for stage in stages:
            state = stage(state)
            worst = max(worst, abs(state.norm() - 1.0))
        out.append(worst)
    return out


@pytest.mark.parametrize("convention", [DEFAULT_CONVENTION, SKEW])
@pytest.mark.parametrize("seed", [0, 42])
def test_max_norm_drift_matches_per_state_loop(convention, seed):
    counts = (1, DRIFT_CHUNK - 1, DRIFT_CHUNK, DRIFT_CHUNK + 1, DRIFT_CHUNK * 5 // 2)
    per_state = _per_state_worst(convention, seed, max(counts))
    for trials in counts:
        drift = max_norm_drift(convention, random.Random(seed), trials)
        assert drift.hex() == per_state[trials - 1].hex(), trials


def test_max_norm_drift_sees_a_matrix_that_is_not_unitary():
    # The constructor refuses such a matrix, so it is set after the check.
    convention = BeamSplitterConvention(np.eye(2))
    assert max_norm_drift(convention, random.Random(5), 10) <= TOL
    convention.matrix = np.diag([1.0, 1.0 + 1e-9])
    assert max_norm_drift(convention, random.Random(5), 10) > TOL


def test_max_norm_drift_memory_does_not_grow_with_trials():
    def peak(trials):
        tracemalloc.start()
        try:
            max_norm_drift(DEFAULT_CONVENTION, random.Random(1), trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(100_000) <= 2 * peak(2_000)
