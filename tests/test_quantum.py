import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from hardysets import (
    GAMMA,
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
S = 1 / math.sqrt(2.0)
# Hardy's splitter, rows the output modes and columns the input modes:
# u -> (c + d)/sqrt(2), v -> (c - d)/sqrt(2).
HARDY = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def test_default_distribution_values():
    dist = run_double_mzi()
    assert abs(dist.p("d", "d") - 1 / 16) <= TOL
    assert abs(dist.p_gamma - 1 / 4) <= TOL
    assert abs(dist.p("c", "c") - 9 / 16) <= TOL
    assert abs(dist.p("c", "d") - 1 / 16) <= TOL
    assert abs(dist.p("d", "c") - 1 / 16) <= TOL
    assert abs(dist.total - 1.0) <= TOL


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_probability_rejected(bad):
    pairs = {(ae, ap): 0.1875 for ae in ("c", "d") for ap in ("c", "d")}
    with pytest.raises(ValueError):
        OutcomeDistribution(bad, pairs)
    with pytest.raises(ValueError):
        OutcomeDistribution(0.25, {**pairs, ("d", "d"): bad})


def nonzero_amplitudes(state):
    return {label: state.amplitude(label) for label in BASIS if state.amplitude(label)}


def test_splitter_is_involution():
    state = QuantumState.basis_state(("u", "v"))
    once = apply_beam_splitter(state, "electron", 1)
    assert nonzero_amplitudes(once) == {("u", "v"): S, ("v", "v"): S}
    twice = apply_beam_splitter(once, "electron", 1)
    assert np.max(np.abs(twice._amps - state._amps)) <= TOL

    state = random_two_particle_state(random.Random(7))
    twice = apply_beam_splitter(apply_beam_splitter(state, "positron", 1), "positron", 1)
    assert np.max(np.abs(twice._amps - state._amps)) <= TOL


def test_stage_one_mixes_only_the_particles_own_arms():
    # Labels are (electron arm, positron arm): the electron is in u or v only in the first two.
    state = QuantumState.from_amplitudes({("u", "c"): 0.6, ("v", "u"): 0.8j, ("c", "v"): 1.0})
    out = apply_beam_splitter(state, "electron", 1)
    assert nonzero_amplitudes(out) == {
        ("u", "c"): 0.6 * S, ("v", "c"): 0.6 * S,
        ("u", "u"): 0.8j * S, ("v", "u"): -0.8j * S,
        ("c", "v"): 1.0,
    }


def test_stage_two_moves_arms_to_detectors():
    state = QuantumState.from_amplitudes({("u", "u"): 1.0, ("d", "v"): 0.5})
    out = apply_beam_splitter(state, "electron", 2)
    assert nonzero_amplitudes(out) == {("c", "u"): S, ("d", "u"): S, ("v", "v"): 0.5}


def test_beam_splitter_keeps_gamma_untouched():
    state = QuantumState.from_amplitudes({GAMMA: 1.0})
    out = apply_beam_splitter(state, "positron", 1)
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
    state = apply_beam_splitter(state, "electron", 1)
    state = apply_beam_splitter(state, "positron", 1)
    out = apply_annihilation(state)
    assert abs(out.amplitude(GAMMA) - 0.5) <= TOL


def test_norm_preserved_across_stages_random_states():
    rng = random.Random(42)
    stages = pipeline_stages()
    for _ in range(1000):
        state = random_two_particle_state(rng)
        for stage in stages:
            state = stage(state)
            assert abs(state.norm() - 1.0) <= TOL


def test_unknown_particle_and_stage_rejected():
    state = QuantumState.basis_state(("u", "u"))
    with pytest.raises(ValueError):
        apply_beam_splitter(state, "muon", 1)
    with pytest.raises(ValueError):
        apply_beam_splitter(state, "electron", 3)


def test_amplitude_chase_matches_hand_value():
    # dd amplitude is (1/2) * (-1/2 - 1/2 + 1/2) = -1/4
    state = QuantumState.basis_state(("u", "u"))
    for stage in pipeline_stages():
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


def _loop_beam_splitter(amps, particle, stage):
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
        amps[o0] = HARDY[0, 0] * a0 + HARDY[0, 1] * a1
        amps[o1] = HARDY[1, 0] * a0 + HARDY[1, 1] * a1
    return amps


# The batch and one-state paths share the kernels; both must match the loop.
def test_splitter_kernel_matches_scalar_loop_bit_for_bit():
    rng, one_rng = random.Random(3), random.Random(3)
    expected = [_loop_random_state(rng) for _ in range(9)]
    one = [random_two_particle_state(one_rng)._amps for _ in range(9)]
    batch = quantum._random_amplitudes(random.Random(3), 9)
    for i, want in enumerate(expected):
        assert batch[:, i].tobytes() == one[i].tobytes() == want.tobytes()
    for particle, slot, stage in (
        ("electron", 0, 1), ("positron", 1, 1), ("electron", 0, 2), ("positron", 1, 2)
    ):
        one = [apply_beam_splitter(QuantumState(a), particle, stage) for a in expected]
        expected = [_loop_beam_splitter(a, particle, stage) for a in expected]
        quantum._split(batch, slot, stage)
        for i, want in enumerate(expected):
            assert batch[:, i].tobytes() == want.tobytes()
            assert one[i]._amps.tobytes() == want.tobytes()


# Every sign pattern of the real and imaginary parts of the two mixed
# amplitudes, each part 0.0, -0.0, 1.0 or -1.0: the zeros keep their signs.
def test_splitter_kernel_keeps_the_loops_signed_zeros():
    parts = np.array(list(itertools.product((0.0, -0.0, 1.0, -1.0), repeat=4))).T
    for particle, slot, stage in (
        ("electron", 0, 1), ("positron", 1, 1), ("electron", 0, 2), ("positron", 1, 2)
    ):
        batch = np.zeros((len(BASIS), parts.shape[1]), dtype=complex)
        own = [("u", "c"), ("v", "c")] if slot == 0 else [("c", "u"), ("c", "v")]
        for k, label in enumerate(own):
            batch[BASIS.index(label)].real = parts[2 * k]
            batch[BASIS.index(label)].imag = parts[2 * k + 1]
        expected = [_loop_beam_splitter(a, particle, stage) for a in batch.T]
        quantum._split(batch, slot, stage)
        for i, want in enumerate(expected):
            assert batch[:, i].tobytes() == want.tobytes(), parts[:, i]


def _per_state_worst(seed, trials):
    """Entry t - 1: worst drift of the per-state loop over its first t states."""
    rng = random.Random(seed)
    stages = pipeline_stages()
    worst, out = 0.0, []
    for _ in range(trials):
        state = random_two_particle_state(rng)
        for stage in stages:
            state = stage(state)
            worst = max(worst, abs(state.norm() - 1.0))
        out.append(worst)
    return out


@pytest.mark.parametrize("seed", [0, 42])
def test_max_norm_drift_matches_per_state_loop(seed):
    counts = (1, DRIFT_CHUNK - 1, DRIFT_CHUNK, DRIFT_CHUNK + 1, DRIFT_CHUNK * 5 // 2)
    per_state = _per_state_worst(seed, max(counts))
    for trials in counts:
        drift = max_norm_drift(random.Random(seed), trials)
        assert drift.hex() == per_state[trials - 1].hex(), trials


def test_max_norm_drift_sees_a_splitter_that_is_not_unitary(monkeypatch):
    assert max_norm_drift(random.Random(5), 10) <= TOL
    monkeypatch.setattr(quantum, "_SPLIT", quantum._SPLIT * (1 + 1e-9))
    assert max_norm_drift(random.Random(5), 10) > TOL


def test_max_norm_drift_memory_does_not_grow_with_trials():
    def peak(trials):
        tracemalloc.start()
        try:
            max_norm_drift(random.Random(1), trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(100_000) <= 2 * peak(2_000)
