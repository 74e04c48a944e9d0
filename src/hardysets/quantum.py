"""Amplitude-level oracle for the double-interferometer experiment.

Two particles each traverse a balanced two-splitter interferometer whose
inner arms overlap; if both occupy the overlapping arm pair (u, u) they
annihilate into a photon record (the gamma channel). Each particle then
meets its second splitter and lands on detector arms (c, d). With the
real balanced splitter convention the double dark-detector outcome
(d, d) has probability exactly 1/16 and the photon record 1/4, which is
the quantum value the exact set-theoretic model must agree with.

All amplitudes are complex floats. With the default convention they lie
in Q(sqrt 2) (1/sqrt 2 after one splitter) and every probability is a
dyadic rational, so tolerances of 1e-12 are slack.

The stage arithmetic is written once, as kernels that update amplitude
arrays of shape (17, n) in place: one row per basis label, one column per
state, so each array operation runs over n states at a time. The
one-state functions wrap them with n = 1, and ``max_norm_drift`` runs
them over many random states at once. Random states come from the
stdlib ``random.Random`` stream, so the oracle never loads
``numpy.random``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "ARMS",
    "BASIS",
    "DEFAULT_CONVENTION",
    "GAMMA",
    "BeamSplitterConvention",
    "NonUnitaryConvention",
    "OutcomeDistribution",
    "P_DD",
    "QuantumState",
    "TOLERANCE",
    "apply_annihilation",
    "apply_beam_splitter",
    "max_norm_drift",
    "random_two_particle_state",
    "run_double_mzi",
]

ARMS = ("u", "v", "c", "d")
GAMMA = "gamma"
PAIR_LABELS = tuple((a, b) for a in ARMS for b in ARMS)
BASIS = PAIR_LABELS + (GAMMA,)
_INDEX: dict = {label: i for i, label in enumerate(BASIS)}
_UU = _INDEX[("u", "u")]
_GAMMA = _INDEX[GAMMA]
_PARTICLES = ("electron", "positron")

# Slack for every float comparison, here and wherever the oracle's values
# are checked against exact ones.
TOLERANCE = 1e-12
# The exact p(d, d) of the default convention, which the set model's
# depth-3 probability must equal.
P_DD = Fraction(1, 16)
# Random states ``max_norm_drift`` draws and runs at a time, so its
# memory stays the same whatever the number of trials.
DRIFT_CHUNK = 1024


class NonUnitaryConvention(ValueError):
    """The supplied 2x2 splitter matrix is not unitary."""


class BeamSplitterConvention:
    """A 2x2 unitary; rows are output modes, columns input modes."""

    __slots__ = ("matrix",)

    def __init__(self, matrix) -> None:
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"splitter matrix must be 2x2, got shape {m.shape}")
        # A NaN or infinite entry fails the test too.
        if not (np.isfinite(m).all() and np.max(np.abs(m @ m.conj().T - np.eye(2))) <= TOLERANCE):
            raise NonUnitaryConvention("splitter matrix is not unitary within 1e-12")
        m.setflags(write=False)
        self.matrix = m


# u -> (c + d)/sqrt(2), v -> (c - d)/sqrt(2): the real balanced convention.
DEFAULT_CONVENTION = BeamSplitterConvention(
    np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
)


class QuantumState:
    """Immutable amplitude vector over the two-particle arm basis plus gamma."""

    __slots__ = ("_amps",)

    def __init__(self, amplitudes: np.ndarray) -> None:
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.shape != (len(BASIS),):
            raise ValueError(f"amplitude vector must have length {len(BASIS)}")
        amps = amps.copy()
        amps.setflags(write=False)
        self._amps = amps

    @classmethod
    def from_amplitudes(cls, mapping: Mapping) -> "QuantumState":
        amps = np.zeros(len(BASIS), dtype=complex)
        for label, value in mapping.items():
            amps[_INDEX[label]] = value
        return cls(amps)

    @classmethod
    def basis_state(cls, label) -> "QuantumState":
        amps = np.zeros(len(BASIS), dtype=complex)
        amps[_INDEX[label]] = 1.0
        return cls(amps)

    def amplitude(self, label) -> complex:
        return complex(self._amps[_INDEX[label]])

    def norm(self) -> float:
        return float(np.sqrt(np.vdot(self._amps, self._amps).real))

    def probabilities(self) -> dict:
        return {label: float(abs(self._amps[i]) ** 2) for label, i in _INDEX.items()}


def _random_amplitudes(rng: random.Random, n: int) -> np.ndarray:
    """n random normalized states as the columns of a (17, n) array.

    Each state takes 32 successive 32-bit words of ``rng``, the real parts
    of its 16 pair amplitudes and then the imaginary parts, and maps each
    word w to w * 2**-31 - 1, which is exact and lies in [-1, 1). So each
    state is uniform in a cube and then normalized: not uniform on the
    unit sphere, but with full support, which is all a norm check needs.
    ``rng.randbytes(128 * n)`` holds the words of n successive one-state
    draws, least significant byte first, and the norm repeats
    ``np.linalg.norm``'s dot products state by state.
    """
    words = np.frombuffer(rng.randbytes(128 * n), dtype="<u4")
    draws = words.reshape(n, 2, len(PAIR_LABELS)) * 2.0**-31 - 1.0
    vec = draws[:, 0] + 1j * draws[:, 1]
    re, im = vec.real, vec.imag
    vec /= np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))[:, None]
    amps = np.zeros((len(BASIS), n), dtype=complex)
    amps[: len(PAIR_LABELS)] = vec.T
    return amps


def random_two_particle_state(rng: random.Random) -> QuantumState:
    """Random normalized state over the 16 arm pairs; the gamma record starts empty.

    It takes 32 words of ``rng`` (see ``_random_amplitudes``); the state is
    not uniform on the unit sphere, but every unit vector can be drawn
    arbitrarily closely.
    """
    return QuantumState(_random_amplitudes(rng, 1)[:, 0])


def _particle_slot(particle: str) -> int:
    if particle not in _PARTICLES:
        raise ValueError(f"particle must be 'electron' or 'positron', got {particle!r}")
    return _PARTICLES.index(particle)


def _mix(matrix: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``out[i] = matrix[i, 0] * a[0] + matrix[i, 1] * a[1]`` for ``a`` of shape (2, 4, n).

    numpy's SIMD loop for complex array products may fuse a multiply and
    an add, so the products are taken in real arithmetic. Each entry is
    then rounded as numpy's scalar complex arithmetic rounds it, whatever
    the number of states.
    """
    x, y = matrix[:, 0, None, None], matrix[:, 1, None, None]
    a0, a1 = a[0], a[1]
    out = np.empty((2,) + a0.shape, dtype=complex)
    out.real = (x.real * a0.real - x.imag * a0.imag) + (y.real * a1.real - y.imag * a1.imag)
    out.imag = (x.real * a0.imag + x.imag * a0.real) + (y.real * a1.imag + y.imag * a1.real)
    return out


def _split(amps: np.ndarray, matrix: np.ndarray, slot: int, stage: int) -> None:
    """The splitter kernel: ``apply_beam_splitter`` on every column of ``amps``, in place.

    The 16 pair amplitudes, in ``PAIR_LABELS`` order, form a 4x4 grid
    (electron arm, positron arm) with the arms in ``ARMS`` order, so
    (u, v) are entries 0:2 and (c, d) entries 2:4 of the particle's axis.
    ``amps`` must be C-contiguous, so that the grid is a view of it.
    """
    grid = amps[: len(PAIR_LABELS)].reshape(len(ARMS), len(ARMS), -1)
    own = grid if slot == 0 else grid.swapaxes(0, 1)
    mixed = _mix(matrix, own[:2])
    if stage == 1:
        own[:2] = mixed
    else:
        own[:2] = own[2:]
        own[2:] = mixed


def _annihilate(amps: np.ndarray) -> None:
    """The annihilation kernel: ``apply_annihilation`` on every column of ``amps``, in place."""
    amps[_GAMMA] += amps[_UU]
    amps[_UU] = 0.0


def apply_beam_splitter(
    state: QuantumState,
    particle: str,
    stage: int,
    convention: BeamSplitterConvention,
) -> QuantumState:
    """Apply one splitter to one particle; the gamma amplitude is untouched.

    Stage 1 rotates the particle's (u, v) amplitudes in place; stage 2
    sends (u, v) through the matrix onto the detector arms (c, d) while
    the previous (c, d) amplitudes swap back onto (u, v), keeping the
    whole map unitary for arbitrary states.
    """
    slot = _particle_slot(particle)
    if stage not in (1, 2):
        raise ValueError(f"stage must be 1 or 2, got {stage!r}")
    amps = state._amps[:, None].copy()
    _split(amps, convention.matrix, slot, stage)
    return QuantumState(amps[:, 0])


def apply_annihilation(state: QuantumState) -> QuantumState:
    """Transfer the overlapping-arm amplitude (u, u) to the gamma channel.

    All other amplitudes are unchanged. With an empty gamma record (the
    pipeline's situation) the transfer preserves the norm exactly; a
    pre-existing gamma amplitude is added coherently.
    """
    amps = state._amps[:, None].copy()
    _annihilate(amps)
    return QuantumState(amps[:, 0])


class OutcomeDistribution:
    """Final measurement probabilities: gamma plus the four detector pairs."""

    __slots__ = ("p_gamma", "_pairs")

    def __init__(self, p_gamma: float, pairs: Mapping) -> None:
        self.p_gamma = float(p_gamma)
        self._pairs = {k: float(v) for k, v in pairs.items()}
        # Written so that a NaN value fails both tests too.
        for value in (self.p_gamma, *self._pairs.values()):
            if not -TOLERANCE <= value <= 1 + TOLERANCE:
                raise ValueError(f"probability {value} out of [0, 1]")
        if not abs(self.total - 1.0) <= TOLERANCE:
            raise ValueError(f"outcome distribution totals {self.total}, expected 1")

    def p(self, arm_e: str, arm_p: str) -> float:
        return self._pairs[(arm_e, arm_p)]

    @property
    def total(self) -> float:
        return self.p_gamma + sum(self._pairs.values())

    def to_dict(self) -> dict:
        out = {"p_gamma": self.p_gamma}
        for (ae, ap), value in sorted(self._pairs.items()):
            out[f"p_{ae}{ap}"] = value
        out["total"] = self.total
        return out


# The five stages of the experiment in order: (particle slot, splitter
# stage), or None for the annihilation.
_STAGES = ((0, 1), (1, 1), None, (0, 2), (1, 2))


def pipeline_stages(convention: BeamSplitterConvention) -> Iterable:
    """The five stage maps of the experiment, in order."""

    def splitter(slot: int, stage: int):
        return partial(
            apply_beam_splitter, particle=_PARTICLES[slot], stage=stage, convention=convention
        )

    return tuple(apply_annihilation if stage is None else splitter(*stage) for stage in _STAGES)


def max_norm_drift(
    convention: BeamSplitterConvention, rng: random.Random, trials: int
) -> float:
    """Worst |norm - 1| after each stage, over ``trials`` random states.

    The states are those of ``trials`` successive
    ``random_two_particle_state(rng)`` calls: normalized draws from a cube,
    which is enough to test that each stage keeps the norm. The result
    equals the worst drift of ``pipeline_stages`` applied to them one at a
    time, bit for bit. They are drawn and run through the stage kernels
    ``DRIFT_CHUNK`` states at a time.
    """
    worst = 0.0
    for start in range(0, trials, DRIFT_CHUNK):
        amps = _random_amplitudes(rng, min(DRIFT_CHUNK, trials - start))
        for stage in _STAGES:
            if stage is None:
                _annihilate(amps)
            else:
                _split(amps, convention.matrix, *stage)
            # vecdot conjugates its first argument and, on contiguous
            # states, sums in np.vdot's order.
            states = np.ascontiguousarray(amps.T)
            norms = np.sqrt(np.vecdot(states, states).real)
            worst = max(worst, float(np.max(np.abs(norms - 1.0))))
    return worst


def run_double_mzi(convention: BeamSplitterConvention | None = None) -> OutcomeDistribution:
    """Run the full experiment and return the outcome distribution.

    Both particles enter on the arm that feeds the overlap region; the
    (u, u) configuration after the first splitters is diverted to the
    gamma channel; the survivors meet their second splitters and are
    read out on the (c, d) detector pairs.
    """
    conv = DEFAULT_CONVENTION if convention is None else convention
    state = QuantumState.basis_state(("u", "u"))
    for stage in pipeline_stages(conv):
        state = stage(state)
    probs = state.probabilities()
    pairs = {
        (ae, ap): probs[(ae, ap)] for ae in ("c", "d") for ap in ("c", "d")
    }
    return OutcomeDistribution(probs[GAMMA], pairs)
