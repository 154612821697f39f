"""Probe states through the rotating loop.

Two-mode photon number states over the loop polarization modes (H, V).
The loop imprints its phase phi_s on the H-occupation and the bias its
phase phi0 on the V-occupation, as the Jones matrices sagnac_loop and
phase_shift do; a half-wave plate at pi/8 mixes the modes before
detection.  The two-photon probe is the path-entangled pair
(|2,0> - |0,2>)/sqrt(2), which accumulates phase at twice the
single-photon rate, so a probe of phase gain k sees the fringe argument
k (phi0 - phi_s): see fringe_probs.
"""

import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ProbeKind:
    """Probe family and photon number; phase accumulates n times faster for pairs."""

    name: str
    photons: int

    @property
    def enhancement(self):
        """Phase accumulation rate relative to a single photon."""
        return self.photons


SINGLE = ProbeKind("single", 1)
NOON2 = ProbeKind("noon", 2)
# the probes that are simulated and fit, by config name, in simulation order
KINDS = {"noon": NOON2, "single": SINGLE}


@dataclass(frozen=True)
class TwoModeState:
    """Superposition over occupation pairs (n_h, n_v) with complex amplitudes."""

    basis: tuple
    amplitudes: tuple

    def __post_init__(self):
        if len(self.basis) != len(self.amplitudes):
            raise ValueError("basis and amplitudes differ in length")
        if len(set(self.basis)) != len(self.basis):
            raise ValueError("repeated basis occupation")
        norm = sum(abs(a) ** 2 for a in self.amplitudes)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state not normalized: |amps|^2 = {norm}")

    def as_array(self):
        return np.array(self.amplitudes, dtype=complex)

    def amplitude(self, occupation):
        for occ, amp in zip(self.basis, self.amplitudes):
            if occ == tuple(occupation):
                return complex(amp)
        return 0.0j

    def probability(self, occupation):
        return abs(self.amplitude(occupation)) ** 2


def noon_state(n=2):
    """(|n,0> - |0,n>)/sqrt(2)."""
    if n < 1:
        raise ValueError("need at least one photon")
    return TwoModeState(((n, 0), (0, n)), (1.0 / _SQRT2, -1.0 / _SQRT2))


def evolve(state, phi_s, n=None):
    """Loop pass: each occupation (n_h, n_v) gains phase n_h * phi_s.

    n, when given, asserts the total photon number of the probe.
    """
    if n is not None and any(sum(occ) != n for occ in state.basis):
        raise ValueError(f"state is not an {n}-photon probe")
    amps = tuple(a * np.exp(1.0j * occ[0] * phi_s)
                 for occ, a in zip(state.basis, state.amplitudes))
    return TwoModeState(state.basis, amps)


def hom_interfere(distinguishability=0.0):
    """Two-photon state leaving the interference beamsplitter.

    distinguishability d = 0 gives the ideal pair (|2,0> - |0,2>)/sqrt(2);
    d = 1 leaves a residual |1,1> amplitude with bunching probabilities
    (1/4, 1/2, 1/4).  Intermediate d interpolates with unit norm.
    """
    d = float(distinguishability)
    if not 0.0 <= d <= 1.0:
        raise ValueError("distinguishability must be in [0, 1]")
    bunched = math.sqrt(2.0 - d * d) / 2.0
    return TwoModeState(((2, 0), (1, 1), (0, 2)),
                        (bunched, -1.0j * d / _SQRT2, -bunched))


def two_photon_hwp():
    """Half-wave plate at pi/8 on the symmetric two-photon subspace.

    Basis order ((2,0), (1,1), (0,2)).
    """
    return np.array([
        [0.5, 1.0 / _SQRT2, 0.5],
        [1.0 / _SQRT2, 0.0, -1.0 / _SQRT2],
        [0.5, -1.0 / _SQRT2, 0.5],
    ], dtype=complex)


def coincidence_projection(state):
    """Probability of one photon in each output mode."""
    return state.probability((1, 1))


def fringe_probs(arg, visibility=1.0):
    """Output-port probabilities (1/2 (1 + V cos arg), 1/2 (1 - V cos arg)).

    arg is k (phi0 - phi_s) plus any base phase.  For the pair (k = 2) the
    first port is the coincidence projection after the output plate.
    """
    c = visibility * math.cos(arg)
    return (0.5 * (1.0 + c), 0.5 * (1.0 - c))


def output_state_after_hwp(phi_s):
    """Pair state after loop (phase phi_s) and output half-wave plate.

    Amplitudes (sin/sqrt2, -i cos, sin/sqrt2) of the loop phase, in basis
    ((2,0), (1,1), (0,2)), up to a global phase.
    """
    s, c = math.sin(phi_s), math.cos(phi_s)
    return TwoModeState(((2, 0), (1, 1), (0, 2)),
                        (s / _SQRT2, -1.0j * c, s / _SQRT2))
