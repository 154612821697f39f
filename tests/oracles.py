"""Physics oracles the tests check the package against; no command runs them.

Jones calculus for the polarization optics around the fiber loop, and the
two-mode Fock states of the probe through the loop and the output plate.
qsagnac.probe.fringe_probs, the one fringe formula the package uses, is
tested against both.

Jones conventions: states are column vectors (E_H, E_V); rotations are
counterclockwise looking into the beam.  Waveplates are unitary up to
the global phase chosen here:

    hwp(theta) = R(theta) diag(1, -1) R(-theta)
    qwp(theta) = R(theta) diag(1, i)  R(-theta)

so qwp(theta) @ qwp(theta) == hwp(theta) exactly.  The loop itself acts
as a relative phase between the counter-propagating components, mapped
onto H/V at the output: sagnac_loop(phi) = diag(e^{i phi}, 1).

Fock conventions: a state is a superposition over occupations (n_h, n_v)
of the loop polarization modes.  The loop imprints its phase phi_s on the
H-occupation (evolve), as sagnac_loop does; the half-wave plate at pi/8
mixes the modes before detection (two_photon_hwp).

single_model is the one-photon fringe and its Jacobian written column by
column, each from its own formula: the reference for the solver's
qsagnac.analysis._single_model, which folds its per-row factors to make
fewer passes over its arrays.
"""

import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def hwp(theta):
    """Half-wave plate with fast axis at angle theta."""
    r = _rotation(theta)
    return r @ np.diag([1.0, -1.0]).astype(complex) @ _rotation(-theta)


def qwp(theta):
    """Quarter-wave plate with fast axis at angle theta."""
    r = _rotation(theta)
    return r @ np.diag([1.0, 1.0j]) @ _rotation(-theta)


def phase_shift(phi):
    """Relative phase phi on the V component."""
    return np.diag([1.0, np.exp(1.0j * phi)])


def sagnac_loop(phi):
    """Loop pass: relative phase phi on the H component.

    With this sign, an input |+> leaves the hwp(pi/8) .. hwp(pi/8)
    sandwich with ellipticity chi = +phi/2.
    """
    return np.diag([np.exp(1.0j * phi), 1.0])


def bias_unitary(phi):
    """Scanning bias: phase phi between diagonal components, framed by half-wave plates.

    |<H| bias_unitary(phi) |H>|^2 = cos^2(phi/2); bias_unitary(0) is the identity.
    """
    return hwp(-math.pi / 8.0) @ phase_shift(phi) @ hwp(-math.pi / 8.0)


@dataclass(frozen=True)
class JonesVector:
    e_h: complex
    e_v: complex

    def as_array(self):
        return np.array([self.e_h, self.e_v], dtype=complex)

    @classmethod
    def from_array(cls, a):
        a = np.asarray(a, dtype=complex).reshape(2)
        return cls(complex(a[0]), complex(a[1]))

    @property
    def norm(self):
        return float(np.linalg.norm(self.as_array()))

    def normalized(self):
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return JonesVector(self.e_h / n, self.e_v / n)

    def apply(self, matrix):
        return JonesVector.from_array(np.asarray(matrix, dtype=complex) @ self.as_array())


H = JonesVector(1.0, 0.0)
V = JonesVector(0.0, 1.0)
PLUS = JonesVector(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
MINUS = JonesVector(1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0))
RIGHT_CIRCULAR = JonesVector(1.0 / math.sqrt(2.0), -1.0j / math.sqrt(2.0))
LEFT_CIRCULAR = JonesVector(1.0 / math.sqrt(2.0), 1.0j / math.sqrt(2.0))


@dataclass(frozen=True)
class PolarizationEllipse:
    """Orientation psi in (-pi/2, pi/2] and ellipticity chi in [-pi/4, pi/4].

    degenerate marks circular states, where the orientation is undefined
    and reported as zero.
    """

    psi: float
    chi: float
    degenerate: bool = False


def _as_components(state):
    if isinstance(state, JonesVector):
        return state.e_h, state.e_v
    a = np.asarray(state, dtype=complex).reshape(2)
    return complex(a[0]), complex(a[1])


def ellipse_of(state):
    """Polarization ellipse of a Jones vector, via the Stokes parameters."""
    h, v = _as_components(state)
    s0 = abs(h) ** 2 + abs(v) ** 2
    if s0 == 0.0:
        raise ValueError("zero state has no polarization ellipse")
    s1 = (abs(h) ** 2 - abs(v) ** 2) / s0
    s2 = 2.0 * (h.conjugate() * v).real / s0
    s3 = 2.0 * (h.conjugate() * v).imag / s0
    linear = math.hypot(s1, s2)
    # atan2 keeps full precision at the circular poles, unlike asin(s3)
    chi = 0.5 * math.atan2(s3, linear)
    if linear < 1e-9:
        return PolarizationEllipse(0.0, chi, degenerate=True)
    return PolarizationEllipse(0.5 * math.atan2(s2, s1), chi)


def vector_of(ellipse):
    """Unit Jones vector with the given orientation and ellipticity."""
    cp, sp = math.cos(ellipse.psi), math.sin(ellipse.psi)
    cc, sc = math.cos(ellipse.chi), math.sin(ellipse.chi)
    return JonesVector(cc * cp - 1.0j * sc * sp, cc * sp + 1.0j * sc * cp)


def is_unitary(matrix, tol=1e-10):
    m = np.asarray(matrix, dtype=complex)
    return m.shape == (2, 2) and bool(
        np.allclose(m.conj().T @ m, np.eye(2), atol=tol))


def phase_distance(a, b):
    """Frobenius distance between matrices minimized over a global phase."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    tr = np.trace(a.conj().T @ b)
    aligned = a if abs(tr) == 0.0 else a * np.exp(1.0j * np.angle(tr))
    return float(np.linalg.norm(aligned - b))


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


def output_state_after_hwp(phi_s):
    """Pair state after loop (phase phi_s) and output half-wave plate.

    Amplitudes (sin/sqrt2, -i cos, sin/sqrt2) of the loop phase, in basis
    ((2,0), (1,1), (0,2)), up to a global phase.
    """
    s, c = math.sin(phi_s), math.cos(phi_s)
    return TwoModeState(((2, 0), (1, 1), (0, 2)),
                        (s / _SQRT2, -1.0j * c, s / _SQRT2))


def single_model(params, x):
    """One-photon fringe f (M, B) and Jacobian (M, 4, B) of parameters (4, B).

    f = av (1 - v c) / (1 + eta v c), c = cos(x + phase), for the rows
    (av, eta, v, phase) of params at set points x (M,).
    """
    av, eta, v, ph = params
    x = x[:, None]
    cx, sx, cp, sp = np.cos(x), np.sin(x), np.cos(ph), np.sin(ph)
    c = cx * cp - sx * sp
    vc = v * c
    num = 1.0 - vc
    inv = 1.0 / (1.0 + eta * vc)
    # av / den^2, shared by the three Jacobian columns that carry it
    q = av * inv * inv
    jac = np.empty((len(c), 4) + c.shape[1:])
    jac[:, 0] = num * inv
    jac[:, 1] = -q * num * vc
    jac[:, 2] = -q * c * (1.0 + eta)
    jac[:, 3] = q * v * (1.0 + eta) * (sx * cp + cx * sp)
    return av * jac[:, 0], jac
