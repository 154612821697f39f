"""Jones calculus for the polarization optics around the fiber loop.

Conventions: states are column vectors (E_H, E_V); rotations are
counterclockwise looking into the beam.  Waveplates are unitary up to
the global phase chosen here:

    hwp(theta) = R(theta) diag(1, -1) R(-theta)
    qwp(theta) = R(theta) diag(1, i)  R(-theta)

so qwp(theta) @ qwp(theta) == hwp(theta) exactly.  The loop itself acts
as a relative phase between the counter-propagating components, mapped
onto H/V at the output: sagnac_loop(phi) = diag(e^{i phi}, 1).
"""

import math
from dataclasses import dataclass

import numpy as np


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


def waveplate_triplet(theta1, theta2, theta3):
    """QWP(theta1) then QWP(theta2) then HWP(theta3), as one matrix."""
    return hwp(theta3) @ qwp(theta2) @ qwp(theta1)


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


def _triplet_residual(angles, target):
    w = waveplate_triplet(*angles)
    tr = np.trace(target.conj().T @ w)
    aligned = target if abs(tr) == 0.0 else target * np.exp(1.0j * np.angle(tr))
    d = (w - aligned).ravel()
    return np.concatenate([d.real, d.imag])


_TRIPLET_STARTS = [
    (0.0, 0.0, 0.0),
    (math.pi / 4, 0.0, 0.0),
    (0.0, math.pi / 4, 0.0),
    (0.0, 0.0, math.pi / 4),
    (math.pi / 4, math.pi / 4, 0.0),
    (math.pi / 4, 0.0, math.pi / 4),
    (0.0, math.pi / 4, math.pi / 4),
    (math.pi / 4, math.pi / 4, math.pi / 4),
]


def solve_triplet(target, tol=1e-8):
    """Waveplate angles (theta1, theta2, theta3) realizing `target` up to global phase.

    Any 2x2 unitary can be written as QWP-QWP-HWP up to phase.  Minimizes
    the phase-aligned matrix residual from a fixed grid of starts and
    raises if no start reaches `tol`.
    """
    from scipy.optimize import least_squares  # deferred: scipy.optimize is slow to import

    target = np.asarray(target, dtype=complex)
    if not is_unitary(target, tol=1e-9):
        raise ValueError("target must be unitary")
    best = None
    for start in _TRIPLET_STARTS:
        res = least_squares(_triplet_residual, start, args=(target,),
                            method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        if best is None or res.cost < best.cost:
            best = res
        if best.cost < (tol * tol) / 4.0:
            break
    angles = tuple(float(a) for a in best.x)
    if phase_distance(waveplate_triplet(*angles), target) > tol:
        raise ValueError("no waveplate triplet found within tolerance")
    return angles


def reconstruct_fiber_unitary(out_h, out_plus):
    """Unitary mapping H -> out_h and + -> out_plus, up to measurement noise.

    The two columns follow from the outputs for the H and + inputs; the
    result is projected to the nearest unitary.  Raises when the outputs
    are close to parallel and the reconstruction is ill-conditioned.
    """
    oh = np.array(_as_components(out_h), dtype=complex)
    op = np.array(_as_components(out_plus), dtype=complex)
    col2 = math.sqrt(2.0) * op - oh
    m = np.column_stack([oh, col2])
    u, s, vh = np.linalg.svd(m)
    if s[-1] < 0.1 * s[0]:
        raise ValueError("outputs nearly parallel; fiber unitary ill-conditioned")
    return u @ vh
