"""Probe states through the rotating loop.

The loop imprints its phase phi_s on the H polarization mode and the bias
its phase phi0 on the V mode; a half-wave plate at pi/8 mixes the modes
before detection.  The two-photon probe is the path-entangled pair
(|2,0> - |0,2>)/sqrt(2), which accumulates phase at twice the
single-photon rate, so a probe of phase gain k sees the fringe argument
k (phi0 - phi_s): see fringe_probs.  The tests derive that fringe from the
Jones matrices and from the two-mode Fock states of the probe.
"""

import math
from dataclasses import dataclass


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


def fringe_probs(arg, visibility=1.0):
    """Output-port probabilities (1/2 (1 + V cos arg), 1/2 (1 - V cos arg)).

    arg is k (phi0 - phi_s) plus any base phase.  For the pair (k = 2) the
    first port is the coincidence projection after the output plate.
    """
    c = visibility * math.cos(arg)
    return (0.5 * (1.0 + c), 0.5 * (1.0 - c))
