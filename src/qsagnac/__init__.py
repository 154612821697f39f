"""Photon-pair Sagnac gyroscope toolkit: simulate, estimate, design.

The top level holds the physical model, the names of qsagnac.sagnac and
qsagnac.probe, and loads no numpy.  The pipeline stages are imported from
their own modules: qsagnac.expsim, qsagnac.analysis, qsagnac.sensedesign.
"""

__version__ = "0.1.0"

from .sagnac import (C, OFF_TRANSMISSION, OMEGA_EARTH, OMEGA_GR,
                     InterferometerGeometry, SwitchState, sagnac_phase,
                     scale_factor, switch_transmission, transmission)
from .probe import NOON2, SINGLE, ProbeKind, fringe_probs
