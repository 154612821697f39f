"""Sensitivity of future loop designs and the giant-ring optimizer.

A design is a loop geometry plus its orientation, source rate, fiber
loss, and integration time.  Photon pairs surviving the loop at rate R
give a shot-limited phase resolution delta_phi = 1 / sqrt(2 R T);
dividing by the scale factor and the rotation projection turns it into a
rotation rate resolution.
"""

import math
from dataclasses import dataclass, field

from .sagnac import (OMEGA_EARTH, OMEGA_GR, InfeasibleDesignError,
                     InterferometerGeometry, scale_factor, transmission)


def _reported_as(key):
    """A report field that JSON reports carry under key, its unit-suffixed name."""
    return field(metadata={"json": key})


@dataclass(frozen=True)
class DesignSpec:
    """One gyroscope design point, its orientation included (radians).

    A loop at frame_angle projects cos(frame_angle) of the rotation rate and
    a ring lying flat at latitude sin(latitude); the angle given names the
    projection, frame angle 0 if neither is, and the loop's must be 0.  An
    achieved measured_delta_phi, for designs that were actually run, takes
    the place of the shot limit and of the integration_time it reads.
    """

    name: str
    geometry: InterferometerGeometry
    alpha_db_per_km: float
    pair_rate_in: float
    integration_time: float = None
    photons_per_probe: int = 2
    frame_angle: float = None
    latitude: float = None
    measured_delta_phi: float = None

    def __post_init__(self):
        if self.alpha_db_per_km < 0.0:
            raise ValueError("loss coefficient must be >= 0")
        if self.pair_rate_in <= 0.0:
            raise ValueError("pair rate must be positive")
        if self.photons_per_probe < 1:
            raise ValueError("need at least one photon per probe")
        if self.frame_angle is not None and self.latitude is not None:
            raise ValueError("give a frame angle or a latitude, not both")
        if self.geometry.frame_angle != 0.0:
            raise ValueError("the spec, not its loop, carries the frame angle")
        if self.measured_delta_phi is None:
            if self.integration_time is None or self.integration_time <= 0.0:
                raise ValueError("a shot-limited design needs a positive integration time")
        elif self.integration_time is not None:
            raise ValueError("a measured phase resolution reads no integration time")
        elif self.measured_delta_phi <= 0.0:
            raise ValueError("measured phase resolution must be positive")

    @property
    def projection(self):
        return "cos_frame_angle" if self.latitude is None else "sin_latitude"

    @property
    def projection_factor(self):
        return (math.cos(self.frame_angle or 0.0) if self.latitude is None
                else math.sin(self.latitude))


@dataclass(frozen=True)
class SensitivityReport:
    """Resolved sensitivity chain of one design."""

    name: str
    shape: str
    fiber_length: float = _reported_as("fiber_length_m")
    perimeter: float = _reported_as("perimeter_m")
    turns: int
    effective_area: float = _reported_as("effective_area_m2")
    scale_factor: float = _reported_as("scale_factor_s")
    survival: float
    pair_rate_out: float = _reported_as("pair_rate_out_hz")
    delta_phi: float = _reported_as("delta_phi_rad")
    projection: str
    projection_factor: float
    delta_phi_projected: float = _reported_as("delta_phi_projected_rad")
    delta_omega: float = _reported_as("delta_omega_rad_s")
    snr_gr: float
    measured: bool


def rotation_resolution(spec):
    """Full chain: survival, output rate, phase and rotation resolution.

    A probe leaves the loop at R_out = R_in eta^n, all n photons surviving;
    delta_phi is the measured value if the spec has one, else the shot
    limit 1 / sqrt(2 R_out T).
    delta_omega = delta_phi / (S * projection_factor); the projected
    delta_phi / projection_factor is also reported, matching the
    convention of quoting tilted designs at their effective axis.
    """
    p = spec.projection_factor
    if p <= 0.0:
        raise ValueError(f"projection factor {p:.3g} is not positive; "
                         "rotation not observable")
    g = spec.geometry
    s = scale_factor(g)
    eta_all = transmission(spec.alpha_db_per_km, g.fiber_length, spec.photons_per_probe)
    r_out = spec.pair_rate_in * eta_all
    d_phi = (spec.measured_delta_phi if spec.measured_delta_phi is not None
             else 1.0 / math.sqrt(2.0 * r_out * spec.integration_time))
    d_omega = d_phi / (s * p)
    return SensitivityReport(
        name=spec.name, shape=g.shape, fiber_length=g.fiber_length,
        perimeter=g.perimeter, turns=g.turns, effective_area=g.effective_area,
        scale_factor=s, survival=eta_all, pair_rate_out=r_out, delta_phi=d_phi,
        projection=spec.projection, projection_factor=p,
        delta_phi_projected=d_phi / p, delta_omega=d_omega,
        snr_gr=OMEGA_GR / d_omega,
        measured=spec.measured_delta_phi is not None)


@dataclass(frozen=True)
class GfringOptimum:
    """Smallest square ring reaching the target relativistic SNR."""

    fiber_length: float = _reported_as("fiber_length_m")
    turns: int
    target_snr: float
    loss_optimal_length: float = _reported_as("loss_optimal_length_m")
    report: SensitivityReport


def optimize_gfring(latitude, alpha_db_per_km=0.16, pair_rate_in=1e10,
                    integration_time=5.56e6, target_snr=3.0, wavelength=1550e-9,
                    nt_max=64, l_min=100.0):
    """Minimal fiber length (and its turn count) reaching target_snr on omega_gr.

    delta_omega grows with both turn count and loss, and scales as
    n_t 10^(alpha L / 10) / L^2: the loss term wins beyond the turnover
    L* = 20000 / (alpha ln 10) meters.  The search takes the largest
    turn count feasible at L*, then bisects [l_min, L*] until its ends are
    adjacent floats and returns the feasible end, so the design meets the
    target exactly.  A floor l_min at or past L* that misses the target
    raises InfeasibleDesignError.  A surface-parallel ring projects
    sin(latitude), and a target_snr at or below 0 asks for no design.
    """
    if math.sin(latitude) <= 0.0:
        raise ValueError("latitude must project a positive rotation component")
    if alpha_db_per_km <= 0.0:
        raise ValueError("optimizer needs a positive loss coefficient")
    if nt_max < 1 or l_min <= 0.0:
        raise ValueError("search bounds must be positive")
    if target_snr <= 0.0:
        raise ValueError(f"target SNR {target_snr:g} is not positive")

    def report(turns, length):
        geom = InterferometerGeometry.square(length, turns, wavelength=wavelength)
        return rotation_resolution(DesignSpec(
            name="GFRING", geometry=geom, alpha_db_per_km=alpha_db_per_km,
            pair_rate_in=pair_rate_in, integration_time=integration_time,
            photons_per_probe=2, latitude=latitude))

    l_star = 20000.0 / (alpha_db_per_km * math.log(10.0))

    def build(turns, length):
        return GfringOptimum(fiber_length=length, turns=turns,
                             target_snr=target_snr, loss_optimal_length=l_star,
                             report=report(turns, length))

    limit = OMEGA_GR / target_snr
    base = report(1, l_star).delta_omega
    if base > limit:
        raise InfeasibleDesignError(
            f"single turn at the loss-optimal length {l_star:.0f} m reaches "
            f"delta_omega {base:.3e}, above the required {limit:.3e}")
    turns = min(int(math.floor(limit / base + 1e-9)), nt_max)

    def excess(length):
        return report(turns, length).delta_omega - limit

    if excess(l_star) > 0.0:
        turns -= 1  # the slack above admitted a count infeasible by rounding
    if excess(l_min) <= 0.0:
        return build(turns, l_min)
    if l_min >= l_star:
        raise InfeasibleDesignError(
            f"floor {l_min:.0f} m lies past the loss-optimal length {l_star:.0f} m, "
            f"where delta_omega only grows with length")
    lo, hi = l_min, l_star
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if excess(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return build(turns, hi)


@dataclass(frozen=True)
class LandscapeRow:
    """One design placed on the area-resolution landscape."""

    name: str
    effective_area: float = _reported_as("effective_area_m2")
    delta_omega: float = _reported_as("delta_omega_rad_s")
    label: str
    log10_area: float
    log10_delta_omega: float


def regime_label(delta_omega):
    """Which rotation signals the resolution can see."""
    if delta_omega >= OMEGA_EARTH:
        return "above_omega_e"
    if delta_omega >= OMEGA_GR:
        return "below_omega_e"
    return "below_omega_gr"


def landscape(reports):
    """Area-versus-resolution rows for the rotation_resolution reports of designs."""
    return [LandscapeRow(name=r.name, effective_area=r.effective_area,
                         delta_omega=r.delta_omega, label=regime_label(r.delta_omega),
                         log10_area=math.log10(r.effective_area),
                         log10_delta_omega=math.log10(r.delta_omega))
            for r in reports]
