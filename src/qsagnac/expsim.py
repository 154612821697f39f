"""Synthesis of raw experiment data: switched count records and polarimeter traces.

A run alternates the loop switch at fixed frequency while the bias phase
steps through a list of set points.  Counts are integrated separately in
the on and off halves of each switch cycle, excluding a transition band.
All phase noise on the bias motor is common to the two switch states of
a set point, which is what the on/off difference is designed to reject.
"""

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .probe import NOON2, SINGLE, fringe_probs
from .sagnac import SwitchState, new_file, sagnac_phase, switch_transmission


@dataclass(frozen=True)
class SwitchSchedule:
    """Loop switch drive: square wave with a transition band to discard."""

    frequency: float = 0.1        # Hz
    duty: float = 0.5             # on fraction of each cycle
    transition_halfwidth: float = 0.010  # s discarded each side of an edge

    def __post_init__(self):
        if self.frequency <= 0.0:
            raise ValueError("switch frequency must be positive")
        if not 0.0 < self.duty < 1.0:
            raise ValueError("duty must be in (0, 1)")
        if self.transition_halfwidth < 0.0:
            raise ValueError("transition halfwidth must be >= 0")
        period = 1.0 / self.frequency
        if 2.0 * self.transition_halfwidth >= min(self.duty, 1.0 - self.duty) * period:
            raise ValueError("transition band swallows a whole switch half-cycle")

    def usable_fraction(self, switch):
        """Fraction of wall time integrated in the given switch state."""
        frac = self.duty if switch is SwitchState.ON else 1.0 - self.duty
        return frac - 2.0 * self.frequency * self.transition_halfwidth


@dataclass(frozen=True)
class RateConfig:
    """Detected rates of the source and detection chain."""

    pair_rate_detected: float = 4000.0    # Hz, coincidences at full transmission
    heralded_single_rate: float = 20000.0  # Hz, both ports summed
    cw_sample_rate: float = 20.0          # Hz, polarimeter
    coincidence_window: float = 3.75e-9   # s

    def __post_init__(self):
        if min(self.pair_rate_detected, self.heralded_single_rate,
               self.cw_sample_rate, self.coincidence_window) <= 0.0:
            raise ValueError("rates and windows must be positive")


@dataclass(frozen=True)
class NoiseConfig:
    """Noise switches; zero disables a term."""

    dark_rate: float = 300.0        # Hz per detector
    motor_sigma: float = 2.4e-3     # rad, bias set-point repeatability
    drift_rate: float = 0.0         # rad/s, slow phase drift
    walk_sigma: float = 0.0         # rad per record, random-walk step
    polarimeter_sigma: float = 2e-4  # rad on each polarimeter sample
    leakage_fraction: float = 0.1   # power fraction of the loop signal leaking into psi

    def __post_init__(self):
        if self.dark_rate < 0.0 or self.motor_sigma < 0.0 or self.walk_sigma < 0.0 \
                or self.polarimeter_sigma < 0.0:
            raise ValueError("noise magnitudes must be >= 0")
        if not 0.0 <= self.leakage_fraction <= 1.0:
            raise ValueError("leakage fraction must be in [0, 1]")


@dataclass(frozen=True)
class CountRecord:
    """Counts integrated at one bias set point in one switch state."""

    theta: float        # rad, frame angle of the loop during this record
    phi0: float         # rad, bias set point
    switch: SwitchState
    duration: float     # s of wall time allotted to this state
    n_h: int
    n_v: int
    n_hv: int

    def __post_init__(self):
        if self.duration <= 0.0:
            raise ValueError("record duration must be positive")
        if min(self.n_h, self.n_v, self.n_hv) < 0:
            raise ValueError("counts must be >= 0")


@dataclass(frozen=True, eq=False)
class PolarimeterTrace:
    """Uniformly sampled polarization ellipse readout with the switch drive."""

    t: np.ndarray
    psi: np.ndarray
    chi: np.ndarray
    drive: np.ndarray

    def __post_init__(self):
        n = len(self.t)
        if not (len(self.psi) == len(self.chi) == len(self.drive) == n):
            raise ValueError("trace columns differ in length")
        if n >= 2 and not np.all(np.diff(self.t) > 0.0):
            raise ValueError("sample times must increase")


def seed_sequence(seed):
    """SeedSequence from an int, None, or an existing SeedSequence (kept as is)."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _draw_counts(rng, lam, sample_poisson):
    if sample_poisson:
        return int(rng.poisson(lam))
    return int(round(lam))


def simulate_counts(kind, geom, phi0_list, true_omega, seed, duration_s=1800.0,
                    schedule=None, rates=None, noise=None, visibility=1.0,
                    base_phase=0.0, channel_asymmetry=0.0, sample_poisson=True):
    """Count records for one angle: every bias set point in both switch states.

    kind is NOON2, the path-entangled pair, or SINGLE, the heralded single
    photon; any other kind raises TypeError.  Port probabilities are
    fringe_probs(k (phi0 - phi_s) + base_phase, visibility) with k the
    probe's phase enhancement, so the fitted phase drops by k * phi_s
    when the loop is switched in and the on/off difference is positive.
    Bias noise (set-point jitter, drift, walk) is drawn once per set
    point and shared by the two switch states.  channel_asymmetry, the
    gain imbalance of the heralded ports, is read by SINGLE alone, so a
    nonzero value with NOON2 raises ValueError.
    """
    if kind not in (NOON2, SINGLE):
        raise TypeError(f"kind must be NOON2 or SINGLE, not {kind!r}")
    if duration_s <= 0.0:
        raise ValueError("duration must be positive")
    if len(phi0_list) == 0:
        raise ValueError("need at least one bias set point")
    if kind is NOON2 and channel_asymmetry != 0.0:
        raise ValueError("channel asymmetry is read by the single kind only")
    schedule = schedule or SwitchSchedule()
    rates = rates or RateConfig()
    noise = noise or NoiseConfig()
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must be in [0, 1]")

    children = seed_sequence(seed).spawn(len(phi0_list))
    records = []
    walk = 0.0
    for k, phi0 in enumerate(phi0_list):
        motor_ss, count_ss = children[k].spawn(2)
        motor_rng = np.random.default_rng(motor_ss)
        count_rng = np.random.default_rng(count_ss)
        jitter = motor_rng.normal(0.0, noise.motor_sigma) if noise.motor_sigma > 0.0 else 0.0
        if noise.walk_sigma > 0.0:
            walk += motor_rng.normal(0.0, noise.walk_sigma)
        drift = noise.drift_rate * (k + 0.5) * duration_s
        phi = phi0 + jitter + walk + drift

        for switch in (SwitchState.ON, SwitchState.OFF):
            t_use = duration_s * schedule.usable_fraction(switch)
            phs = sagnac_phase(geom, true_omega, switch)
            trans = switch_transmission(switch)
            p_h, p_v = fringe_probs(kind.enhancement * (phi - phs) + base_phase,
                                    visibility)
            if kind.name == "noon":
                r_pair = trans * rates.pair_rate_detected * p_h
                r_h = r_v = trans * 0.5 * rates.heralded_single_rate + noise.dark_rate
                r_hv = r_pair + r_h * r_v * rates.coincidence_window
            else:
                # heralded ports: darks only survive the herald coincidence window
                r_bg = 0.5 * rates.heralded_single_rate * noise.dark_rate \
                    * rates.coincidence_window
                a_h = rates.heralded_single_rate * (1.0 + channel_asymmetry)
                a_v = rates.heralded_single_rate * (1.0 - channel_asymmetry)
                r_h = trans * a_h * p_h + r_bg
                r_v = trans * a_v * p_v + r_bg
                r_hv = r_h * r_v * rates.coincidence_window
            # drawn in this order, n_h, n_v, n_hv, from the set point's stream
            n_h, n_v, n_hv = (_draw_counts(count_rng, r * t_use, sample_poisson)
                              for r in (r_h, r_v, r_hv))
            records.append(CountRecord(geom.frame_angle, phi0, switch,
                                       duration_s, n_h, n_v, n_hv))
    return records


def simulate_polarimeter(geom, true_omega, total_time, seed, schedule=None,
                         rates=None, noise=None):
    """Polarimeter trace of a classical probe under the switch drive.

    The loop phase phi_s appears as ellipticity chi = phi_s/2, with a
    leakage_fraction of the signal power diverted into the orientation
    psi.  Switch edges ramp linearly over +-transition_halfwidth.
    """
    schedule = schedule or SwitchSchedule()
    rates = rates or RateConfig()
    noise = noise or NoiseConfig()
    period = 1.0 / schedule.frequency
    if total_time < 10.0 * period:
        raise ValueError("trace must cover at least ten switch periods")

    n = int(round(total_time * rates.cw_sample_rate))
    t = (np.arange(n) + 0.5) / rates.cw_sample_rate
    pos = np.mod(t, period)
    drive = (pos < schedule.duty * period).astype(float)

    hw = schedule.transition_halfwidth
    envelope = drive.copy()
    if hw > 0.0:
        # signed offsets from the rising edge (cycle start) and falling edge
        s_rise = np.where(pos <= 0.5 * period, pos, pos - period)
        s_fall = pos - schedule.duty * period
        in_rise = np.abs(s_rise) < hw
        in_fall = np.abs(s_fall) < hw
        envelope[in_rise] = (s_rise[in_rise] + hw) / (2.0 * hw)
        envelope[in_fall] = (hw - s_fall[in_fall]) / (2.0 * hw)

    phs = sagnac_phase(geom, true_omega, SwitchState.ON)
    rng = np.random.default_rng(seed)
    chi = 0.5 * phs * math.sqrt(1.0 - noise.leakage_fraction) * envelope \
        + 0.5 * noise.drift_rate * t \
        + rng.normal(0.0, noise.polarimeter_sigma, n)
    psi = 0.5 * phs * math.sqrt(noise.leakage_fraction) * envelope \
        + rng.normal(0.0, noise.polarimeter_sigma, n)
    return PolarimeterTrace(t, psi, chi, drive)


def angle_sweep(kind, geom, theta_list, phi0_list, true_omega, seed,
                base_phase=None, **kwargs):
    """Records over a list of frame angles; one seed substream per angle.

    base_phase is None, no base phase, or one value per angle of theta_list.
    """
    if len(theta_list) == 0:
        raise ValueError("need at least one angle")
    phases = [0.0] * len(theta_list) if base_phase is None \
        else [float(b) for b in base_phase]
    if len(phases) != len(theta_list):
        raise ValueError("base_phase must have one value per angle")
    # fit groups records by angle and reads each set point of a group as one
    # record per switch state; a repeat would count one measurement twice
    for name, values in (("frame angle", theta_list), ("bias set point", phi0_list)):
        ordered = sorted(values)
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise ValueError(f"{name} {a:.12g} rad repeats")

    children = seed_sequence(seed).spawn(len(theta_list))
    records = []
    for theta, bp, child in zip(theta_list, phases, children):
        geom_t = replace(geom, frame_angle=theta)
        records.extend(simulate_counts(kind, geom_t, phi0_list, true_omega,
                                       child, base_phase=bp, **kwargs))
    return records


COUNTS_CSV_COLUMNS = ("theta_deg", "phi0_rad", "switch", "duration_s",
                      "n_h", "n_v", "n_hv")
TRACE_CSV_COLUMNS = ("t_s", "psi_rad", "chi_rad", "drive")
# np.savetxt's row format for fmt="%.10g", delimiter=","
_TRACE_ROW = ",".join(["%.10g"] * len(TRACE_CSV_COLUMNS)) + "\n"
# trace rows per formatted string: the string and its list of floats stay
# near 1 MB for any trace length
_TRACE_BLOCK = 4096


def write_counts_csv(records, path):
    with new_file(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(COUNTS_CSV_COLUMNS)
        for r in records:
            writer.writerow([f"{math.degrees(r.theta):.10g}", f"{r.phi0:.12g}",
                             r.switch.value, f"{r.duration:.10g}",
                             r.n_h, r.n_v, r.n_hv])


def read_counts_csv(path):
    records = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != COUNTS_CSV_COLUMNS:
            raise ValueError(f"{path}: expected header {','.join(COUNTS_CSV_COLUMNS)}")
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(COUNTS_CSV_COLUMNS):
                raise ValueError(f"{path}: row {i} has {len(row)} fields")
            try:
                theta, phi0, duration = (float(row[j]) for j in (0, 1, 3))
                n_h, n_v, n_hv = (int(row[j]) for j in (4, 5, 6))
                # a count too large for a float reads as inf here
                for j in (0, 1, 3, 4, 5, 6):
                    if not math.isfinite(float(row[j])):
                        raise ValueError(f"non-finite {COUNTS_CSV_COLUMNS[j]} {row[j]!r}")
                records.append(CountRecord(
                    theta=math.radians(theta), phi0=phi0,
                    switch=SwitchState(row[2]), duration=duration,
                    n_h=n_h, n_v=n_v, n_hv=n_hv))
            except (ValueError, KeyError) as exc:
                raise ValueError(f"{path}: row {i}: {exc}") from exc
    return records


def write_trace_csv(trace, path):
    """Write the trace as %.10g text, the bytes np.savetxt writes for it.

    Rows are formatted _TRACE_BLOCK at a time, one % operation and one
    write per block, so memory stays bounded for any trace length.  The
    file is new (see new_file): one at path is replaced, a link at path
    keeps its old bytes, and a failed write leaves no file.
    """
    columns = (trace.t, trace.psi, trace.chi, trace.drive)
    with new_file(path) as f:
        f.write(",".join(TRACE_CSV_COLUMNS) + "\n")
        for i in range(0, len(trace.t), _TRACE_BLOCK):
            block = np.column_stack([c[i:i + _TRACE_BLOCK] for c in columns])
            f.write(_TRACE_ROW * len(block) % tuple(block.ravel().tolist()))


def _data_text(line):
    """A trace line without its '#' comment and newline; empty where np.loadtxt skips the line."""
    return line.split("#", 1)[0].rstrip("\n")


def _trace_row_error(path):
    """Message naming the file row of the first trace row that is not four finite numbers.

    Rows count from the header as row 1; empty and '#' comment lines,
    which np.loadtxt skips, keep their row numbers.  Only called once a
    read has failed, so its speed does not matter.
    """
    with open(path) as f:
        f.readline()
        for i, line in enumerate(f, start=2):
            text = _data_text(line)
            if not text:
                continue
            fields = text.split(",")
            if len(fields) != len(TRACE_CSV_COLUMNS):
                return f"{path}: row {i} has {len(fields)} fields"
            for name, field in zip(TRACE_CSV_COLUMNS, fields):
                try:
                    value = float(field)
                except ValueError:
                    return f"{path}: row {i}: {name} {field.strip()!r} is not a number"
                if not math.isfinite(value):
                    return f"{path}: row {i}: non-finite {name} {field.strip()!r}"
    return None


def read_trace_csv(path):
    """Read a trace CSV; a malformed or non-finite row fails with its file row.

    np.loadtxt gets the path, not the open file: it reads a path in large
    chunks but iterates a file object line by line, which takes a third
    longer on a 48k-sample trace.
    """
    with open(path) as f:
        header = f.readline()
        if tuple(h.strip() for h in header.split(",")) != TRACE_CSV_COLUMNS:
            raise ValueError(f"{path}: expected header {','.join(TRACE_CSV_COLUMNS)}")
        if not any(_data_text(line) for line in f):
            raise ValueError(f"{path}: no samples")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ValueError(_trace_row_error(path) or f"{path}: {exc}") from exc
    if data.shape[1] != len(TRACE_CSV_COLUMNS) or not np.isfinite(data).all():
        raise ValueError(_trace_row_error(path)
                         or f"{path}: expected {len(TRACE_CSV_COLUMNS)} finite columns")
    try:
        return PolarimeterTrace(data[:, 0], data[:, 1], data[:, 2], data[:, 3])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
