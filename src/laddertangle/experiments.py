"""Canned sweep scenarios and spectral feature extraction.

The scenarios reproduce the published operating regimes of the
collision-enhanced ladder medium: probe-detuning spectra at several
collisional decay rates, a pump-amplitude sweep with fixed field/decay
ratios, and strong-pump / detuned-pump variants.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .bloch import absorption_rows
from .errors import ConfigError, ContractError
from .fluctuations import spectrum_columns, sweep_rows, v12_spectrum
from .model import (MAX_DOPPLER_WIDTH, CoherenceRates, DecayConfig, DopplerConfig, FieldConfig,
                    GeometryConfig, RB_SATURATION_DENSITY, SystemParams)
from .tables import PumpSweepTable, SpectrumTable

# Feature extraction: the background ring reaches this many half-widths
# from the expected location, and a deviation is a feature when it exceeds
# this fraction of the value range over that window.
_FEATURE_BACKGROUND_FACTOR = 4.0
_FEATURE_NOISE_FRACTION = 0.02


def default_delta1_grid() -> np.ndarray:
    return np.linspace(-800.0, 800.0, 801)


def baseline_params(p: float = 0.0, alpha1: float = 10.0, alpha2: float = 50.0,
                    delta2: float = 0.0, doppler: DopplerConfig = DopplerConfig()) -> SystemParams:
    """Room-temperature Rb ladder baseline used by all figure scenarios."""
    return SystemParams(
        decay=DecayConfig(gamma1=3.0, gamma2=0.5, p=p),
        field=FieldConfig(alpha1=alpha1, alpha2=alpha2, delta1=0.0, delta2=delta2),
        geometry=GeometryConfig(r=4.5e-4, L=0.06, n=RB_SATURATION_DENSITY),
        doppler=doppler,
    )


@dataclass(frozen=True)
class Scenario:
    """One canned sweep: base parameters, axis, grid and requested outputs.

    kind "spectrum" sweeps the probe detuning delta1; kind "pump-sweep"
    sweeps alpha2 while holding alpha2/alpha1, n/alpha1 and the decay
    rates / alpha1 ratios fixed: gamma1, gamma2 and p scale together, and
    so do the total coherence rates they derive.  The pump sweep runs its
    own p = 0 and p = 20 bases, so its base must have p = 0 and no
    explicit coherence rates.
    """

    name: str
    base: SystemParams
    kind: str
    grid: np.ndarray
    outputs: str  # "v12" | "absorption" | "both"

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.ndim != 1 or len(g) < 2 or np.any(np.diff(g) <= 0.0):
            raise ContractError("scenario grid must be strictly increasing")
        if self.kind not in ("spectrum", "pump-sweep"):
            raise ContractError(f"unknown scenario kind {self.kind!r}")
        if self.outputs not in ("v12", "absorption", "both"):
            raise ContractError(f"unknown outputs selector {self.outputs!r}")


def fig2_scenarios() -> list[Scenario]:
    """Probe-detuning spectra at p in {0, 0.5, 6, 20}: correlation spectra
    (a-d) and absorption spectra (e-h) at the common baseline."""
    grid = default_delta1_grid()
    ps = (0.0, 0.5, 6.0, 20.0)
    out = []
    for label, p in zip("abcd", ps):
        out.append(Scenario(name=f"fig2-{label}", base=baseline_params(p=p),
                            kind="spectrum", grid=grid, outputs="v12"))
    for label, p in zip("efgh", ps):
        out.append(Scenario(name=f"fig2-{label}", base=baseline_params(p=p),
                            kind="spectrum", grid=grid, outputs="absorption"))
    return out


def fig3_scenario() -> Scenario:
    """Pump-amplitude sweep at line center with the ratio transform."""
    return Scenario(name="fig3", base=baseline_params(p=0.0), kind="pump-sweep",
                    grid=np.linspace(1.0, 150.0, 150), outputs="both")


def fig4_scenarios() -> list[Scenario]:
    """Strong-pump (a, b: alpha2 = 30*alpha1) and detuned-pump
    (c, d: delta2 = -200) variants, all at p = 6."""
    grid = default_delta1_grid()
    strong = baseline_params(p=6.0, alpha1=10.0, alpha2=300.0)
    detuned = baseline_params(p=6.0, delta2=-200.0)
    return [
        Scenario(name="fig4-a", base=strong, kind="spectrum", grid=grid, outputs="v12"),
        Scenario(name="fig4-b", base=strong, kind="spectrum", grid=grid, outputs="absorption"),
        Scenario(name="fig4-c", base=detuned, kind="spectrum", grid=grid, outputs="v12"),
        Scenario(name="fig4-d", base=detuned, kind="spectrum", grid=grid, outputs="absorption"),
    ]


def all_scenarios() -> dict[str, Scenario]:
    out = {s.name: s for s in fig2_scenarios()}
    out["fig3"] = fig3_scenario()
    out.update({s.name: s for s in fig4_scenarios()})
    return out


def pump_sweep_transform(base: SystemParams, alpha2: float) -> SystemParams:
    """Scale probe/pump/density/decay together: alpha1 = alpha2/5, and the
    base density, every decay rate (gamma1, gamma2, p) and any explicit
    coherence rates scaled by alpha1/10, so the total coherence rates
    scale by alpha1/10 and never fall below their radiative floor.
    alpha2 = 50 returns the base unchanged."""
    alpha1 = alpha2 / 5.0
    scale = alpha1 / 10.0
    coherence = None if base.coherence is None else CoherenceRates(
        **{k: v * scale for k, v in asdict(base.coherence).items()})
    return replace(
        base,
        decay=DecayConfig(**{k: v * scale for k, v in asdict(base.decay).items()}),
        field=replace(base.field, alpha1=alpha1, alpha2=alpha2),
        geometry=replace(base.geometry, n=base.geometry.n * scale),
        coherence=coherence,
    )


def check_pump_sweep_base(base: SystemParams):
    """Raise ConfigError when the pump sweep would discard part of base: it
    sets p itself and derives the coherence rates from the decay rates."""
    names = [name for name, given in (("decay.p", base.decay.p != 0.0),
                                      ("coherence", base.coherence is not None)) if given]
    if names:
        raise ConfigError(f"the pump sweep runs its own p = 0 and p = 20 bases and would "
                          f"discard {', '.join(names)}")


def run_pump_sweep_scenario(scenario: Scenario, jobs: int = 1, omega: float = 0.0,
                            collect: bool = False):
    """Evaluate the pump-amplitude sweep for p = 0 and p = 20.

    The row at alpha2 is pump_sweep_transform(base, alpha2), the alpha2 = 50
    row with every rate, Rabi frequency and the density times c = alpha2 / 50.
    It runs as the alpha2 = 50 row with the detunings and omega divided by
    c, at scale c, which divides its Doppler width by c too and has the
    same columns (fluctuations.spectrum_columns).  So at line centre every
    row of one p has the same parameter set and drift pencil, and the rows
    of one p in a chunk run as one stack, factored once.
    """
    if scenario.kind != "pump-sweep":
        raise ContractError(f"scenario {scenario.name} is not a pump sweep")
    check_pump_sweep_base(scenario.base)
    grid = np.asarray(scenario.grid, dtype=float)
    if grid[0] <= 0.0:
        raise ContractError("pump sweep amplitudes alpha2 must be positive")
    scales = (grid / 50.0).tolist()
    widest = scenario.base.doppler.width / scales[0]
    if not widest <= MAX_DOPPLER_WIDTH:
        raise ConfigError(f"the pump sweep runs its alpha2 = {grid[0]:g} row at the Doppler "
                          f"width {widest:.6g} MHz (width * 50 / alpha2), above "
                          f"{MAX_DOPPLER_WIDTH:g} MHz")
    rows = []
    for p in (0.0, 20.0):
        base = pump_sweep_transform(
            replace(scenario.base, decay=replace(scenario.base.decay, p=p)), 50.0)
        f = base.field
        for c in scales:
            params = replace(base, field=replace(f, delta1=f.delta1 / c, delta2=f.delta2 / c))
            rows.append((params, f.delta1 / c, omega / c, c))
    v12, _, _, absorption, report = spectrum_columns(rows, jobs, collect)
    n = len(grid)
    table = PumpSweepTable(alpha2=grid, v12_p0=v12[:n], v12_p20=v12[n:],
                           absorption_p0=absorption[:n], absorption_p20=absorption[n:])
    return table, report


def run_scenario(scenario: Scenario, jobs: int = 1, omega: float = 0.0,
                 collect: bool = False):
    """Evaluate a scenario: (table, PhysicalityReport | None).  An
    absorption-only spectrum skips the fluctuation chain and leaves the
    v12 columns NaN, so it refuses a nonzero omega rather than discard
    it.  A spectrum takes delta1 from its grid, so a base with another
    delta1 is refused rather than discarded."""
    if scenario.kind == "pump-sweep":
        return run_pump_sweep_scenario(scenario, jobs=jobs, omega=omega, collect=collect)
    if scenario.base.field.delta1 != 0.0:
        raise ConfigError(f"a spectrum sweep takes delta1 from its grid and would discard "
                          f"field.delta1 = {scenario.base.field.delta1}")
    if scenario.outputs == "absorption" and omega != 0.0:
        raise ConfigError(f"an absorption-only spectrum has no fluctuation spectrum and "
                          f"would discard omega = {omega}")
    if scenario.outputs != "absorption":
        return v12_spectrum(scenario.base, scenario.grid, omega, jobs, collect)
    grid = np.asarray(scenario.grid, dtype=float)
    nan = np.full(len(grid), np.nan)
    absorption = sweep_rows(partial(absorption_rows, scenario.base), grid.tolist(), jobs)
    return SpectrumTable(grid, nan, nan, nan, np.array(absorption)), None


def default_feature_half_width(params: SystemParams) -> float:
    """Window half-width covering the narrow two-photon feature: five times
    the larger of gamma12 and a tenth of the pump coupling."""
    return 5.0 * max(params.rates.gamma12, params.rabi2 / 10.0)


@dataclass(frozen=True)
class FeatureReport:
    """Classification of the narrow feature at the two-photon resonance."""

    kind: str            # "dip" | "peak" | "none"
    location: float      # axis position of the extremum (MHz)
    extremum: float
    background: float
    min_value: float     # minimum over the full grid
    argmin: float


def extract_feature(axis, values, expected_location: float,
                    half_width: float) -> FeatureReport:
    """Classify the narrow feature around expected_location as dip or peak.

    The background at the expected location is estimated by a quadratic
    fit over an outer window (four half-widths on each side) excluding the
    inner +-half_width region, which absorbs the slope and curvature of
    the broad Maxwellian profile.  The deviation from that background is
    a dip or a peak when it exceeds 2% of the value range over the outer
    window.
    """
    axis = np.asarray(axis, dtype=float)
    values = np.asarray(values, dtype=float)
    if axis.ndim != 1 or axis.shape != values.shape or len(axis) < 5:
        raise ContractError("feature extraction needs matching 1-d axis/values")
    if np.any(np.diff(axis) <= 0.0):
        raise ContractError("feature axis must be strictly increasing")
    if half_width <= 0.0:
        raise ContractError("half_width must be positive")
    window = np.abs(axis - expected_location) <= _FEATURE_BACKGROUND_FACTOR * half_width
    inner_mask = np.abs(axis - expected_location) <= half_width
    ring_mask = window & ~inner_mask
    if not inner_mask.any():
        raise ContractError("feature window lies outside the grid")
    if ring_mask.sum() < 3:
        raise ContractError("background window lies outside the grid")
    coeffs = np.polyfit(axis[ring_mask] - expected_location, values[ring_mask], 2)
    background = float(np.polyval(coeffs, 0.0))
    inner_axis = axis[inner_mask]
    inner_vals = values[inner_mask]
    local_bg = np.polyval(coeffs, inner_axis - expected_location)
    k = int(np.argmax(np.abs(inner_vals - local_bg)))
    extremum = float(inner_vals[k])
    location = float(inner_axis[k])
    deviation = float(inner_vals[k] - local_bg[k])
    spread = float(np.ptp(values[window]))
    noise_floor = max(_FEATURE_NOISE_FRACTION * spread, 1e-12)
    if deviation > noise_floor:
        kind = "peak"
    elif deviation < -noise_floor:
        kind = "dip"
    else:
        kind = "none"
    kmin = int(np.argmin(values))
    return FeatureReport(kind=kind, location=location, extremum=extremum,
                         background=background, min_value=float(values[kmin]),
                         argmin=float(axis[kmin]))
