"""Physical parameter model and configuration schema.

Single source of truth for units and conventions:

* all rates, detunings and Rabi couplings are in MHz, treated as
  angular-frequency-equivalent units used consistently everywhere
  (no 2*pi conversions inside the engine);
* lengths in metres, densities in m^-3;
* the Doppler width is the 1/e half-width of the Gaussian distribution
  of one-photon probe detuning shifts k1*v (530 MHz at room temperature
  for the Rb ladder used as default).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field as _field
from pathlib import Path

from .errors import ConfigError, ParameterError

SCHEMA_VERSION = 1

HBAR = 1.054571817e-34          # J s
EPSILON_0 = 8.8541878128e-12    # F/m
SPEED_OF_LIGHT = 299792458.0    # m/s
C_M_MHZ = SPEED_OF_LIGHT * 1e-6  # metres per microsecond; pairs with MHz rates

# 85Rb 5S -> 5P3/2 -> 5D5/2 defaults
RB_MU12 = 2.54e-29              # C m
RB_MU23 = 6.0e-30               # C m
RB_LAMBDA1 = 780.24e-9          # m
RB_LAMBDA2 = 775.98e-9          # m
RB_SATURATION_DENSITY = 8.5e15  # m^-3

DOPPLER_RULES = ("hermite", "trapezoid")
MAX_HERMITE_ORDER = 512
# Trapezoid rule bounds: twice the densest rule convergence studies use
# (65537 nodes), and a half-span whose edge weight exp(-span^2) >= exp(-400)
# stays far from underflow (exp(-745)), where normalization gives NaN.
MAX_TRAPEZOID_NODES = 131073
MAX_TRAPEZOID_SPAN = 20.0
# Doppler width bound (MHz).  The model's rotating-wave approximation needs
# every Doppler shift far below the optical frequencies, 2.4e9 MHz at 780 nm in
# these units, and the widest trapezoid rule (span 20) reaches about a tenth of
# that here.  Far beyond, the squared shift factors of the steady-state checks
# overflow (bloch._pencil_check) and the absorption rounds to noise.
MAX_DOPPLER_WIDTH = 1e7

# relative slack when checking explicit coherence rates against the
# radiative floor gamma12 >= gamma1, gamma13 >= gamma2, gamma23 >= gamma1+gamma2
RADIATIVE_FLOOR_RTOL = 1e-12


def _require(cond: bool, msg: str):
    if not cond:
        raise ParameterError(msg)


@dataclass(frozen=True)
class DecayConfig:
    """Population decay and collisional dephasing rates (MHz).

    gamma1/gamma2 are half the 2->1 and 3->2 population decay rates.  p is
    the collisional dephasing rate of the standard collision model, which
    adds p to gamma12 and gamma23 and 2p to gamma13.  Any other split of
    the collisional rates is given as explicit SystemParams.coherence.
    """

    gamma1: float = 3.0
    gamma2: float = 0.5
    p: float = 0.0

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "p"):
            _require(getattr(self, name) >= 0.0, f"decay.{name} must be >= 0")


@dataclass(frozen=True)
class CoherenceRates:
    """Total coherence decay rates, radiative plus collisional (MHz)."""

    gamma12: float
    gamma13: float
    gamma23: float

    def __post_init__(self):
        for name in ("gamma12", "gamma13", "gamma23"):
            _require(getattr(self, name) >= 0.0, f"coherence.{name} must be >= 0")


def derive_coherence_rates(decay: DecayConfig) -> CoherenceRates:
    """Total coherence rates from population decay plus collisional dephasing.

    Radiative part is (Gamma_i + Gamma_j)/2 with level widths
    Gamma_1 = 0, Gamma_2 = 2*gamma1, Gamma_3 = 2*gamma2.
    """
    return CoherenceRates(
        gamma12=decay.gamma1 + decay.p,
        gamma13=decay.gamma2 + 2.0 * decay.p,
        gamma23=decay.gamma1 + decay.gamma2 + decay.p,
    )


@dataclass(frozen=True)
class FieldConfig:
    """Driving-field amplitudes, detunings and atom-field couplings.

    alpha1/alpha2 are the initial coherent-state amplitudes of probe and
    pump; delta1 = w1 - w21 and delta2 = w2 - w32 are laboratory-frame
    detunings.  Couplings g1/g2 (MHz per unit photon amplitude) may be
    given directly; otherwise they are derived from the dipole moments
    and the interaction volume.
    """

    alpha1: float = 10.0
    alpha2: float = 50.0
    delta1: float = 0.0
    delta2: float = 0.0
    g1: float | None = None
    g2: float | None = None
    mu12: float | None = RB_MU12
    mu23: float | None = RB_MU23
    lambda1: float = RB_LAMBDA1
    lambda2: float = RB_LAMBDA2

    def __post_init__(self):
        _require(self.alpha1 >= 0.0, "field.alpha1 must be >= 0")
        _require(self.alpha2 >= 0.0, "field.alpha2 must be >= 0")
        _require(self.lambda1 > 0.0, "field.lambda1 must be > 0")
        _require(self.lambda2 > 0.0, "field.lambda2 must be > 0")
        for name in ("g1", "g2"):
            val = getattr(self, name)
            if val is not None:
                _require(val >= 0.0, f"field.{name} must be >= 0")


@dataclass(frozen=True)
class GeometryConfig:
    """Interaction volume: beam radius r, medium length L, density n."""

    r: float = 4.5e-4
    L: float = 0.06
    n: float = RB_SATURATION_DENSITY

    def __post_init__(self):
        _require(self.r > 0.0, "geometry.r must be > 0")
        _require(self.L >= 0.0, "geometry.L must be >= 0")
        _require(self.n >= 0.0, "geometry.n must be >= 0")
        _require(math.isfinite(self.N), "the atom number n * pi r^2 L must be finite")

    @property
    def volume(self) -> float:
        return math.pi * self.r * self.r * self.L

    @property
    def N(self) -> float:
        """Total atom number in the interaction volume."""
        return self.n * self.volume


@dataclass(frozen=True)
class DopplerConfig:
    """Maxwellian averaging configuration.

    width is the 1/e half-width of the Gaussian distribution of probe
    detuning shifts (MHz).  residual_mismatch gives the counterpropagating
    pump its own Doppler shift k2*v = (lambda1/lambda2)*k1*v; switching it
    off takes k2 = k1, which makes the two-photon resonance Doppler free
    and is only valid while the two-photon Doppler width
    |lambda1/lambda2 - 1|*width stays well below gamma13 (for the Rb
    780/776 nm ladder that width is 2.9 MHz at width = 530 MHz).  rule
    selects the velocity quadrature: "trapezoid" (uniform grid over
    +-span*width, span <= 20, nodes <= 131073) or "hermite" (Gauss-Hermite,
    order nodes <= 512).  The averaged response carries structure at the
    scale of gamma12 (a few MHz) inside the Maxwellian, which Gauss-Hermite
    orders in the supported range cannot resolve, so the default is the
    dense uniform rule that the shipped scenarios use.
    """

    width: float = 530.0
    nodes: int = 2561
    residual_mismatch: bool = True
    rule: str = "trapezoid"
    span: float = 3.0

    def __post_init__(self):
        _require(0.0 <= self.width <= MAX_DOPPLER_WIDTH,
                 f"doppler.width must be >= 0 and <= {MAX_DOPPLER_WIDTH:g}")
        _require(self.nodes >= 1, "doppler.nodes must be >= 1")
        _require(0.0 < self.span <= MAX_TRAPEZOID_SPAN,
                 f"doppler.span must be > 0 and <= {MAX_TRAPEZOID_SPAN:g}")
        if self.rule not in DOPPLER_RULES:
            raise ParameterError(f"doppler.rule must be one of {DOPPLER_RULES}")
        most = MAX_HERMITE_ORDER if self.rule == "hermite" else MAX_TRAPEZOID_NODES
        _require(self.nodes <= most, f"doppler.nodes must be <= {most} with rule {self.rule!r}")


def derive_couplings(field_cfg: FieldConfig, geometry: GeometryConfig) -> tuple[float, float]:
    """Atom-field couplings g1, g2 in MHz per unit photon amplitude.

    g_i = mu_i * sqrt(hbar*w_i / (2 eps0 V)) / hbar, converted to MHz.
    Direct g1/g2 values take precedence over the dipole-moment route.
    """
    out = []
    for direct, mu, lam, name in (
        (field_cfg.g1, field_cfg.mu12, field_cfg.lambda1, "g1"),
        (field_cfg.g2, field_cfg.mu23, field_cfg.lambda2, "g2"),
    ):
        if direct is not None:
            out.append(float(direct))
            continue
        if mu is None:
            raise ConfigError(f"field.{name}: neither a direct coupling nor a dipole moment supplied")
        volume = geometry.volume
        if volume <= 0.0:
            raise ConfigError(f"field.{name}: interaction volume is zero; supply {name} directly")
        omega = 2.0 * math.pi * SPEED_OF_LIGHT / lam
        eps_photon = math.sqrt(HBAR * omega / (2.0 * EPSILON_0 * volume))
        out.append(mu * eps_photon / HBAR * 1e-6)
    return out[0], out[1]


@dataclass(frozen=True)
class SystemParams:
    """Complete, validated parameter set of the driven ladder medium.

    coherence holds explicit total coherence rates when they were given
    and None otherwise.  The engine reads rates (coherence, or the rates
    derived from decay) and couplings (derive_couplings), both resolved on
    every construction (including dataclasses.replace), so they always
    follow the sections, and a set without derivable couplings is not built.
    """

    decay: DecayConfig = _field(default_factory=DecayConfig)
    field: FieldConfig = _field(default_factory=FieldConfig)
    geometry: GeometryConfig = _field(default_factory=GeometryConfig)
    doppler: DopplerConfig = _field(default_factory=DopplerConfig)
    coherence: CoherenceRates | None = None
    rates: CoherenceRates = _field(init=False, repr=False, compare=False)
    couplings: tuple[float, float] = _field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rates = derive_coherence_rates(self.decay) if self.coherence is None else self.coherence
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "couplings", derive_couplings(self.field, self.geometry))
        # Below the radiative floor the master equation is not of Lindblad
        # form and its Einstein noise kernel is not positive.
        d = self.decay
        floor = CoherenceRates(gamma12=d.gamma1, gamma13=d.gamma2,
                               gamma23=d.gamma1 + d.gamma2)
        for name in ("gamma12", "gamma13", "gamma23"):
            rate, least = getattr(rates, name), getattr(floor, name)
            _require(rate >= least * (1.0 - RADIATIVE_FLOOR_RTOL),
                     f"coherence.{name} = {rate:.6g} MHz is below its radiative "
                     f"floor {least:.6g} MHz set by gamma1/gamma2")

    @property
    def rabi1(self) -> float:
        """Probe mean-field coupling g1*alpha1 (MHz)."""
        return self.couplings[0] * self.field.alpha1

    @property
    def rabi2(self) -> float:
        """Pump mean-field coupling g2*alpha2 (MHz)."""
        return self.couplings[1] * self.field.alpha2


def validate_regime(params: SystemParams) -> list[str]:
    """Soft checks of the operating regime (warnings only): the weak
    probe must not be brighter than the pump."""
    warnings = []
    if params.field.alpha1 > params.field.alpha2:
        warnings.append(
            f"probe amplitude alpha1 = {params.field.alpha1:.6g} exceeds "
            f"pump amplitude alpha2 = {params.field.alpha2:.6g}"
        )
    return warnings


# ---------------------------------------------------------------------------
# configuration document (JSON-compatible, versioned, strict)
# ---------------------------------------------------------------------------

_SECTION_TYPES = {
    "decay": DecayConfig,
    "coherence": CoherenceRates,
    "field": FieldConfig,
    "geometry": GeometryConfig,
    "doppler": DopplerConfig,
}

# JSON value types accepted for each declared field type; a bool is not a number
_JSON_TYPES = {"float": (int, float), "float | None": (int, float, type(None)),
               "int": (int,), "bool": (bool,), "str": (str,)}


def _section_from_dict(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    allowed = cls.__dataclass_fields__
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown field")
    kwargs = {}
    for key, value in data.items():
        declared = allowed[key].type
        if (isinstance(value, bool) != (declared == "bool")
                or not isinstance(value, _JSON_TYPES[declared])):
            raise ConfigError(f"{path}.{key}: expected {declared}, got {type(value).__name__}")
        if declared.startswith("float") and value is not None:
            try:
                value = float(value)
            except OverflowError:   # an integer literal beyond the float range
                value = math.inf if value > 0 else -math.inf
            if not math.isfinite(value):
                raise ConfigError(f"{path}.{key}: expected a finite number, got {value}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (ParameterError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def params_from_config(data: dict) -> SystemParams:
    """Build SystemParams from a parsed configuration document (strict)."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be an object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    unknown = set(data) - set(_SECTION_TYPES) - {"schema_version"}
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown section")
    kwargs = {}
    for name, cls in _SECTION_TYPES.items():
        if name in data:
            kwargs[name] = _section_from_dict(cls, data[name], name)
    return SystemParams(**kwargs)


def params_to_config(params: SystemParams) -> dict:
    """Serialize SystemParams to the canonical configuration document.

    Coherence rates are written only when they were given explicitly, so
    editing p or a decay rate in the document moves every rate that
    follows from it.
    """
    doc = {"schema_version": SCHEMA_VERSION, "decay": asdict(params.decay)}
    if params.coherence is not None:
        doc["coherence"] = asdict(params.coherence)
    doc["field"] = asdict(params.field)
    doc["geometry"] = asdict(params.geometry)
    doc["doppler"] = asdict(params.doppler)
    return doc


def load_config(path: str | Path) -> SystemParams:
    """Read and validate a JSON configuration file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (OSError, ValueError) as exc:   # unreadable, not UTF-8, or an overlong integer
        raise ConfigError(f"{path}: cannot read: {exc}") from exc
    return params_from_config(data)
