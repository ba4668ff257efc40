"""Pump-probe entanglement spectra in a Doppler-broadened ladder medium.

Mean-field steady states of a driven three-level cascade with collisional
dephasing, linearized quantum fluctuations with Einstein-relation Langevin
noise, and propagation of the two-mode field covariance through the cell.
"""

from .errors import (ConfigError, ContractError, DivergenceError, LadderError,
                     NoSteadyStateError, ParameterError, ResonanceError,
                     UnsupportedOrderError)
from .model import (CoherenceRates, DecayConfig, DopplerConfig, FieldConfig,
                    GeometryConfig, SystemParams, derive_coherence_rates,
                    derive_couplings, load_config, params_from_config,
                    params_to_config, save_config, validate_regime,
                    with_overrides)
from .bloch import absorption_exact, absorption_perturbative, eq1_terms
from .doppler import VelocityClasses, average, build_classes
from .fluctuations import (DuanResult, PhysicalityReport, duan_v12,
                           field_system_at, propagate, vacuum_covariance,
                           v12_spectrum)
from .tables import PumpSweepTable, SpectrumTable
from .experiments import (FeatureReport, Scenario, all_scenarios,
                          baseline_params, extract_feature, fig2_scenarios,
                          fig3_scenario, fig4_scenarios, run_scenario)

__version__ = "0.1.0"
