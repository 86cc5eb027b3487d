"""tweezersim: pulse-level simulation and analysis of ancilla-based
readout, loss detection, and algorithmic cooling for tweezer-trapped atoms."""

from .analysis import (
    DetectionResult,
    DoubleGaussianFit,
    TemperatureEstimate,
    aggregate_signals,
    fit_double_gaussian_with_offset,
    fit_heating_sideband,
    nbar_from_ratio,
    nonthermal_correction,
    optimize_threshold,
    profile_likelihood_cooling_peak,
    ratio_from_nbar,
    temperature_from_spectrum,
)
from .dynamics import (
    NoiseModel,
    NoiseRealization,
    PulseKind,
    PulseSpec,
    QuasiStatic,
    SpectralDensity,
    build_hamiltonian,
    evolve_rows,
    load_psd_csv,
    propagator,
    sample_noise,
    sideband_rabi,
)
from .gates import (
    GateErrorSpec,
    ImagingSpec,
    PairBatch,
    apply_cz,
    calibrate_imaging,
    image_ancilla,
    rotate,
)
from .protocols import (
    ProtocolConfig,
    ShotTable,
    SidebandSpectrum,
    calibrate_phase,
    run_algorithmic_cooling,
    run_loss_detection,
    run_repeated_readout,
    simulate_sideband_spectrum,
)
from .response import (
    InfidelityBudget,
    ResponseFunction,
    ResponseQuery,
    infidelity,
    response_closed_form,
)
from .states import (
    ElectronicLevel,
    HybridAtomState,
    ThermalSpec,
    TrapSpec,
    lamb_dicke,
    prepare_state,
    remove_one_quantum,
    thermal_distribution,
)

__version__ = "0.1.0"
