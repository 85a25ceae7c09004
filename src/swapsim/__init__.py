"""swapsim: simulator and analysis toolkit for photonic entanglement swapping
from a quantum-dot biexciton-exciton cascade source."""

from .qstate import (
    BellKind,
    DensityMatrix,
    PureState,
    QStateError,
    bell_density,
    bell_state,
    fidelity_mixed,
    fidelity_pure,
    horodecki_s,
    maximally_mixed,
    partial_trace,
    permute_qubits,
    project_to_physical,
    pure_density,
    tensor,
)
from .source import (
    NoiseKind,
    NoiseModel,
    SourceError,
    SourceParams,
    apply_noise,
    calibrate,
    dephasing,
    depolarizing,
    emit_pair,
    fss_phase_diffusion,
    ideal_pair,
)
from .interference import (
    PATTERNS,
    BsmConvention,
    BsmPovm,
    BsmSettings,
    InterferenceError,
    bsm_povm,
    calibrate_temporal,
    effective_indistinguishability,
    gate_response,
    pattern_operators,
)
from .swap import (
    BoundCheck,
    SwapCurve,
    SwapError,
    SwapResult,
    classical_bound_check,
    compose,
    control_no_heralding,
    herald,
    predict,
)
from .tomography import (
    MeasurementSetting,
    TomographyError,
    TomographyRun,
    bootstrap_errors,
    born_probabilities,
    linear_inversion,
    mle_reconstruct,
    simulate_counts,
    standard_settings,
)
from .config import ApparatusConfig, ConfigError, McError, RunConfig, default_config, load_config

__version__ = "0.1.0"

# The Monte Carlo's names load swapsim.mc on first use (PEP 562), so that the
# commands that do not simulate never compile it.
_MC_NAMES = frozenset((
    "Run", "fourfold_coincidences", "g2_histogram", "hom_histogram", "read_stream", "simulate_runs",
    "simulate_tomography_run", "write_stream",
))


def __getattr__(name: str):
    if name in _MC_NAMES:
        from . import mc
        return getattr(mc, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Star-import and dir() list every public name, the lazy ones and the
# submodules (mc among them) included, whether or not mc has been loaded.
__all__ = sorted({*(name for name in globals() if not name.startswith("_")), "mc", *_MC_NAMES})


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
