"""Simulate open-system dynamics by encoding Pauli channels onto hardware noise.

The package splits into Pauli algebra (`pauli`), density matrices and Pauli
channels (`channels`), the encoding algorithms (`encoder`), noise
orbit analysis (`clusters`), Choi-state error certificates (`choi`),
exciton chain dynamics (`dynamics`), Monte Carlo sampling (`sampling`),
and file I/O (`serialize`). The `noisim` console script fronts the same
functionality.
"""

from .channels import DensityMatrix, PauliChannel, apply_pauli_channel
from .choi import (
    CertificateCheck,
    CertificateReport,
    apply_from_choi,
    choi_state,
    renyi_entropy,
    schatten_norm,
    theorem1_check,
)
from .clusters import Cluster, analyze_cluster, orbit
from .dynamics import (
    BenchmarkConfig,
    BenchmarkResult,
    default_noise_channel,
    default_target_channel,
    evolve_occupations,
    run_benchmark,
    scale_channel_weights,
    trotter_step_unitaries,
)
from .encoder import (
    EncodingResult,
    EncodingStep,
    OverEncodedError,
    effective_channel,
    encode,
    encode_adaptive,
    encode_fixed,
)
from .pauli import (
    PauliParseError,
    PauliString,
    PhasedPauli,
    identity,
    multiply,
    parse,
)
from .sampling import SampleReport, run_trials
from .validation import InvariantViolation, audit_encoding, check_conservation, check_decomposition

__version__ = "0.1.0"

__all__ = [
    "BenchmarkConfig",
    "BenchmarkResult",
    "CertificateCheck",
    "CertificateReport",
    "Cluster",
    "DensityMatrix",
    "EncodingResult",
    "EncodingStep",
    "InvariantViolation",
    "OverEncodedError",
    "PauliChannel",
    "PauliParseError",
    "PauliString",
    "PhasedPauli",
    "SampleReport",
    "analyze_cluster",
    "apply_from_choi",
    "apply_pauli_channel",
    "audit_encoding",
    "check_conservation",
    "check_decomposition",
    "choi_state",
    "default_noise_channel",
    "default_target_channel",
    "effective_channel",
    "encode",
    "encode_adaptive",
    "encode_fixed",
    "evolve_occupations",
    "identity",
    "multiply",
    "orbit",
    "parse",
    "renyi_entropy",
    "run_benchmark",
    "run_trials",
    "scale_channel_weights",
    "schatten_norm",
    "theorem1_check",
    "trotter_step_unitaries",
    "__version__",
]
