"""logent: logical (index-2) entropy of quantum states under noise.

The headline quantity is h(rho) = 1 - tr(rho^2). The library builds
noise channels from system-environment coupling unitaries, extracts
their Kraus operators, and verifies that for pure inputs the output
entropy is capped by the Frobenius weight of the coupled state's
off-diagonal environment blocks — together with the measurement,
mixing, and classical-partition identities surrounding that bound.
"""
from . import (amplitude_damping, channels, classical, fuzz, linalg,
               measurement, mixing, serialization, states)
from .channels import (BoundReport, CouplingModel, ExchangeReport, apply_channel,
                       block_decompose, completeness_defect, couple, exchange_entropy,
                       extract_kraus, off_block_bound, rotate_env_init,
                       verify_entropy_bound)
from .classical import (bridge_check, bridge_entropies, dit_count, logical_entropy_dist,
                        partition_entropy, validate_distribution, weight_entropy)
from .linalg import partial_trace
from .measurement import (entropy_gain, entropy_nondecreasing, project,
                          projectors_from_partition, purity_decomposition,
                          validate_partition, validate_projectors)
from .mixing import (Ensemble, MixReport, mix, mixing_bound_report, purify,
                     purify_ensemble, purification_chain_check,
                     schmidt_entropy_pair)
from .states import (DensityValidationError, NonHermitianError, NonPositiveError,
                     TraceError, density_from_pure, logical_entropy, purity,
                     random_density, random_pure_state, random_unitary,
                     validate_density)

__version__ = "0.1.0"

__all__ = [
    "amplitude_damping", "channels", "classical", "fuzz", "linalg",
    "measurement", "mixing", "serialization", "states",
    "BoundReport", "CouplingModel", "ExchangeReport", "apply_channel",
    "block_decompose", "completeness_defect", "couple", "exchange_entropy",
    "extract_kraus", "off_block_bound", "rotate_env_init", "verify_entropy_bound",
    "bridge_check", "bridge_entropies", "dit_count", "logical_entropy_dist",
    "partition_entropy", "validate_distribution", "weight_entropy",
    "partial_trace",
    "entropy_gain", "entropy_nondecreasing", "project",
    "projectors_from_partition", "purity_decomposition", "validate_partition",
    "validate_projectors",
    "Ensemble", "MixReport", "mix", "mixing_bound_report", "purify",
    "purify_ensemble", "purification_chain_check", "schmidt_entropy_pair",
    "DensityValidationError", "NonHermitianError", "NonPositiveError",
    "TraceError", "density_from_pure", "logical_entropy", "purity",
    "random_density", "random_pure_state", "random_unitary", "validate_density",
]
