"""Quantum transmission through unified Cantor barrier systems.

A five-parameter family (span L, height V, scaling rho > 1, exponents alpha
and beta, stage G) interpolating between general Cantor (alpha=1, beta=0) and
general Smith-Volterra-Cantor (alpha=0, beta=1) barrier geometries, with a
closed-form transmission coefficient built on super-periodic transfer-matrix
recursions and an independent brute-force oracle for cross-validation.
"""

__version__ = "0.2.0"

from .analysis import (
    SaturationReport,
    ScalingFit,
    constant_area_height,
    fit_scaling,
    reflection_asymptote,
    saturation_scan,
)
from .geometry import (
    InvalidSpecError,
    SegmentGeometry,
    UcpSpec,
    build_segments,
    gap_length,
    max_valid_stage,
    segment_length,
    super_period,
)
from .oracle import (
    OracleInfeasibleError,
    propagation_matrix,
    region_sequence,
    transmission_oracle,
    transmission_oracle_batch,
)
from .scattering import (
    BlochSequence,
    ScatterResult,
    TransferMatrix,
    barrier_matrix,
    bloch_sequence,
    transmission_spp,
    transmission_ucp,
    transmission_ucp_batch,
)
from .special import q_pochhammer

__all__ = [
    "__version__",
    "InvalidSpecError",
    "OracleInfeasibleError",
    "UcpSpec",
    "SegmentGeometry",
    "TransferMatrix",
    "BlochSequence",
    "ScatterResult",
    "ScalingFit",
    "SaturationReport",
    "q_pochhammer",
    "segment_length",
    "gap_length",
    "super_period",
    "build_segments",
    "max_valid_stage",
    "barrier_matrix",
    "bloch_sequence",
    "transmission_ucp",
    "transmission_ucp_batch",
    "transmission_spp",
    "propagation_matrix",
    "region_sequence",
    "transmission_oracle",
    "transmission_oracle_batch",
    "constant_area_height",
    "reflection_asymptote",
    "fit_scaling",
    "saturation_scan",
]
