"""Quantum transmission through unified Cantor barrier systems.

A five-parameter family (span L, height V, scaling rho > 1, exponents alpha
and beta, stage G) interpolating between general Cantor (alpha=1, beta=0) and
general Smith-Volterra-Cantor (alpha=0, beta=1) barrier geometries, with a
closed-form transmission coefficient built on super-periodic transfer-matrix
recursions and an independent brute-force oracle for cross-validation.

Each engine has one array entry point and one one-point call:
transmission_ucp_arrays(specs, ks) gives T, R and log10 T of every spec at
every k as arrays of shape (len(specs), len(ks)), and
transmission_oracle_arrays(spec, ks) of one spec at every k;
transmission_ucp(spec, k) and transmission_oracle(spec, k) give one point.
"""

__version__ = "0.3.0"

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
    transmission_oracle_arrays,
)
from .scattering import (
    BlochSequence,
    ScatterResult,
    TransferMatrix,
    barrier_matrix,
    bloch_sequence,
    transmission_spp,
    transmission_ucp,
    transmission_ucp_arrays,
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
    "transmission_ucp_arrays",
    "transmission_spp",
    "propagation_matrix",
    "region_sequence",
    "transmission_oracle",
    "transmission_oracle_arrays",
    "constant_area_height",
    "reflection_asymptote",
    "fit_scaling",
    "saturation_scan",
]
