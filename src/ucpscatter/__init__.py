"""Quantum transmission through unified Cantor barrier systems.

A five-parameter family (span L, height V, scaling rho > 1, exponents alpha
and beta, stage G) interpolating between general Cantor (alpha=1, beta=0) and
general Smith-Volterra-Cantor (alpha=0, beta=1) barrier geometries, with a
closed-form transmission coefficient built on super-periodic transfer-matrix
recursions and an independent brute-force oracle for cross-validation.

Each method has one arrays entry, one pass over a k array, and a one-point
view of it, the same name without _arrays, which runs the entry at [k]:
transmission_ucp_arrays(specs, ks) gives T, R and log10 T of every spec at
every k as arrays of shape (len(specs), len(ks)), transmission_oracle_arrays
(spec, ks) and transmission_spp_arrays(V, width, Ns, ss, ks) arrays over ks,
bloch_sequence_arrays(spec, ks) the Bloch phases as a (G, len(ks)) array, and
reflection_asymptote_arrays(spec, V0, ks) the large-k asymptote over ks.

Each public name is declared once, in the __all__ of the module that defines
it; the package re-exports every module's __all__ as its own.
"""

__version__ = "0.4.0"

from . import analysis, geometry, oracle, scattering
from .geometry import *
from .scattering import *
from .oracle import *
from .analysis import *

__all__ = ["__version__", *geometry.__all__, *scattering.__all__, *oracle.__all__,
           *analysis.__all__]
