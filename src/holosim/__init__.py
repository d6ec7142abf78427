"""Wavenumber-domain channel modeling for dense planar antenna surfaces.

The package models the multi-user link between large planar surfaces whose
patch spacing is a fraction of the wavelength.  Channels are represented in
the wavenumber domain, where the propagating field reduces to a finite set
of Fourier cells with closed-form per-cell variances; linear precoders and
spectral-efficiency estimates (Monte Carlo and closed form) operate directly
on that compact representation.  A CLI (``holosim``) exposes experiment
presets that emit reproducible CSV artifacts.
"""

from .channel import correlation_eigenvalues
from .geometry import (
    ArrayGeometry,
    lattice_ellipse,
)
from .harness import (
    ScenarioConfig,
    parse_config,
    run_preset,
)
from .precoding import SingularChannelError
from .rate import (
    SEResult,
    SINR_CAP,
    mrt_theoretical_bound,
    simulated_se,
    zf_theoretical,
)
from .spectrum import (
    VarianceMap,
    variance_map,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry",
    "lattice_ellipse",
    "VarianceMap",
    "variance_map",
    "correlation_eigenvalues",
    "SingularChannelError",
    "SEResult",
    "SINR_CAP",
    "simulated_se",
    "mrt_theoretical_bound",
    "zf_theoretical",
    "ScenarioConfig",
    "parse_config",
    "run_preset",
    "__version__",
]
