"""Wavenumber-domain channel modeling for dense planar antenna surfaces.

The package models the multi-user link between large planar surfaces whose
patch spacing is a fraction of the wavelength.  Channels are represented in
the wavenumber domain, where the propagating field reduces to a finite set
of Fourier cells with closed-form per-cell variances; linear precoders and
spectral-efficiency estimates (Monte Carlo and closed form) operate directly
on that compact representation.  A CLI (``holosim``) exposes experiment
presets that emit reproducible CSV artifacts.
"""

from .channel import (
    assemble_element_channel,
    correlation_eigenvalues,
    draw_wavenumber_channel,
)
from .geometry import (
    ArrayGeometry,
    WavenumberLattice,
    harmonic_basis,
    lattice_ellipse,
    patch_positions,
)
from .harness import (
    ScenarioConfig,
    parse_config,
    run_preset,
)
from .precoding import (
    SingularChannelError,
    mmse,
    mrt,
    ns_zf,
    zf,
)
from .rate import (
    SEResult,
    SINR_CAP,
    mrt_theoretical_bound,
    per_stream_sinr,
    simulated_se,
    zf_theoretical,
)
from .spectrum import (
    VarianceMap,
    cell_variance,
    hemisphere_total,
    variance_map,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry",
    "WavenumberLattice",
    "patch_positions",
    "lattice_ellipse",
    "harmonic_basis",
    "VarianceMap",
    "cell_variance",
    "hemisphere_total",
    "variance_map",
    "draw_wavenumber_channel",
    "assemble_element_channel",
    "correlation_eigenvalues",
    "SingularChannelError",
    "mrt",
    "zf",
    "mmse",
    "ns_zf",
    "SEResult",
    "SINR_CAP",
    "per_stream_sinr",
    "simulated_se",
    "mrt_theoretical_bound",
    "zf_theoretical",
    "ScenarioConfig",
    "parse_config",
    "run_preset",
    "__version__",
]
