"""Random wavenumber-domain channels and their correlation spectra.

The ensemble is two plain vectors, checked once by :func:`_factors`:
``rx_sigma``, one scale per stacked receive cell, and ``tx_sigma``, one per
transmit cell.  A channel draw is a complex ``(K, N)`` matrix in the
wavenumber domain whose entry ``(i, j)`` is drawn independently and scaled
by ``rx_sigma[i] * tx_sigma[j]``.  Users own contiguous row blocks, one row
per cell of their receive surface's lattice.  The Monte Carlo engine
reads each draw as its real and imaginary parts and forms the Gram matrix
from them in real arithmetic, never holding the complex matrix.  The
correlation structure is separable, which keeps its eigen-analysis
closed-form even for surfaces with hundreds of thousands of matrix entries;
its zeros up to the element-domain dimension are left to the CSV writer.
:func:`_real_vector` reads every number the package takes from outside,
and :func:`_count` every count.
"""

from __future__ import annotations

import contextlib
import numbers
import reprlib

import numpy as np

__all__ = ["correlation_eigenvalues"]


def _real_vector(values, name: str) -> np.ndarray:
    """``values`` as a nonempty, finite 1-D float array; a number is one entry.

    No entry may be a ``bool`` or a string (``"05"`` is not two points); a
    caller of one number passes ``[value]``, so a vector fails as 2-D.  An
    integer or float NumPy array is read on its dtype, without a loop.
    """
    entries = np.atleast_1d(values if isinstance(values, np.ndarray)
                            else np.asarray(values, dtype=object))
    if entries.dtype == object and all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                                       for v in entries.flat):
        with contextlib.suppress(OverflowError):  # an int past the float range is not finite
            entries = entries.astype(float)
    if entries.dtype.kind in "iuf" and entries.ndim == 1 and entries.size:
        vector = entries.astype(float, copy=False)
        if np.isfinite(vector).all():
            return vector
    raise ValueError(f"invalid value for {name}: {reprlib.repr(values)} "
                     "(must be a finite real number or a nonempty 1-D vector of them)")


def _count(value, name: str, least: int) -> int:
    """``value`` as an ``int`` of at least ``least``; a NumPy integer is the ``int`` it holds.

    A ``bool``, a float (``2.0`` too), a string or ``None`` is not a count.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least:
        return int(value)
    raise ValueError(f"invalid value for {name}: {reprlib.repr(value)} "
                     f"(must be an integer of at least {least})")


def _factors(rx_sigma, tx_sigma) -> tuple[np.ndarray, np.ndarray]:
    """The two scale vectors as read by :func:`_real_vector`, each a vector and nonnegative."""
    factors = _real_vector(rx_sigma, "rx_sigma"), _real_vector(tx_sigma, "tx_sigma")
    for name, values, vector in zip(("rx_sigma", "tx_sigma"), (rx_sigma, tx_sigma), factors):
        if vector.min() < 0.0 or np.ndim(values) == 0:
            raise ValueError(f"invalid value for {name}: {reprlib.repr(values)} "
                             "(must be a vector of nonnegative numbers)")
    return factors


def _draw_parts(rx: np.ndarray, tx: np.ndarray, seed) -> np.ndarray:
    """Real and imaginary parts, shape ``(2, K, N)``, of one scaled draw.

    One ``standard_normal((2, K, N))`` call consumes the stream in the same
    order as separate real and imaginary draws; the draw is then scaled in
    place, rows by ``rx_sigma / sqrt(2)`` and columns by ``tx_sigma``, so no
    K×N scale matrix is formed.  The factors are taken as checked.
    """
    parts = np.random.default_rng(seed).standard_normal((2, rx.size, tx.size))
    parts *= (rx / np.sqrt(2.0))[:, None]
    parts *= tx
    return parts


def _gram(parts: np.ndarray) -> np.ndarray:
    """Gram matrix ``H Hᴴ`` of ``H = parts[0] + 1j * parts[1]`` in real arithmetic.

    ``Re G = A Aᵀ + B Bᵀ`` (two symmetric rank-k products) and
    ``Im G = C − Cᵀ`` with ``C = B Aᵀ``: half the flops of the complex
    product, no complex K×N temporary, and an exactly Hermitian result.
    """
    real, imag = parts
    cross = imag @ real.T
    gram = np.empty(cross.shape, dtype=complex)
    gram.real = real @ real.T
    gram.real += imag @ imag.T
    gram.imag = cross - cross.T
    return gram


def correlation_eigenvalues(rx_sigma, tx_sigma) -> np.ndarray:
    """Eigenvalues of one user's element-domain correlation matrix, less its zero tail.

    The correlation matrix factors through semi-unitary bases acting on a
    diagonal of per-cell variances, so its eigenvalues are the pairwise
    products of the squared receive and transmit scale factors and zeros.
    The products are returned sorted, without forming the dense matrix.

    Args:
        rx_sigma: Receive scale factors of one user.
        tx_sigma: Transmit scale factors.

    Returns:
        The ``rx_sigma.size * tx_sigma.size`` products, nonincreasing.

    Raises:
        ValueError: Naming a factor that is not a vector of finite nonnegative numbers.
    """
    rx, tx = _factors(rx_sigma, tx_sigma)
    return np.sort(np.outer(rx**2, tx**2).ravel())[::-1]
