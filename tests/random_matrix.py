"""Random-matrix limits, kept as test-side oracles for the Monte Carlo engine.

Two results that need no draw of their own:

* on a flat transmit profile, ``1/[(WWᴴ)⁻¹]_ii`` of an i.i.d. complex
  Gaussian ``K×N`` matrix ``W`` is ``Gamma(N − K + 1, 1)``, so the engine's
  ZF rate of stream ``i`` has the exact mean ``E log2(1 + a X)``,
  ``a = snr s_i² / K``, which :func:`expected_log2` integrates by mpmath
  quadrature (mpmath's ``expint`` form of the same mean cancels
  catastrophically at working precision, so it is not used);
* on any profile, the limiting spectrum of the Jacobi-normalized Gram
  ``D^{-1/2} G D^{-1/2}`` depends only on ``τ_j = t_j²/Σt²`` over the live
  cells and on the live stream count ``K``; :func:`jacobi_edges` gives its
  edges (Silverstein & Bai, J. Multivariate Anal. 1995), which decide
  whether NS-ZF's Jacobi series converges before any draw.

Nothing in the package calls it.
"""

from __future__ import annotations

import functools

import mpmath as mp
import numpy as np


@functools.lru_cache
def expected_log2(a: float, n: int) -> float:
    """``E log2(1 + a X)`` for ``X ~ Gamma(n, 1)``, by quadrature of the Gamma density."""
    with mp.workdps(20):
        log_norm = mp.loggamma(n)

        def integrand(x):
            return mp.log1p(a * x) * mp.exp((n - 1) * mp.log(x) - x - log_norm)

        return float(mp.quad(integrand, [0, n / 2, n, 2 * n, 4 * n, mp.inf]) / mp.log(2))


def _bisect(increasing, low: float, high: float) -> float:
    """The root of ``increasing`` on ``(low, high)``, to the last bit."""
    while (mid := 0.5 * (low + high)) not in (low, high):
        low, high = (mid, high) if increasing(mid) < 0.0 else (low, mid)
    return mid


def jacobi_edges(tau, streams: int) -> tuple[float, float]:
    """``(lower, upper)`` edges of the limiting spectrum of ``D^{-1/2} G D^{-1/2}``.

    With ``x(m) = −1/m + Σ τ_j/(1 + τ_j K m)``, the upper edge is the minimum
    of ``x`` on ``(−1/(K τ_max), 0)`` and the lower edge its maximum on
    ``m > 0``.  Both stationary points solve
    ``Σ (τ_j y/(1 + τ_j y))² = K`` with ``y = K m``, whose left side grows
    with ``|y|`` on each side, so one bisection per side finds each.  The
    Jacobi series converges iff ``max(1 − lower, upper − 1) < 1``.  With no
    more live cells than streams the lower edge is 0.
    """
    tau = np.asarray(tau, dtype=float)

    def x(m):
        return -1.0 / m + np.sum(tau / (1.0 + tau * streams * m))

    def excess(y):
        return np.sum((tau * y / (1.0 + tau * y)) ** 2) - streams

    lower, high = 0.0, 1.0
    if tau.size > streams:
        while excess(high) < 0.0:  # the left side tends to the live-cell count, above K
            high *= 2.0
        lower = x(_bisect(excess, 0.0, high) / streams)
    upper = x(-_bisect(lambda u: excess(-u), 0.0, 1.0 / tau.max()) / streams)
    return lower, upper
