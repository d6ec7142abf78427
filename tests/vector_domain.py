"""The vector domain, kept as a test-side oracle for the Gram-domain engine.

holosim evaluates every precoder from the Gram block of a draw and never
forms a precoding matrix.  This module forms one from textbook formulas on
the complex draw itself, so the tests can check the engine against code
that shares nothing with its cores: MRT as ``Hᴴ/‖H‖_F``, ZF by the
pseudo-inverse, MMSE by the regularized solve, NS-ZF by the Jacobi series
summed term by term, and the SINR read off the coupled matrix ``H V``.
Nothing in the package calls it.
"""

from __future__ import annotations

import numpy as np

from holosim.channel import _draw_parts, _factors


def complex_draw(rx, tx, seed) -> np.ndarray:
    """The complex ``(K, N)`` draw that the engine reads as real parts for ``seed``."""
    parts = _draw_parts(*_factors(rx, tx), seed)
    return parts[0] + 1j * parts[1]


def jacobi_series(matrix: np.ndarray, order: int) -> np.ndarray:
    """``Σₖ (−D⁻¹E)ᵏ D⁻¹`` for ``k = 0..order``, summed term by term."""
    inv_diag = np.diag(1.0 / np.diag(matrix))
    step = -inv_diag @ (matrix - np.diag(np.diag(matrix)))
    return sum(np.linalg.matrix_power(step, k) @ inv_diag for k in range(order + 1))


def _equal_columns(h: np.ndarray, columns) -> np.ndarray:
    """``columns(H_live)`` on the live streams, each column of norm ``1/√K_live``."""
    live = np.flatnonzero(np.any(h != 0.0, axis=1))
    v = np.zeros(h.T.shape, dtype=complex)
    v[:, live] = columns(h[live])
    v[:, live] /= np.linalg.norm(v[:, live], axis=0) * np.sqrt(live.size)
    return v


def mrt(h: np.ndarray) -> np.ndarray:
    return h.conj().T / np.linalg.norm(h)


def zf(h: np.ndarray) -> np.ndarray:
    return _equal_columns(h, np.linalg.pinv)


def mmse(h: np.ndarray, snr: float) -> np.ndarray:
    """``Hᴴ(HHᴴ + (K/snr) I)⁻¹``, Frobenius-normalized; ``K`` counts dead streams."""
    k = h.shape[0]
    v = np.linalg.solve(h @ h.conj().T + (k / snr) * np.eye(k), h).conj().T
    return v / np.linalg.norm(v)


def ns_zf(h: np.ndarray, order: int) -> np.ndarray:
    def columns(live):
        return live.conj().T @ jacobi_series(live @ live.conj().T, order)

    return _equal_columns(h, columns)


def powers(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked per-stream signal ``|(HV)_ii|²`` and interference ``Σ_{j≠i} |(HV)_ij|²``."""
    squares = np.abs(h @ v) ** 2
    signal = np.diagonal(squares)
    return np.array([signal, squares.sum(axis=1) - signal])


def rates(h: np.ndarray, scheme: str, snr_grid_db, order: int = 0) -> np.ndarray:
    """``log2(1 + SINR)`` of every stream at every SNR point, at unit noise."""
    columns = []
    for snr in 10.0 ** (np.asarray(snr_grid_db, dtype=float) / 10.0):
        v = {"MRT": mrt, "ZF": zf, "MMSE": lambda h: mmse(h, snr),
             "NS-ZF": lambda h: ns_zf(h, order)}[scheme](h)
        signal, interference = powers(h, v)
        columns.append(np.log2(1.0 + snr * signal / (snr * interference + 1.0)))
    return np.column_stack(columns)
