"""Shared fixtures: variance maps reused across test modules, a call counter."""

import pytest

from holosim import ArrayGeometry, variance_map


@pytest.fixture(scope="session")
def map_l4():
    """49-cell map of a 12x12 surface at one-third-wavelength pitch."""
    return variance_map(ArrayGeometry(12, 12, 1 / 3))


@pytest.fixture(scope="session")
def rx_map_small():
    """13-cell map of a 6x6 surface at one-third-wavelength pitch."""
    return variance_map(ArrayGeometry(6, 6, 1 / 3))


@pytest.fixture(scope="session")
def tx_map_medium():
    """69-cell map of a 14x14 surface at one-third-wavelength pitch."""
    return variance_map(ArrayGeometry(14, 14, 1 / 3))


@pytest.fixture()
def count_calls(monkeypatch):
    """Wrap ``owner.name`` so that each call is recorded in a returned list."""

    def install(owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return install
