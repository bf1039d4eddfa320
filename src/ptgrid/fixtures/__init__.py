"""Bundled calibrated scenario fixtures and example game files.

The storage fixture pins the grid parameters found by the calibration search
(see fixtures/storage_default.cfg) so that the rational equilibria stay
interior across the whole selling-price sweep; the DSM fixture pins the
frozen seed-42 synthetic profiles and the matching game parameters.
"""
from __future__ import annotations

from pathlib import Path


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled fixture file, which lies beside this
    module."""
    path = Path(__file__).parent / name
    if not path.exists():
        raise FileNotFoundError(f"no bundled fixture named {name!r}")
    return path


def storage_config_path() -> Path:
    return fixture_path("storage_default.cfg")


def dsm_config_path() -> Path:
    return fixture_path("dsm_default.cfg")


def example_game_path(name: str = "matching_pennies") -> Path:
    return fixture_path(f"{name}.game")
