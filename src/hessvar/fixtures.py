"""Named potentials used by the CLI and test fixtures."""

from __future__ import annotations

import numpy as np


def _zero(*X):
    return 0.0 * X[0]


def _cubic_biharmonic(*X):
    return X[0] ** 3 * X[1]


def _cubic_harmonic(*X):
    return X[0] ** 3 - 3.0 * X[0] * X[1] ** 2


def _cubic_axes(*X):
    return sum(x**3 for x in X)


def _quadratic_iso(*X):
    return 0.5 * sum(x**2 for x in X)


def _harmonic_exp(*X):
    return np.exp(X[0]) * np.cos(X[1])


POTENTIALS = {
    "zero": _zero,
    "cubic_biharmonic": _cubic_biharmonic,
    "cubic_harmonic": _cubic_harmonic,
    "cubic_axes": _cubic_axes,
    "quadratic_iso": _quadratic_iso,
    "harmonic_exp": _harmonic_exp,
}


def potential(name: str, amplitude: float = 1.0):
    """Callable ``(X1, ..., Xn) -> amplitude * u(x)`` from the registry."""
    if name not in POTENTIALS:
        known = ", ".join(sorted(POTENTIALS))
        raise KeyError(f"unknown potential {name!r}; known: {known}")
    fn = POTENTIALS[name]

    def scaled(*X):
        return amplitude * fn(*X)

    return scaled
