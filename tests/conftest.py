from __future__ import annotations

import sys

import numpy as np
import pytest

import helpers


@pytest.fixture
def lab_fgk():
    return helpers.lab2x2()


@pytest.fixture
def reducible_fgk():
    return helpers.example3x3()


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture
def schur_calls(monkeypatch):
    """A list that grows by one per ``schur_decompose`` call made from
    ``forms``, ``perturbation`` or ``riccati``."""
    from hamriccati import forms, linalg, perturbation, riccati

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return linalg.schur_decompose(*args, **kwargs)

    for module in (forms, perturbation, riccati):
        monkeypatch.setattr(module, "schur_decompose", counted)
    return calls


@pytest.fixture
def order_schur_calls(monkeypatch):
    """A list that grows by one per ``order_schur`` call made from ``forms``,
    where every Schur reorder of ``forms``, ``perturbation`` and ``riccati``
    is made."""
    from hamriccati import forms, linalg

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return linalg.order_schur(*args, **kwargs)

    monkeypatch.setattr(forms, "order_schur", counted)
    return calls


@pytest.fixture
def eigvals_calls(monkeypatch):
    """A list that grows by a copy of the argument of every
    ``np.linalg.eigvals`` call made from ``perturbation``."""
    real = np.linalg.eigvals
    calls = []

    def counted(a):
        if sys._getframe(1).f_globals.get("__name__") == "hamriccati.perturbation":
            calls.append(np.array(a))
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls
