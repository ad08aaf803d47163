"""Hamiltonian matrices, Riccati equations and inequalities, and
imaginary-axis eigenvalue perturbation analysis for dense complex problems."""

from __future__ import annotations

__version__ = "0.1.0"

# Each module's ``__all__`` is the one declaration of its public names.
from .forms import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .perturbation import *  # noqa: F401,F403
from .riccati import *  # noqa: F401,F403
