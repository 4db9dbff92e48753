"""Numerical laboratory for the Einstein-Lichnerowicz conformal constraint system."""

__version__ = "0.1.0"

from . import bubbles      # blow-up profiles and far-field one-form asymptotics
from . import conformal    # physics data <-> system coefficients <-> initial data
from . import diagnostics  # stability margin, Pohozaev, covariance
from . import geometry     # grids, fields, differential operators
from . import green        # Euclidean Lame kernel and conformal Killing basis
from . import harness      # sweeps, demos, verification suites
from . import instability  # explicit blow-up families on the round sphere
from . import solver       # coupled scalar/momentum solves
