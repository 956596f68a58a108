"""Inertial proximal dynamics on Moreau envelopes.

Simulation and verification toolkit for a damped second-order flow on the
Moreau envelope of a nonsmooth convex objective, with a growing time scale,
Hessian-driven damping and a vanishing Tikhonov term that steers the
trajectory to the least-norm minimizer.

The public API is the union of the submodules' ``__all__`` lists, plus the
exception classes of ``errors``.
"""

__version__ = "0.1.0"

from .errors import *
from .objectives import *
from .dynamics import *
from .schedules import *
from .diagnostics import *
from .selftest import *
from .csvio import *
from .runconfig import *
from .svgplot import *
