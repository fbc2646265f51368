"""nlslab: spectral laboratory for a dissipatively coupled cubic NLS pair.

Solves the two-component system with cross-coupled cubic damping on a
periodic grid by Strang splitting with exact substeps, extracts the
large-time scattering amplitudes, and computes the per-frequency sign
profile m that decides which component's scattering state survives, by two
independent routes.  Amplitude sweeps fit the small-data remainder orders;
built-in scenarios exercise the decay/non-decay criteria.

The package API is the union of its modules' `__all__` lists, each
re-exported here unchanged; a name is public exactly when its module lists it.
"""

from .spectral import *
from .dynamics import *
from .scattering import *
from .experiments import *
from .config import *
from .tables import *

__version__ = "0.1.0"
