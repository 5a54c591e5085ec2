"""Adaptive finite elements for elastic scattering by periodic gratings.

The package solves time-harmonic elastic wave scattering by one-dimensional
periodic grating surfaces: the half space above the grating is truncated by
a complex-stretched absorbing layer, the resulting problem is discretized
with quasi-periodic P1 elements, and the mesh is driven by a residual
a posteriori estimator until the discretization error measure meets the
requested tolerance.  Modal post-processing recovers the outgoing wave
potentials and grating efficiencies, whose sum tests energy conservation.

Typical use::

    from gratpml import load_config, run

    cfg = load_config("run.cfg")
    result = run(cfg)
    print(result.final.efficiency.total)
"""

from .adapt import *  # noqa: F403
from .assembly import *  # noqa: F403
from .config import *  # noqa: F403
from .estimator import *  # noqa: F403
from .exact import *  # noqa: F403
from .meshing import *  # noqa: F403
from .pml import *  # noqa: F403
from .rayleigh import *  # noqa: F403
from .solver import *  # noqa: F403
from .waves import *  # noqa: F403

__version__ = "0.1.0"

# each star import also binds its module, whose own list names the exports
__all__ = [
    *adapt.__all__,
    *assembly.__all__,
    *config.__all__,
    *estimator.__all__,
    *exact.__all__,
    *meshing.__all__,
    *pml.__all__,
    *rayleigh.__all__,
    *solver.__all__,
    *waves.__all__,
    "__version__",
]
