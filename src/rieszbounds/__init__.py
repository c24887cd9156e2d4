"""Linear programming lower bounds for Riesz and Gaussian energy on spheres."""

from . import energy, errors, jacobi, lattices, quadrature, special
from .energy import *  # noqa: F403
from .errors import *  # noqa: F403
from .jacobi import *  # noqa: F403
from .lattices import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .special import *  # noqa: F403

__all__ = (errors.__all__ + special.__all__ + jacobi.__all__ + quadrature.__all__
           + energy.__all__ + lattices.__all__)

__version__ = "0.1.0"
