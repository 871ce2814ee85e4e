"""conecert: rigorous certification of strong invariant manifolds.

The library certifies the strong unstable manifold of a fixed point of a
flow by verifying cone conditions with interval arithmetic, and applies the
machinery to certify a transversal homoclinic orbit to the L1 libration
point of the planar circular restricted three-body problem.
"""

from .interval import Interval, IVector, IMatrix, Box

__version__ = "0.1.0"

__all__ = ["Interval", "IVector", "IMatrix", "Box", "__version__"]
