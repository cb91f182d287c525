"""Numerical toolkit for Gaussian tent spaces on the discretized half-space.

Modules:
    geometry     cutoff scale, admissible balls, cones, tents, ball measures
    grid         half-space grids, quadrature, grid functions, file formats
    functionals  area and Carleson functionals, tent norms, stopping times
    whitney      density points and Whitney cube/ball covers
    atomic       atom validation and the constructive atomic decomposition
    duality      pairings, Carleson-measure norms, duality inequalities
    embedding    the local convolution operator and H^1-atom checks
    families     seeded test functions and atoms for verify, embed and tests
    cli          command-line front end
    _kernels     private kernels: ball measures, the tent predicate, the window
                 layer; the only module a private name is imported from
"""

from .geometry import (
    Ball,
    ConeSpec,
    compare_tents,
    comparison_lemma_check,
    cutoff_m,
    gamma_ball,
    gamma_ball_bounds_check,
    is_admissible,
)
from .grid import (
    GridFunction,
    HalfSpaceGrid,
    RegionMask,
    SpatialFunction,
    halfspace_integral,
    lp_gamma_norm,
)
from .functionals import (
    BallDictionary,
    ExponentPair,
    area_S,
    area_S_sup,
    carleson_C,
    default_dictionary,
    stopping_time,
    tent_norm,
    tent_norms,
)

__version__ = "0.1.0"
