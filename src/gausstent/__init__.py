"""Numerical toolkit for Gaussian tent spaces on the discretized half-space.

Modules:
    geometry     cutoff scale, admissible balls, cones, tents, ball measures
    grid         half-space grids, quadrature, grid functions, file formats
    functionals  area/Carleson/maximal functionals and tent norms
    whitney      density points and Whitney cube/ball covers
    atomic       atom validation and the constructive atomic decomposition
    duality      pairings, Carleson-measure norms, duality inequalities
    embedding    the local convolution operator and H^1-atom checks
    families     seeded test functions and atoms for verify, embed and tests
    cli          command-line front end
"""

from .geometry import (
    Ball,
    ConeSpec,
    UpperPoint,
    ball_tent_contains,
    classical_tent_contains,
    compare_tents,
    comparison_lemma_check,
    cone_contains,
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
    default_grid,
    halfspace_integral,
    lp_gamma_norm,
)
from .functionals import (
    BallDictionary,
    ExponentPair,
    area_S,
    area_S_sup,
    area_S_truncated,
    carleson_C,
    default_dictionary,
    maximal_centered,
    maximal_noncentered,
    stopping_time,
    tent_norm,
)

__version__ = "0.1.0"
