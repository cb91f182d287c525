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

Each public name is imported from the module that defines it, as in
`from gausstent.functionals import area_S`; the package re-exports nothing.
"""

__version__ = "0.1.0"
