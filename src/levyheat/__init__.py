"""Numerics for the fractional heat equation driven by space-time Levy white noise.

Submodules:
    specfun    Gamma/Beta, two-parameter Mittag-Leffler, modified Bessel K.
    kernel     alpha-stable heat kernel, comparison kernel, integral identities
               and the numeric convolutions the certificates check.
    certify    grid certificates of the kernel identities and inequalities.
    analytics  contraction constant, beta0, Lyapunov / growth-index bounds,
               renewal weight and discrete Volterra solver.
    noise      Levy jump measures and Poisson-random-measure sampling.
    solver     mild-solution stepper on a 1-d periodic grid, Picard mode.
    estimator  Monte Carlo moment estimation, slope fits, growth scans.
    cli        configuration-driven command line front end.
"""

__version__ = "0.1.0"
