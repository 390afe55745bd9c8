"""Numerical laboratory for a heat equation with interior degeneracy |x|^alpha.

Modules
-------
weights      degenerate weight, quartic regularization, Muckenhoupt constants,
             radial cutoffs
domain       graded disk triangulations, regions, quadrature
spaces       weighted norms and Hardy/Poincare/embedding ratio checks
solver       P1 theta-scheme time stepping, sources, energy and flux diagnostics
carleman     Carleman weight evaluators and inequality balance instantiation
experiments  study drivers and deterministic report persistence
cli          command-line entry point
"""

__version__ = "0.1.0"
