"""Exact computations for a nonlocal operator on the multiplicative
fundamental domain of the Tate curve: heights, Green's functions,
character spectra, Galerkin matrices, regularized determinants, and
boundary correlators."""

__version__ = "0.1.0"
