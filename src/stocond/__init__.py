"""Numerical toolkit for first and second order necessary optimality
conditions of constrained stochastic evolution-equation control problems."""

__version__ = "0.1.0"
