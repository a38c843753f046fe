"""Desk-scale verification of first-order period matrices of plumbed
families, alkane-indexed branch patterns, and the octic asymptotic
relations.

Names are imported from their modules; the package root holds only
``__version__``."""

__version__ = "0.1.0"
