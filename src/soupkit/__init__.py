"""Deterministic desk-scale toolkit for cyclical-schedule checkpoint
generation, hierarchical weight souping, and weight-space analysis.

The package root holds only `__version__`: import each name from its module,
as in `from soupkit.store import Store`."""

__version__ = "0.1.0"
