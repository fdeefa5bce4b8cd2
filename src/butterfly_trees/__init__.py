"""Butterfly and block permutation constructions, BST edge/height laws,
and seeded Monte Carlo experiments."""

__version__ = "0.1.0"
