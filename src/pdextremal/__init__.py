"""Extremal constants for positive definite functions on finite abelian groups.

Exact linear-programming values of the two-set, Turan and Delsarte constants,
packing/covering/tiling predicates with density bounds, the Bessel-based
radial constructions, and the extremal cosine trinomial with its lower-bound
construction on the real line.

The package exports only ``__version__``.  Each module of README's Layout
table is imported by its own name, e.g. ``from pdextremal.extremal import
delsarte``, and loads only what it uses.
"""

__version__ = "0.1.0"
