"""Dynamics of birational self-maps of the complex projective plane.

Exact map algebra over Q(i), indeterminacy and critical loci, degree
sequences, cohomological spectral data, orbit-separation and summability
diagnostics, Green potentials, energy seminorms on grid charts, saddle
periodic-point sampling of the invariant measure, and Lyapunov exponents.

Each public name is imported from its module, e.g.
``from biratdyn.maps import compose``; the package root binds only the
submodules and ``__version__``.
"""

__version__ = "0.1.0"

# Loaded eagerly: `import biratdyn` carries the package's whole start-up
# cost (numpy, mpmath), which perfbench times as `setup_s`.
# `biratdyn.cli`, which every command imports, needs these modules anyway,
# so a lazy root would not save that cost, only move it out of that
# measurement.  `cli` is the entry point and is not loaded here.
from . import (
    geometry,
    maps,
    cohomology,
    stability,
    potential,
    energy,
    lyapunov,
    measure,
    standard_maps,
    mapfile,
)

# No module computes with scipy, but perfbench's worker reads
# `sys.modules["scipy"].__version__` after every command, so the bare
# top-level package (no subpackage) is loaded here, inside the timed
# import, until the worker reads versions another way (ROADMAP item 1).
__import__("scipy")
