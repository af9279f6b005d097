"""Numerical toolkit for harmonic analysis with reflection symmetry.

Covers the sign-product reflection group and its weighted measures, the deformed
exponential kernel and its compactly supported dual measure, the associated
integral transform, first-order difference-differential operators, the heat
flow, damped (potential-perturbed) semigroups with Riesz transforms, and
Kato-class diagnostics for potentials.  A CLI runs named verification suites
from a config file.

Each name is imported from the submodule that defines it, for example
``from dunklkit.transform import build_spectral_matrix``.  Importing the
package itself loads no numerics, so the command line entry point can
configure threading before numpy loads.
"""

__version__ = "0.1.0"
