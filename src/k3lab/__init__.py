"""k3lab: exact verification toolkit for a mirror family of elliptic K3 surfaces.

The library mechanizes every computation behind a two-parameter family of
K3 surfaces y^2 + z + 1/z + x^3 + a*x + b = 0 and its identification with
double covers of Kummer surfaces of products of elliptic curves:

* ``exact``        -- multivariate polynomials and rational functions over Q
* ``lattice``      -- integer Gram lattices, curve Grams, invariants
* ``kummer``       -- divisor-class calculus on Kummer surfaces of E1 x E2
* ``toric``        -- the reflexive simplex, its dual, and the 19-curve tree
* ``weierstrass``  -- Weierstrass models and Kodaira fiber classification
* ``shioda_inose`` -- the explicit fibration polynomials and (a, b) formulas
* ``modular``      -- modular polynomials, exact CM values j(i) and j(2i),
                      exact reduction of tau in Q(i), and the numeric
                      j-function and Fricke pairs
* ``suites``       -- the named verification suites, one per entry of
                      ``SUITE_NAMES``
* ``cli``          -- the ``k3lab`` command line front end

Each command of the CLI loads only the layers it runs.  ``k3lab verify``
and ``k3lab report`` load ``suites``, and each suite only the layers it
runs; ``k3lab family`` loads ``modular``, and ``shioda_inose`` with
``constants`` and ``exact``; ``k3lab modpoly`` loads ``modular`` alone.
Every verification check is exact.  mpmath is imported only when a numeric
function first runs, which among the commands only ``k3lab family`` does.
"""

__version__ = "0.1.0"

# The verification suites, in the order `k3lab verify --suite all` runs
# them; stated here, apart from every layer, so that the CLI can offer them
# without importing `suites`.
SUITE_NAMES = ("identities", "lattice", "kummer", "toric", "weierstrass", "modular")

# The levels of modular.build_modular_polynomial, stated here for the same
# reason: they are the choices of `k3lab modpoly --n`.
LEVELS = (1, 2, 3, 5, 7, 11, 13)
