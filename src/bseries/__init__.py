"""Certified evaluation and verification of binomial-kernel series identities.

The package is layered bottom-up:

* :mod:`bseries.precision` — ball arithmetic on integer triples (s, p, units);
  each ball carries its own precision p, passed where the ball is made.
* :mod:`bseries.exactnum` — exact rationals, quadratic surds, polynomials.
* :mod:`bseries.kernels` — binomial-product kernel families and term ratios.
* :mod:`bseries.seriesmodel` — series descriptions, weights, harmonic atoms.
* :mod:`bseries.constants` — pi, log, zeta(3), Dirichlet L-values as balls.
* :mod:`bseries.closedform` — exact closed-form right-hand sides.
* :mod:`bseries.envelope` — the weight's majorant and the certified tail
  envelope (q, k0).
* :mod:`bseries.blocks` — quadratic-base series summed in blocks of m terms.
* :mod:`bseries.evaluator` — certified summation and verification.
* :mod:`bseries.telescope` — telescoping-certificate checking.
* :mod:`bseries.duality` — Galois conjugation of series and dual classification.
* :mod:`bseries.relation` — PSLQ integer-relation detection and RHS discovery;
  the only module that imports mpmath, for ``mpmath.pslq``.
* :mod:`bseries.catalog` — the record file format and the bundled catalog.
* :mod:`bseries.cli` — the ``bseries`` command line tool, ``bseries verify ID``.
"""

__version__ = "0.1.0"
