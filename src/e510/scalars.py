"""Exact rational scalars.

All coefficient arithmetic in this package is exact: the scalar type Q is
fractions.Fraction.  Ints and Fractions both stringify as "p" or "p/q",
which the JSON writers rely on, and both expose .numerator and
.denominator.  The module actions of verma and the echelon of linalg read
those through _den, _numerators and _scalars: they take an input's
coefficients to one common denominator, compute on the numerators as ints
and build one scalar per nonzero output entry, so the scalar type is not on
their inner loop.
"""

from fractions import Fraction as Q
from math import lcm


def qparse(s: str):
    """Parse "p" or "p/q" back into a scalar."""
    if "/" in s:
        p, q = s.split("/")
        return Q(int(p), int(q))
    return Q(int(s))


def _den(values):
    """Least common denominator of some rationals (ints count as n/1)."""
    return lcm(*{v.denominator for v in values})


def _numerators(elem, den):
    """(key, numerator over den) for every entry of elem."""
    return [(k, v.numerator * (den // v.denominator)) for k, v in elem.items()]


def _scalars(acc, den):
    """The nonzero integer numerators of acc over den, as exact scalars."""
    return {k: Q(n, den) for k, n in acc.items() if n}
