"""Exact rational scalars.

All coefficient arithmetic in this package is exact.  gmpy2.mpq is used when
available (much faster); fractions.Fraction otherwise.  Both stringify as
"p" or "p/q", which the JSON writers rely on, and both expose .numerator and
.denominator (as ints do).  The module actions of verma and the echelon of
linalg read those through _den, _numerators and _scalars: they take an
input's coefficients to one common denominator, compute on the numerators
as ints and build one scalar per nonzero output entry, so the scalar type is
not on their inner loop.
"""

from fractions import Fraction
from math import lcm

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - exercised only without gmpy2
    Q = Fraction

def qstr(x) -> str:
    """Canonical string form of a rational: "p" or "p/q" with q > 0."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


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
