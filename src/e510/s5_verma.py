"""Baseline Verma modules over the divergence-free algebra on five variables.

The negative part is the abelian span of p_1..p_5 (each of degree 2, to
match the grading conventions used elsewhere), the zero part is sl5, and
the positive part is generated by the 70 divergence-free quadratic fields
x_a x_b p_k.  The p_k are the central g_-2 of E(5,10), so C[p] is the
form-free part of U(g_-): modules are C[p] (x) F(lambda), with elements
dicts ((parts, ()), rep index) -> scalar, and everything but the quadratic
fields comes from verma.InducedModule.

A quadratic field X acts on p^M (x) v in closed form by the Leibniz rule
X p^M = sum_D C(M, D) p^(M - D) X_D of verma, with X_D the D-fold bracket
of X with the p's: D = e_i leaves a linear (gl5) symbol acting on the rep
factor, D = e_i + e_j a constant field multiplying back in, and X_0 kills
v.  Those p-free terms are the pieces(sym, forms) of
InducedModule.act_pieces_int, one cache entry per x_a x_b p_k, and a field
is applied with InducedModule.act.  The 70 fields are S5Verma's POSITIVE
generators, so singularity means annihilation by e_1..e_4 and by all of
them (InducedModule.int_conditions, and condition_rows on a search block);
the annihilator of a vector is operator-bracket-closed, and the positive
part is generated by the quadratic component, so nothing else needs
checking.
"""

from functools import lru_cache

from .scalars import Q
from .uminus import _partials_of_total, add_scaled, p_elem
from .linalg import DEFAULT_ENTRY_CAP
from .singular_search import search_blocks
from .verma import InducedModule


def quadratic_fields():
    """Spanning set of the divergence-free quadratic fields, 70 entries.

    x_a x_b p_k with k outside {a, b}, plus x_a x_b p_a - 1/2 x_b^2 p_b for
    a != b.  Fields are dicts (a, b, k) -> scalar with a <= b.
    """
    out = []
    for a in range(1, 6):
        for b in range(a, 6):
            for k in range(1, 6):
                if k not in (a, b):
                    out.append({(a, b, k): Q(1)})
    for a in range(1, 6):
        for b in range(1, 6):
            if a != b:
                lo, hi = min(a, b), max(a, b)
                out.append({(lo, hi, a): Q(1), (b, b, b): Q(-1, 2)})
    return out


def _first_derivative(a, b, i):
    """d/dx_i (x_a x_b) as a list of (variable, integer coefficient)."""
    if a == b:
        return [(a, 2)] if i == a else []
    out = []
    if i == a:
        out.append((b, 1))
    if i == b:
        out.append((a, 1))
    return out


@lru_cache(maxsize=None)
def _quad_pieces(field_key, forms):
    """The p-free int pieces (D, c, A, B) of x_a x_b p_k, for act_pieces_int.

    D = e_i: one derivative leaves the linear symbol x_var p_k acting on
    the rep factor (into B).  D = e_i + e_var: two derivatives leave the
    constant field (ad p_var)(ad p_i)(x_a x_b p_k), a multiple of p_k,
    multiplying back in (into A); var >= i counts each D once.  The form
    word of a C[p] monomial is always (), so the cache holds one entry per
    field.
    """
    a, b, k = field_key
    out = []
    for i in range(1, 6):
        for var, dc in _first_derivative(a, b, i):
            out.append((((i, 1),), -dc, (), (((var, k), (), 1),)))
            if var >= i:
                D = ((i, 2),) if var == i else ((i, 1), (var, 1))
                out.append((D, dc, tuple(p_elem(k).items()), ()))
    return tuple(out)


class S5Verma(InducedModule):
    """C[p_1..p_5] (x) F(lambda) with exact generator actions."""

    algebra = "S5"
    POSITIVE = tuple(("q%d" % n, field)
                     for n, field in enumerate(quadratic_fields()))

    def monomials(self, d):
        """The form-free PBW monomials of degree d (p_k has degree 2)."""
        if d % 2:
            return []
        return sorted((parts, ()) for parts in _partials_of_total(d // 2))

    pieces = staticmethod(_quad_pieces)


def search_s5(lam, d, entry_cap=DEFAULT_ENTRY_CAP):
    """Certificates for singular vectors of degree d in the baseline module."""
    return search_blocks(S5Verma(lam), d, entry_cap=entry_cap)


def rudakov_vectors():
    """The classical degree 2 and 4 singular vectors, by label.

    Returns {label: (lambda, degree, element)}. R6 is p_5 times R1.
    """
    from .sl5_reps import ambient_monomial

    def unit(i):
        m = [0] * 5
        m[i - 1] = 1
        return (tuple(m), ())

    out = {}
    m1 = S5Verma((1, 0, 0, 0))
    r1 = {}
    for i in range(1, 6):
        coeffs = m1.rep.project({ambient_monomial(x=(i,)): Q(1)})
        add_scaled(r1, m1.tensor({unit(i): Q(1)}, coeffs), Q(1))
    out["R1"] = ((1, 0, 0, 0), 2, r1)

    m2 = S5Verma((0, 1, 0, 0))
    r2 = {}
    for j in range(2, 6):
        coeffs = m2.rep.project({ambient_monomial(w=((1, j),)): Q(1)})
        add_scaled(r2, m2.tensor({unit(j): Q(1)}, coeffs), Q(1))
    out["R2"] = ((0, 1, 0, 0), 2, r2)

    m3 = S5Verma((0, 0, 1, 0))
    r3 = {}
    # p3 (x) x45* + p4 (x) x53* + p5 (x) x34*, with x53* = -x35*
    for i, pair, sgn in ((3, (4, 5), 1), (4, (3, 5), -1), (5, (3, 4), 1)):
        coeffs = m3.rep.project({ambient_monomial(dw=(pair,)): Q(sgn)})
        add_scaled(r3, m3.tensor({unit(i): Q(1)}, coeffs), Q(1))
    out["R3"] = ((0, 0, 1, 0), 2, r3)

    m4 = S5Verma((0, 0, 0, 1))
    r4 = {}
    for i, sgn in ((4, 1), (5, -1)):
        coeffs = m4.rep.project({ambient_monomial(dx=(9 - i,)): Q(1)})
        add_scaled(r4, m4.tensor({unit(i): Q(1)}, coeffs), Q(sgn))
    out["R4"] = ((0, 0, 0, 1), 2, r4)

    m5 = S5Verma((0, 0, 0, 0))
    out["R5"] = ((0, 0, 0, 0), 2, m5.tensor({unit(5): Q(1)}, {0: Q(1)}))

    r6 = m1.mult(p_elem(5), r1)
    out["R6"] = ((1, 0, 0, 0), 4, r6)
    return out
