"""Reference copies of the exact U(g_-) kernels that the package now keeps
once, for the tests to check the one copy against.

Verbatim but for the names and the caches: mono_product and the pbw_product
loop of uminus (now views of uminus.product_int), verma.ad_e_mono (now
act_e on M(F(0,0,0,0))), and the rational Irrep.mat with its act and the
integer conversion InducedModule._int_mat (now the (den, columns) of
Irrep.mat).
"""

from operator import add

from e510.scalars import Q, _den, _numerators
from e510.sl5_reps import act_ambient
from e510.uminus import _order_forms, add_scaled
from e510.verma import _ad_e_forms


def mono_product(a, b):
    """Product of two PBW monomials as a dict monomial -> int coefficient."""
    pa, fa = a
    pb, fb = b
    base = tuple(x + y for x, y in zip(pa, pb))
    out = {}
    for (dparts, forms), c in _order_forms(fa, fb):
        parts = tuple(x + y for x, y in zip(base, dparts))
        key = (parts, forms)
        out[key] = out.get(key, 0) + c
    return out


def pbw_product(a, b):
    """Product of two elements of U(g_-) in PBW normal form."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            c = ca * cb
            for m, k in mono_product(ma, mb).items():
                s = out.get(m, 0) + c * k
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
    return out


def ad_e_mono(a, b, mono):
    """[x_a p_b, mono] inside U(g_-), extending the bracket as a derivation.

    Well defined termwise on PBW monomials; only traceless aggregates over
    (a, b) are actions of actual algebra elements.  The p_a term, then the
    pieces of the form word shifted by the p-exponents (module docstring).
    """
    parts, forms = mono
    out = {}
    if parts[a - 1]:
        pl = list(parts)
        pl[a - 1] -= 1
        pl[b - 1] += 1
        out[(tuple(pl), forms)] = -parts[a - 1]
    return add_scaled(out, {(tuple(map(add, parts, dp)), f2): c
                            for (dp, f2), c in _ad_e_forms(a, b, forms)}, 1)


_MATS = {}


def mat(rep, a, b):
    """Columns of x_a p_b on the basis: list of dicts row -> Q."""
    key = (rep.weight, a, b)
    if key not in _MATS:
        cols = []
        for j in range(rep.dim):
            if a == b:
                ev = rep.eps_weights[j][a - 1]
                cols.append({j: Q(ev)} if ev else {})
            else:
                cols.append(rep.coords(act_ambient(a, b, rep.basis[j])))
        _MATS[key] = cols
    return _MATS[key]


def act(rep, a, b, coeffs):
    """x_a p_b on a coordinate vector (dict index -> scalar)."""
    cols = mat(rep, a, b)
    out = {}
    for j, c in coeffs.items():
        add_scaled(out, cols[j], c)
    return out


def int_mat(rep, a, b):
    """x_a p_b on the rep as (den, columns of numerators over den)."""
    cols = mat(rep, a, b)
    den = _den(v for col in cols for v in col.values())
    return (den, [dict(_numerators(col, den)) for col in cols])
