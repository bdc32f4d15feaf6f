"""Finite Verma modules U(g_-) (x) F(mu) with exact generator actions.

Elements are dicts (PBW monomial, rep basis index) -> scalar.  The negative
part acts by left multiplication, gl5 symbols act as (derivation on the
monomial) + (matrix on the rep factor), and degree +1 symbols x_k d_ij act
through a memoized recursion that peels one generator at a time:

    X (p_i u (x) v) = [X, p_i] (u (x) v) + p_i (X (u (x) v))
    X (d_q u (x) v) = [X, d_q] (u (x) v) - d_q (X (u (x) v))

The per-symbol pieces are bookkeeping: single diagonal gl5 symbols and
single non-closed x_k d_ij terms are not elements of the algebra, and only
aggregates over traceless (resp. closed) combinations are meaningful.  All
public entry points take genuine algebra elements, so results are exact.

The actions are fraction-free: an input's coefficients go over one common
denominator, numerators accumulate as ints keyed by (monomial, rep index),
and one scalar is built per nonzero entry of the result.  The memoized
pieces of the g_0 and g_1 actions have integer coefficients by
construction (signs, exponents and eps values) and are stored as ints.
"""

from math import lcm
from operator import add

from .scalars import Q, qstr, qparse, _den, _numerators, _scalars
from .uminus import (
    PAIRS, PAIR_INDEX, EPS, TMATE, ZERO_PARTIALS, ONE_MONO, _order_forms,
    mono_degree, mono_weight, add_scaled, scale, pbw_product, p_elem,
    enumerate_monomials, format_monomial, parse_monomial,
)
from .sl5_reps import build_irrep, eps_to_coords, is_dominant, parse_weight
from .e510_algebra import g1_basis, xd_gen

_AD_E_CACHE = {}
_XD_CACHE = {}


def _form_elem(f):
    """The single 2-form generator with pair index f, integer coefficient."""
    return {(ZERO_PARTIALS, (f,)): 1}


def _int_form(i, j):
    """dx_i ^ dx_j with an integer coefficient; dji = -dij, dii = 0."""
    if i == j:
        return {}
    if i > j:
        return {(ZERO_PARTIALS, (PAIR_INDEX[(j, i)],)): -1}
    return _form_elem(PAIR_INDEX[(i, j)])


def ad_e_mono(a, b, mono):
    """[x_a p_b, mono] inside U(g_-), extending the bracket as a derivation.

    Well defined termwise on PBW monomials; only traceless aggregates over
    (a, b) are actions of actual algebra elements.
    """
    key = (a, b, mono)
    got = _AD_E_CACHE.get(key)
    if got is not None:
        return got
    parts, forms = mono
    out = {}
    if parts[a - 1]:
        pl = list(parts)
        pl[a - 1] -= 1
        pl[b - 1] += 1
        out[(tuple(pl), forms)] = -parts[a - 1]
    for n, f in enumerate(forms):
        l, m = PAIRS[f]
        if b == l:
            repl = _int_form(a, m)
        elif b == m:
            repl = _int_form(l, a)
        else:
            continue
        if not repl:
            continue
        word = pbw_product({(ZERO_PARTIALS, forms[:n]): 1}, repl)
        word = pbw_product(word, {(ZERO_PARTIALS, forms[n + 1:]): 1})
        add_scaled(out, {(tuple(map(add, parts, p2)), f2): c
                         for (p2, f2), c in word.items()}, 1)
    _AD_E_CACHE[key] = out
    return out


def xd_mono(k, f, mono):
    """x_k d_(pair f) on mono (x) v as a pair (A, B).

    The action is A (x) v + sum_{a,b} B[a,b] (x) (x_a p_b v), with A and the
    B values in U(g_-).  Termwise bookkeeping; sum over a closed combination
    of symbols to act with an actual degree +1 element.
    """
    key = (k, f, mono)
    got = _XD_CACHE.get(key)
    if got is not None:
        return got
    parts, forms = mono
    if mono == ONE_MONO:
        got = ({}, {})
    elif any(parts):
        i = next(n for n, c in enumerate(parts) if c) + 1
        pl = list(parts)
        pl[i - 1] -= 1
        rest = (tuple(pl), forms)
        A1, B1 = xd_mono(k, f, rest)
        A = {}
        if i == k:
            add_scaled(A, pbw_product(_form_elem(f), {rest: 1}), -1)
        pi = dict.fromkeys(p_elem(i), 1)
        add_scaled(A, pbw_product(pi, A1), 1)
        B = {}
        for ab, u in B1.items():
            img = pbw_product(pi, u)
            if img:
                B[ab] = img
        got = (A, B)
    else:
        q = forms[0]
        rest = (parts, forms[1:])
        A1, B1 = xd_mono(k, f, rest)
        dq = _form_elem(q)
        A = scale(pbw_product(dq, A1), -1)
        B = {}
        for ab, u in B1.items():
            img = scale(pbw_product(dq, u), -1)
            if img:
                B[ab] = img
        e = EPS[f][q]
        if e:
            t = TMATE[f][q]
            add_scaled(A, ad_e_mono(k, t, rest), e)
            bu = B.setdefault((k, t), {})
            add_scaled(bu, {rest: 1}, e)
            if not bu:
                del B[(k, t)]
        got = (A, B)
    _XD_CACHE[key] = got
    return got


class InducedModule:
    """U(g_-) (x) F(mu) for some negative part g_- and the sl5 irrep F(mu).

    The protocol the singular vector search reads: a subclass names its
    algebra, lists the degree-d monomials of its PBW basis with their
    eps-weights, yields its singularity conditions as (label, image) pairs
    and serializes elements to certificate terms.  The weight bookkeeping
    shared by both algebras lives here.
    """

    def __init__(self, mu):
        self.mu = parse_weight(mu) if isinstance(mu, str) else tuple(mu)
        self.rep = build_irrep(self.mu)
        self._blocks = {}

    def weight_blocks(self, d):
        """Dominant weight -> sorted basis pairs (monomial, rep index), degree d.

        One pass over the degree-d monomials x rep weights, cached on the
        instance.  Weights compare in fundamental coordinates, so pairs from
        different trace branches of the concrete realization are collected
        together, as they must be.  Only dominant weights are kept: a
        singular vector lies in a finite dimensional sl5-stable degree
        component, so its weight is dominant, and every caller asks for a
        dominant weight (the dual of a dominant weight is dominant too).
        """
        blocks = self._blocks.get(d)
        if blocks is None:
            blocks = {}
            for mono in self.monomials(d):
                mw = self.monomial_weight(mono)
                for i, rw in enumerate(self.rep.eps_weights):
                    c = eps_to_coords(tuple(x + y for x, y in zip(mw, rw)))
                    if is_dominant(c):
                        blocks.setdefault(c, []).append((mono, i))
            for pairs in blocks.values():
                pairs.sort()
            self._blocks[d] = blocks
        return blocks

    def weight_space(self, d, nu):
        """Ordered basis pairs (monomial, rep index) of dominant weight nu."""
        return self.weight_blocks(d).get(tuple(nu), [])

    def _pair_weight(self, mono, i):
        mw = self.monomial_weight(mono)
        return tuple(x + y for x, y in zip(mw, self.rep.eps_weights[i]))

    def element_weight(self, elem):
        """Common raw eps-weight 5-vector (error when inhomogeneous).

        Raw 5-vectors follow the literal symbol weights, under which terms
        with different p-counts differ by trace multiples even inside one
        weight-homogeneous element; use element_coords for those.
        """
        ws = {self._pair_weight(m, i) for m, i in elem}
        if len(ws) != 1:
            raise ValueError("element is not weight-homogeneous")
        return ws.pop()

    def element_coords(self, elem):
        """sl5 weight in fundamental coordinates."""
        cs = {eps_to_coords(self._pair_weight(m, i)) for m, i in elem}
        if len(cs) != 1:
            raise ValueError("element is not weight-homogeneous")
        return cs.pop()


# the singularity conditions: the four simple raisings and x_5 d_45, the
# lowest weight vector of the degree +1 part (see VermaModule.is_singular)
_CONDITIONS = tuple(("e%d" % i, ("e", i, i + 1)) for i in range(1, 5)) \
    + (("x5d45", ("xd", 5, 9)),)


class VermaModule(InducedModule):
    """U(g_-) (x) F(mu) for a dominant sl5 weight mu."""

    algebra = "E(5,10)"

    def __init__(self, mu):
        super().__init__(mu)
        self._int_mats = {}

    def monomials(self, d):
        return enumerate_monomials(d)

    def monomial_weight(self, mono):
        return mono_weight(mono)

    def conditions(self, elem):
        for label, sym in _CONDITIONS:
            yield label, self.act_sym(sym, elem)

    def terms(self, elem):
        return tensor_terms(elem)

    def vacuum(self):
        return {(ONE_MONO, 0): Q(1)}

    def tensor(self, u, coeffs):
        """(U(g_-) element) (x) (rep coordinate vector)."""
        out = {}
        for m, cu in u.items():
            for i, cv in coeffs.items():
                c = cu * cv
                if c:
                    out[(m, i)] = c
        return out

    def mult(self, u, elem):
        """Left multiplication by a U(g_-) element."""
        return self.mult_sum(((u, elem),))

    def mult_sum(self, pairs):
        """The sum of the left multiplications u * elem over (u, elem) pairs."""
        work = []
        den = 1
        for u, elem in pairs:
            if u and elem:
                du, de = _den(u.values()), _den(elem.values())
                work.append((u, du, elem, de))
                den = lcm(den, du * de)
        acc = {}
        for u, du, elem, de in work:
            by_mono = {}
            for (m, i), n in _numerators(elem, de):
                by_mono.setdefault(m, []).append((i, n))
            s = den // (du * de)
            for (pu, fu), nu in _numerators(u, du):
                nu *= s
                for (pm, fm), terms in by_mono.items():
                    base = tuple(map(add, pu, pm))
                    for (dp, forms), k in _order_forms(fu, fm):
                        # dp is ZERO_PARTIALS itself unless a d_p d_q
                        # contraction produced a p_t
                        parts = base if dp is ZERO_PARTIALS else \
                            tuple(map(add, base, dp))
                        m2 = (parts, forms)
                        nk = nu * k
                        for i, n in terms:
                            key = (m2, i)
                            acc[key] = acc.get(key, 0) + nk * n
        return _scalars(acc, den)

    def _int_mat(self, a, b):
        """x_a p_b on the rep as (den, columns of numerators over den)."""
        got = self._int_mats.get((a, b))
        if got is None:
            cols = self.rep.mat(a, b)
            den = _den(v for col in cols for v in col.values())
            got = (den, [dict(_numerators(col, den)) for col in cols])
            self._int_mats[(a, b)] = got
        return got

    def act_e(self, a, b, elem):
        """A single gl5 symbol x_a p_b; traceless aggregates are genuine."""
        return _scalars(*self.act_e_int(a, b, elem))

    def act_e_int(self, a, b, elem):
        """act_e as (integer numerators keyed like elem, common denominator).

        Numerators may be zero; act_e drops those when it builds scalars.
        """
        mden, cols = self._int_mat(a, b)
        eden = _den(elem.values())
        acc = {}
        for (m, i), n in _numerators(elem, eden):
            nm = n * mden
            for m2, ca in ad_e_mono(a, b, m).items():
                key = (m2, i)
                acc[key] = acc.get(key, 0) + nm * ca
            for i2, cv in cols[i].items():
                key = (m, i2)
                acc[key] = acc.get(key, 0) + n * cv
        return acc, eden * mden

    def act_xd(self, k, f, elem):
        """A single degree +1 symbol x_k d_(pair f)."""
        eden = _den(elem.values())
        terms = [(m, i, n, xd_mono(k, f, m))
                 for (m, i), n in _numerators(elem, eden)]
        mats = {ab: self._int_mat(*ab)
                for _, _, _, (_, B) in terms for ab in B}
        mden = lcm(*(d for d, _ in mats.values()))
        acc = {}
        for m, i, n, (A, B) in terms:
            na = n * mden
            for m2, ca in A.items():
                key = (m2, i)
                acc[key] = acc.get(key, 0) + na * ca
            for ab, u in B.items():
                d, cols = mats[ab]
                nd = n * (mden // d)
                for i2, cv in cols[i].items():
                    cc = nd * cv
                    for m2, cu in u.items():
                        key = (m2, i2)
                        acc[key] = acc.get(key, 0) + cc * cu
        return _scalars(acc, eden * mden)

    def act_sym(self, sym, elem):
        kind = sym[0]
        if kind == "p":
            return self.mult(p_elem(sym[1]), elem)
        if kind == "d":
            return self.mult(_form_elem(sym[1]), elem)
        if kind == "e":
            return self.act_e(sym[1], sym[2], elem)
        if kind == "xd":
            return self.act_xd(sym[1], sym[2], elem)
        raise ValueError("unknown symbol %r" % (sym,))

    def act(self, x, elem):
        """Action of an algebra element given as a dict symbol -> scalar."""
        out = {}
        for sym, c in x.items():
            add_scaled(out, self.act_sym(sym, elem), c)
        return out

    def element_degree(self, elem):
        degs = {mono_degree(m) for m, _ in elem}
        if len(degs) != 1:
            raise ValueError("element is not degree-homogeneous")
        return degs.pop()

    def is_singular(self, elem, full_g1=False):
        """Annihilated by e_1..e_4 and by g_1.

        By default only x_5 d_45 is applied on the g_1 side: together with
        the raising conditions this kills all of g_1, since the annihilator
        is closed under bracketing with raisings and g_1 is generated from
        x_5 d_45 by them.  full_g1 sweeps all 40 basis elements instead.
        """
        if not elem:
            return False
        for i in range(1, 5):
            if self.act_e(i, i + 1, elem):
                return False
        if full_g1:
            return all(not self.act(x, elem) for x in g1_basis())
        return not self.act(xd_gen(5, 4, 5), elem)


def tensor_terms(elem):
    """Canonical JSON-ready term list of a tensor element."""
    rows = []
    for (m, i), c in elem.items():
        rows.append({"monomial": format_monomial(m), "index": i,
                     "coeff": qstr(c)})
    rows.sort(key=lambda t: (t["monomial"], t["index"]))
    return rows


def tensor_from_terms(terms):
    out = {}
    for t in terms:
        key = (parse_monomial(t["monomial"]), t["index"])
        out[key] = out.get(key, 0) + qparse(t["coeff"])
    return {k: c for k, c in out.items() if c}


def proportional(a, b):
    """The nonzero scalar c with b == c * a, or None."""
    if not a or not b:
        return None
    k = next(iter(a))
    if k not in b:
        k = next(iter(b))
        if k not in a:
            return None
    c = b[k] / a[k] if k in a and k in b else None
    if c is None or not c:
        return None
    if b == {kk: c * v for kk, v in a.items()}:
        return c
    return None
