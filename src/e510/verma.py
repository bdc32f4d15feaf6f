"""Finite Verma modules U(g_-) (x) F(mu) with exact generator actions.

Elements are dicts (PBW monomial, rep basis index) -> scalar.  The negative
part acts by left multiplication, gl5 symbols act as (derivation on the
monomial) + (matrix on the rep factor), and positive symbols X act in
closed form by the Leibniz rule: the p_i are central in U(g_-), so

    X p^P = sum_D C(P, D) p^(P - D) X_D,   C(P, D) = prod_i C(P_i, D_i),

with X_D the p-free D-fold bracket of X with the p's (see act_pieces).
X = x_k d_f kills 1 (x) v, [X, p_i] = -delta_ik d_f and [X, d_q] =
eps(f, q) x_k p_t, so on w = d_q1..d_qn

    X_0 w v = sum_j (-1)^(j-1) d_q1..d_q(j-1) [X, d_qj] d_q(j+1)..d_qn v,
    X_(e_k) w v = -d_f w v.

The per-symbol pieces are bookkeeping: single diagonal gl5 symbols and
single non-closed x_k d_ij terms are not elements of the algebra, and only
aggregates over traceless (resp. closed) combinations are meaningful.
InducedModule.act applies a genuine algebra element, a dict symbol ->
scalar, so its results are exact.

The gl5 symbol x_a p_b acts on U(g_-) as a derivation, and the p's are
central, so [x_a p_b, p^P w] = -P_a p^(P - e_a + e_b) w + p^P [x_a p_b, w].
act_e_int is its one copy: U(g_-) under ad gl5 is M(F(0,0,0,0)).

The actions are fraction-free: an input's coefficients go over one common
denominator, numerators accumulate as ints keyed by (monomial, rep index),
and one scalar is built per nonzero entry of the result.  The memoized
pieces of the g_0 and g_1 actions are built from the integer generators
and index rules of uminus (signs, exponents and eps values), so they are
stored as ints.  Both caches are keyed on form words, not monomials:
_AD_E_CACHE on (a, b, w), at most 25 x 2^10 entries, and _XD_CACHE on
(k, f, w), at most 50 x 2^10; p^P enters while the actions accumulate.
act_e_int, act_pieces_int and int_conditions return the integer
numerators with their denominator, so the search assembles its condition
rows without building scalars; the rep matrices are those of Irrep.mat.

The search blocks are indexed by dominant weight in fundamental
coordinates.  Coordinates add, so weight_blocks groups the monomials and
the rep indices by their own coordinates and crosses the groups, instead of
checking every monomial against every rep vector.
"""

from math import comb, lcm
from operator import add

from .scalars import Q, qstr, qparse, _den, _numerators, _scalars
from .uminus import (
    PAIRS, EPS, TMATE, ZERO_PARTIALS, ONE_MONO, _order_forms, mono_degree,
    mono_weight, add_scaled, d_elem, p_elem, form_step, product_int,
    enumerate_monomials, format_monomial, parse_monomial,
)
from .sl5_reps import build_irrep, eps_to_coords, is_dominant
from .e510_algebra import g1_basis

_AD_E_CACHE = {}
_XD_CACHE = {}
_UNIT_DELTAS = tuple(((k, 1),) for k in range(1, 6))  # D = e_k, shared


def _ad_e_forms(a, b, forms):
    """[x_a p_b, d_w] for the sorted form word w, normal ordered.

    A tuple of int pieces ((dparts, forms2), c): dparts is the p-delta of a
    d_p d_q contraction, ZERO_PARTIALS itself when there is none.  Cached
    per (a, b, forms), at most 25 x 2^10 entries.
    """
    key = (a, b, forms)
    got = _AD_E_CACHE.get(key)
    if got is None:
        out = {}
        for n, f in enumerate(forms):
            step = form_step(a, b, f)
            if step is not None:
                g, sign = step
                word = _order_forms(forms[:n], (g,) + forms[n + 1:])
                add_scaled(out, dict(word), sign)
        got = _AD_E_CACHE[key] = tuple(out.items())
    return got


def xd_pieces(k, f, forms):
    """x_k d_(pair f) past p^P on the form word w, as act_pieces pieces.

    Termwise bookkeeping; sum over a closed combination of symbols to act
    with an actual degree +1 element.  Two Leibniz terms (module
    docstring): D = 0, the sum over the 2-forms of w, where the g_0
    element x_k p_t of the j-th term acts on the tail through the
    form-word pieces of act_e_int (into A) and on v (into B); each t comes
    from one q_j, so B[k, t] is the single word w without q_j.  D = e_k,
    the factor -1 on the shared pieces of d_f w.  Cached per (k, f, forms).
    """
    key = (k, f, forms)
    got = _XD_CACHE.get(key)
    if got is None:
        A, B = {}, []
        for j, q in enumerate(forms):
            e = EPS[f][q]
            if e:
                t = TMATE[f][q]
                c = -e if j & 1 else e
                for (dp, f2), ca in _ad_e_forms(k, t, forms[j + 1:]):
                    for (dp2, f3), cf in _order_forms(forms[:j], f2):
                        m = (dp2 if dp is ZERO_PARTIALS else
                             tuple(map(add, dp, dp2)), f3)
                        A[m] = A.get(m, 0) + c * ca * cf
                B.append(((k, t), forms[:j] + forms[j + 1:], c))
        A = tuple((m, n) for m, n in A.items() if n)
        got = [((), 1, A, tuple(B))] if A or B else []
        df_w = _order_forms((f,), forms)
        if df_w:
            got.append((_UNIT_DELTAS[k - 1], -1, df_w, ()))
        got = _XD_CACHE[key] = tuple(got)
    return got


class InducedModule:
    """U(g_-) (x) F(mu) for some negative part g_- and the sl5 irrep F(mu).

    Elements are dicts (PBW monomial of U(g_-), rep index) -> scalar.  A
    subclass supplies the protocol: an algebra tag, monomials(d) (the
    degree-d PBW monomials of its negative part), pieces(sym, forms) (the
    p-free Leibniz terms of a positive symbol, see act_pieces) and
    POSITIVE, the (label, element) pairs that with e_1..e_4 generate the
    positive part.  Everything that does not depend on the algebra lives
    here: weights, degrees, serialization, left multiplication, the gl5
    action, the one action kernel of the positive part, act and conditions.
    """

    def __init__(self, mu):
        self.mu = tuple(mu)
        self.rep = build_irrep(self.mu)
        self._blocks = {}

    def weight_blocks(self, d):
        """Dominant weight -> sorted basis pairs (monomial, rep index), degree d.

        Weights compare in fundamental coordinates, so pairs from different
        trace branches of the concrete realization are collected together,
        as they must be.  Coordinates add, so the degree-d monomials and the
        rep indices are grouped by their own coordinates once, and each
        block is the union of the products of the groups whose sum is its
        weight.  Only dominant sums are kept: a singular vector lies in a
        finite dimensional sl5-stable degree component, so its weight is
        dominant, and every caller asks for a dominant weight (the dual of a
        dominant weight is dominant too).  The blocks are cached on the
        instance; the groups are not kept.
        """
        blocks = self._blocks.get(d)
        if blocks is None:
            monos, reps = {}, {}
            for mono in self.monomials(d):
                c = eps_to_coords(self.monomial_weight(mono))
                monos.setdefault(c, []).append(mono)
            for i, rw in enumerate(self.rep.eps_weights):
                reps.setdefault(eps_to_coords(rw), []).append(i)
            blocks = {}
            for mc, ms in monos.items():
                for rc, idx in reps.items():
                    c = tuple(map(add, mc, rc))
                    if is_dominant(c):
                        blocks.setdefault(c, []).extend(
                            (m, i) for m in ms for i in idx)
            for pairs in blocks.values():
                pairs.sort()
            self._blocks[d] = blocks
        return blocks

    def weight_space(self, d, nu):
        """Ordered basis pairs (monomial, rep index) of dominant weight nu."""
        return self.weight_blocks(d).get(tuple(nu), [])

    def monomial_weight(self, mono):
        return mono_weight(mono)

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

    def element_degree(self, elem):
        degs = {mono_degree(m) for m, _ in elem}
        if len(degs) != 1:
            raise ValueError("element is not degree-homogeneous")
        return degs.pop()

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
        """The sum of u * elem over (u, elem) pairs, as uminus.product_int."""
        return _scalars(*product_int(pairs))

    def act_e(self, a, b, elem):
        """A single gl5 symbol x_a p_b; traceless aggregates are genuine."""
        return _scalars(*self.act_e_int(a, b, elem))

    def act_e_int(self, a, b, elem):
        """act_e as (integer numerators keyed like elem, common denominator).

        Numerators may be zero; act_e drops those when it builds scalars.
        The bracket [x_a p_b, p^P w] (module docstring) is accumulated in
        place: the p_a term directly, then the cached form-word pieces of
        [x_a p_b, w] shifted by P.
        """
        mden, cols = self.rep.mat(a, b)
        eden = _den(elem.values())
        acc = {}
        for (m, i), n in _numerators(elem, eden):
            nm = n * mden
            parts, forms = m
            pa = parts[a - 1]
            if pa:
                pl = list(parts)
                pl[a - 1] -= 1
                pl[b - 1] += 1
                key = ((tuple(pl), forms), i)
                acc[key] = acc.get(key, 0) - nm * pa
            for (dp, f2), ca in _ad_e_forms(a, b, forms):
                key = ((parts if dp is ZERO_PARTIALS else
                        tuple(map(add, parts, dp)), f2), i)
                acc[key] = acc.get(key, 0) + nm * ca
            for i2, cv in cols[i].items():
                key = (m, i2)
                acc[key] = acc.get(key, 0) + n * cv
        return acc, eden * mden

    def act_pieces(self, x, elem):
        """x (a dict symbol -> scalar) on elem, through the subclass's pieces.

        The scalars of act_pieces_int.
        """
        return _scalars(*self.act_pieces_int(x, elem))

    def act_pieces_int(self, x, elem):
        """act_pieces as (integer numerators, common denominator).

        Numerators may be zero, as in act_e_int.  pieces(sym, forms) gives
        the p-free Leibniz terms X_D of sym on the form word w of p^P w
        (module docstring) as int tuples (D, c, A, B), D the pairs (i, D_i)
        of its nonzero entries: X_D w v = c (A v + sum n d_forms2 x_a p_b v)
        over the triples ((a, b), forms2, n) of B, with A int pieces
        ((dparts, forms2), n) relative to p^(P - D).  Only here is p^P
        applied: C(P, D) and P - D enter as the terms accumulate.  x, elem
        and the rep matrices share one denominator.
        """
        xden, eden = _den(x.values()), _den(elem.values())
        enums = _numerators(elem, eden)
        terms = []
        mat_keys = set()
        for sym, nx in _numerators(x, xden):
            for ((parts, forms), i), n in enums:
                for D, c, A, B in self.pieces(sym, forms):
                    base = parts
                    if D:
                        pl = list(parts)
                        for k, dk in D:
                            c *= comb(pl[k - 1], dk)
                            pl[k - 1] -= dk
                        if not c:
                            continue
                        base = tuple(pl)
                    for ab, _, _ in B:
                        mat_keys.add(ab)
                    terms.append((base, i, nx * n * c, A, B))
        mats = {ab: self.rep.mat(*ab) for ab in mat_keys}
        mden = lcm(*(d for d, _ in mats.values()))
        acc = {}
        for base, i, n, A, B in terms:
            na = n * mden
            for (dp, f2), ca in A:
                key = ((base if dp is ZERO_PARTIALS else
                        tuple(map(add, base, dp)), f2), i)
                acc[key] = acc.get(key, 0) + na * ca
            for ab, f2, cb in B:
                d, cols = mats[ab]
                m2 = (base, f2)
                nb = n * (mden // d) * cb
                for i2, cv in cols[i].items():
                    key = (m2, i2)
                    acc[key] = acc.get(key, 0) + nb * cv
        return acc, xden * eden * mden

    def act(self, x, elem):
        """An algebra element x (a dict symbol -> scalar) on elem.

        gl5 symbols ("e", a, b) act through act_e, the negative part
        ("p", i) and ("d", f) by one left multiplication, and every other
        symbol in one act_pieces pass.
        """
        gl, neg, pos = [], {}, {}
        for sym, c in x.items():
            kind = sym[0]
            if kind == "e":
                gl.append((sym[1], sym[2], c))
            elif kind == "p":
                add_scaled(neg, p_elem(sym[1]), c)
            elif kind == "d":
                add_scaled(neg, d_elem(*PAIRS[sym[1]]), c)
            else:
                pos[sym] = c
        out = self.act_pieces(pos, elem) if pos else {}
        if neg:
            add_scaled(out, self.mult(neg, elem), 1)
        for a, b, c in gl:
            add_scaled(out, self.act_e(a, b, elem), c)
        return out

    def int_conditions(self, elem):
        """(label, (numerators, denominator)) images of the conditions.

        The one list of singularity conditions: e_1..e_4, then the POSITIVE
        generators, each image as act_e_int and act_pieces_int give it.
        """
        for i in range(1, 5):
            yield "e%d" % i, self.act_e_int(i, i + 1, elem)
        for label, x in self.POSITIVE:
            yield label, self.act_pieces_int(x, elem)

    def conditions(self, elem):
        """(label, image) pairs of int_conditions, with scalar images."""
        for label, img in self.int_conditions(elem):
            yield label, _scalars(*img)

    def is_singular(self, elem):
        """Nonzero and annihilated by every singularity condition."""
        return bool(elem) and not any(
            any(acc.values()) for _, (acc, _) in self.int_conditions(elem))


class VermaModule(InducedModule):
    """U(g_-) (x) F(mu) for a dominant sl5 weight mu."""

    algebra = "E(5,10)"
    # x_5 d_45, the lowest weight vector of the degree +1 part
    POSITIVE = (("x5d45", {("xd", 5, 9): 1}),)

    def monomials(self, d):
        return enumerate_monomials(d)

    def pieces(self, sym, forms):
        return xd_pieces(sym[1], sym[2], forms)

    def is_singular(self, elem, full_g1=False):
        """Annihilated by e_1..e_4 and by g_1.

        By default only x_5 d_45 is applied on the g_1 side (the conditions):
        together with the raising conditions this kills all of g_1, since
        the annihilator is closed under bracketing with raisings and g_1 is
        generated from x_5 d_45 by them.  full_g1 sweeps all 40 basis
        elements as well (kills_g1).
        """
        return super().is_singular(elem) and (
            not full_g1 or self.kills_g1(elem))

    def kills_g1(self, elem):
        """Whether each of the 40 basis elements of g_1 annihilates elem."""
        return not any(self.act(x, elem) for x in g1_basis())


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
    """The nonzero exact scalar c with b == c * a, or None.

    c is built as a Q, so int-valued U(g_-) elements give an exact ratio.
    """
    if not a or not b:
        return None
    k = next(iter(a))
    if k not in b:
        k = next(iter(b))
        if k not in a:
            return None
    c = Q(b[k]) / a[k]
    if c and b == {kk: c * v for kk, v in a.items()}:
        return c
    return None
