"""Finite Verma modules U(g_-) (x) F(mu) with exact generator actions.

Elements are dicts (PBW monomial, rep basis index) -> scalar.  The negative
part acts by left multiplication, gl5 symbols act as (derivation on the
monomial) + (matrix on the rep factor), and positive symbols X act in
closed form by the Leibniz rule: the p_i are central in U(g_-), so

    X p^P = sum_D C(P, D) p^(P - D) X_D,   C(P, D) = prod_i C(P_i, D_i),

with X_D the p-free D-fold bracket of X with the p's (see act_pieces_int).
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
_act_e_terms is its one copy: U(g_-) under ad gl5 is M(F(0,0,0,0)).

The actions are fraction-free: an input's coefficients go over one common
denominator, numerators accumulate as ints keyed by (monomial, rep index),
and one scalar is built per nonzero entry of the result.  The memoized
pieces of the g_0 and g_1 actions are built from the integer generators
and index rules of uminus (signs, exponents and eps values), so they are
stored as ints.  Both caches are keyed on form words, not monomials:
_AD_E_CACHE on (a, b, w), at most 25 x 2^10 entries, and _XD_CACHE on
(k, f, w), at most 50 x 2^10; p^P enters while the actions accumulate.
_AD_E_CACHE fills by prefixes: a miss on w = w' q reads (a, b, w') first,
filling it on a miss too, and builds [x_a p_b, d_w] from its pieces, each
times d_q, and from d_w' times the one form of [x_a p_b, d_q]: two
single-form orderings per piece.
act_e_int, act_pieces_int and int_conditions return the integer
numerators with their denominator; the rep matrices are those of
Irrep.mat.  Their loops, _act_e_terms, _leibniz_terms and _leibniz_acc,
take numerators and rep matrices as arguments, so condition_rows gives
one row builder per condition label: it applies that condition to the
basis pairs of given columns of a search block, with the rep matrices
looked up once per call, and builds integer rows without a scalar.  The
Leibniz rule has one accumulator, _leibniz_acc, and it is tagged: every
term carries a tag, and it writes rows image key -> {tag: numerator}.  A
positive generator's builder makes one pass over all its columns, tag =
column; g1_failure makes one pass over all 40 g_1 elements, tag = basis
index; act_pieces_int is its one-tag case.  e_a applies _act_e_terms per
column and _transpose turns the images into rows: a flat loop stays
cheaper for the many one-element calls of the gl5 action.  The
labels come in search order, the POSITIVE generators (x_5 d_45), then e_4,
e_3, e_2, e_1: singular_search.singular_block peels the forced zeros
after each label and builds the next one only on the columns still live,
which keeps the kernel (argued there).  x_5 d_45 first forces the most
columns; with e_4..e_1 after it, degree 11 of M(F(0,0,0,1)) builds 9 994
of its 21 665 column images.  int_conditions stays the independent
per-element path that re-checks the kernel vectors.

The search blocks are indexed by dominant weight in fundamental
coordinates.  Coordinates add, so weight_blocks groups the monomials and
the rep indices by their own coordinates and crosses the groups, instead of
checking every monomial against every rep vector.
"""

from functools import partial
from math import comb, lcm
from operator import add

from .scalars import Q, qparse, _den, _numerators, _scalars
from .uminus import (
    PAIRS, EPS, TMATE, ZERO_PARTIALS, _order_forms, mono_degree,
    mono_weight, add_scaled, d_elem, p_elem, form_step, product_int,
    enumerate_monomials, format_monomial, parse_monomial,
)
from .sl5_reps import ambient_monomial, build_irrep, eps_to_coords

_AD_E_CACHE = {}
_XD_CACHE = {}
_UNIT_DELTAS = tuple(((k, 1),) for k in range(1, 6))  # D = e_k, shared


def _ad_e_forms(a, b, forms):
    """[x_a p_b, d_w] for the sorted form word w, normal ordered.

    A tuple of int pieces ((dparts, forms2), c): dparts is the p-delta of a
    d_p d_q contraction, ZERO_PARTIALS itself when there is none.  Cached
    per (a, b, forms), at most 25 x 2^10 entries, and built from the entry
    of its prefix, [E, d_w' d_q] = [E, d_w'] d_q + d_w' [E, d_q].
    """
    key = (a, b, forms)
    got = _AD_E_CACHE.get(key)
    if got is None:
        acc = {}
        if forms:
            head, tail = forms[:-1], forms[-1:]
            for (dp, f2), c in _ad_e_forms(a, b, head):
                for (dp2, f3), c2 in _order_forms(f2, tail):
                    if dp is not ZERO_PARTIALS:
                        dp2 = dp if dp2 is ZERO_PARTIALS else \
                            tuple(map(add, dp, dp2))
                    m = (dp2, f3)
                    acc[m] = acc.get(m, 0) + c * c2
            step = form_step(a, b, tail[0])
            if step is not None:
                g, sign = step
                for m, c in _order_forms(head, (g,)):
                    acc[m] = acc.get(m, 0) + sign * c
        got = _AD_E_CACHE[key] = tuple((m, c) for m, c in acc.items() if c)
    return got


def xd_pieces(sym, forms):
    """x_k d_(pair f), sym ("xd", k, f), past p^P on the form word w, as
    act_pieces_int pieces.

    Termwise bookkeeping; sum over a closed combination of symbols to act
    with an actual degree +1 element.  Two Leibniz terms (module
    docstring): D = 0, the sum over the 2-forms of w, where the g_0
    element x_k p_t of the j-th term acts on the tail through the
    form-word pieces of act_e_int (into A) and on v (into B); each t comes
    from one q_j, so B[k, t] is the single word w without q_j.  D = e_k,
    the factor -1 on the shared pieces of d_f w.  Cached per (k, f, forms).
    """
    _, k, f = sym
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


def _act_e_terms(a, b, enums, mat):
    """x_a p_b on the terms ((m, i), n) of enums, as integer numerators.

    mat is rep.mat(a, b), (den, columns); the numerators are over den times
    the denominator of the n.  The bracket [x_a p_b, p^P w] (module
    docstring) is accumulated in place: the p_a term directly, then the
    cached form-word pieces of [x_a p_b, w] shifted by P, then the rep
    column of v_i.  The cache is read here; _ad_e_forms runs on a miss.
    """
    mden, cols = mat
    acc = {}
    for (m, i), n in enums:
        nm = n * mden
        parts, forms = m
        pa = parts[a - 1]
        if pa:
            pl = list(parts)
            pl[a - 1] -= 1
            pl[b - 1] += 1
            key = ((tuple(pl), forms), i)
            acc[key] = acc.get(key, 0) - nm * pa
        pieces = _AD_E_CACHE.get((a, b, forms))
        if pieces is None:
            pieces = _ad_e_forms(a, b, forms)
        for (dp, f2), ca in pieces:
            key = ((parts if dp is ZERO_PARTIALS else
                    tuple(map(add, parts, dp)), f2), i)
            acc[key] = acc.get(key, 0) + nm * ca
        for i2, cv in cols[i].items():
            key = (m, i2)
            acc[key] = acc.get(key, 0) + n * cv
    return acc


def _transpose(images):
    """Rows image key -> {j: n} from the (j, numerators) images of columns."""
    rows = {}
    for j, acc in images:
        for key, n in acc.items():
            if n:
                rows.setdefault(key, {})[j] = n
    return rows


def _leibniz_acc(terms, mats, mden):
    """Rows image key -> {tag: numerator over mden} of tagged Leibniz terms.

    terms are the (tag, base, i, n, A, B) of InducedModule._leibniz_terms,
    each tag's terms contiguous.  mats maps every (a, b) of the B parts to
    its (den, columns); each den divides mden.  Each entry is summed in
    place, and one left at zero is dropped when its tag ends, with its row
    if it was the only entry.  So rows and entries come in the order in
    which the tags' nonzero images, read one after another, add them: a row
    at its first term in the first tag that leaves it nonzero.
    """
    rows, zeros, tag = {}, [], None
    for t, base, i, n, A, B in terms:
        if t != tag:
            _drop_zeros(rows, zeros, tag)
            tag = t
        na = n * mden
        for (dp, f2), ca in A:
            key = ((base if dp is ZERO_PARTIALS else
                    tuple(map(add, base, dp)), f2), i)
            row = rows.get(key)
            if row is None:
                rows[key] = {t: na * ca}
            else:
                s = row[t] = row.get(t, 0) + na * ca
                if not s:
                    zeros.append(key)
        for ab, f2, cb in B:
            d, cols = mats[ab]
            m2 = (base, f2)
            nb = n * (mden // d) * cb
            for i2, cv in cols[i].items():
                key = (m2, i2)
                row = rows.get(key)
                if row is None:
                    rows[key] = {t: nb * cv}
                else:
                    s = row[t] = row.get(t, 0) + nb * cv
                    if not s:
                        zeros.append(key)
    _drop_zeros(rows, zeros, tag)
    return rows


def _drop_zeros(rows, keys, tag):
    """Drop tag's zero entries from the rows of keys, and each row left
    empty; keys is cleared."""
    for key in keys:
        row = rows.get(key)
        if row is not None and row.get(tag) == 0:
            del row[tag]
            if not row:
                del rows[key]
    keys.clear()


class InducedModule:
    """U(g_-) (x) F(mu) for some negative part g_- and the sl5 irrep F(mu).

    Elements are dicts (PBW monomial of U(g_-), rep index) -> scalar.  A
    subclass supplies the protocol, four attributes: algebra, a tag;
    monomials(d), the degree-d PBW monomials of its negative part;
    pieces(sym, forms), the p-free Leibniz terms of a positive symbol (see
    act_pieces_int), a plain function of the symbol and the form word; and
    POSITIVE, the (label, element) pairs that with e_1..e_4 generate the
    positive part.  Everything that does not depend on the algebra lives
    here: weight blocks, weights, degrees, left multiplication, the gl5
    action, the one action kernel of the positive part, act, the
    singularity conditions and the condition rows of a search block.
    """

    def __init__(self, mu):
        self.mu = tuple(mu)
        self.rep = build_irrep(self.mu)
        self._blocks = {}

    def weight_blocks(self, d):
        """Dominant weight -> sorted basis pairs (monomial, rep index), degree d.

        Weights compare in fundamental coordinates, so pairs from different
        trace branches of the concrete realization are collected together,
        as they must be.  Coordinates add: a monomial's are the sum of
        those of its p-part and of its form word, each computed once per
        distinct part (at most 2^10 form words).  So the degree-d monomials
        and the rep indices are grouped by their own coordinates once, and
        each block is the union of the products of the groups whose sum is
        its weight.  Only dominant sums are kept: a singular vector lies in
        a finite dimensional sl5-stable degree component, so its weight is
        dominant, and every caller asks for a dominant weight (the dual of
        a dominant weight is dominant too).  The blocks are cached on the
        instance; the groups are not kept.
        """
        blocks = self._blocks.get(d)
        if blocks is None:
            monos, reps = {}, {}
            pcs, fcs = {}, {}
            for mono in self.monomials(d):
                parts, forms = mono
                pc = pcs.get(parts)
                if pc is None:
                    pc = pcs[parts] = eps_to_coords(
                        mono_weight((parts, ())))
                fc = fcs.get(forms)
                if fc is None:
                    fc = fcs[forms] = eps_to_coords(
                        mono_weight((ZERO_PARTIALS, forms)))
                c = (pc[0] + fc[0], pc[1] + fc[1], pc[2] + fc[2],
                     pc[3] + fc[3])
                monos.setdefault(c, []).append(mono)
            for i, rw in enumerate(self.rep.eps_weights):
                reps.setdefault(eps_to_coords(rw), []).append(i)
            reps = [(*rc, idx) for rc, idx in reps.items()]
            blocks = {}
            # most pairs of groups are not dominant: test the four sums
            # before building a key
            for (m1, m2, m3, m4), ms in monos.items():
                for r1, r2, r3, r4, idx in reps:
                    if (m1 + r1 >= 0 and m2 + r2 >= 0 and m3 + r3 >= 0
                            and m4 + r4 >= 0):
                        key = (m1 + r1, m2 + r2, m3 + r3, m4 + r4)
                        blocks.setdefault(key, []).extend(
                            (m, i) for m in ms for i in idx)
            for pairs in blocks.values():
                pairs.sort()
            self._blocks[d] = blocks
        return blocks

    def weight_space(self, d, nu):
        """Ordered basis pairs (monomial, rep index) of dominant weight nu."""
        return self.weight_blocks(d).get(tuple(nu), [])

    def element_coords(self, elem):
        """sl5 weight in fundamental coordinates."""
        eps = self.rep.eps_weights
        cs = {eps_to_coords(tuple(map(add, mono_weight(m), eps[i])))
              for m, i in elem}
        if len(cs) != 1:
            raise ValueError("element is not weight-homogeneous")
        return cs.pop()

    def element_degree(self, elem):
        degs = {mono_degree(m) for m, _ in elem}
        if len(degs) != 1:
            raise ValueError("element is not degree-homogeneous")
        return degs.pop()

    def tensor(self, u, coeffs):
        """(U(g_-) element) (x) (rep coordinate vector)."""
        out = {}
        for m, cu in u.items():
            for i, cv in coeffs.items():
                c = cu * cv
                if c:
                    out[(m, i)] = c
        return out

    def tensor_sum(self, terms):
        """The sum of u (x) (ambient monomial) over (u, factors) terms.

        factors are the keyword lists of sl5_reps.ambient_monomial.  The
        monomial's coordinates come from Irrep.monomial_coords, so each
        (irrep, monomial) pair costs one Gram solve however many terms and
        instances name it; a term whose u is zero costs none.
        """
        out = {}
        for u, factors in terms:
            if u:
                coords = self.rep.monomial_coords(ambient_monomial(**factors))
                add_scaled(out, self.tensor(u, coords), 1)
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
        The one loop is _act_e_terms.
        """
        mat = self.rep.mat(a, b)
        eden = _den(elem.values())
        acc = _act_e_terms(a, b, _numerators(elem, eden), mat)
        return acc, eden * mat[0]

    def act_pieces_int(self, x, elem):
        """x (a dict symbol -> scalar) on elem, as (numerators, denominator).

        The subclass's pieces give the terms of each symbol; act takes the
        scalars.  It is the one-tag case of the tagged Leibniz pass:
        _leibniz_terms collects the terms of x on elem under tag 0, and
        _leibniz_acc adds them up over the lcm of the denominators of the
        rep matrices they use, so the numerators are nonzero; x, elem and
        those matrices share one denominator.
        """
        xden, eden = _den(x.values()), _den(elem.values())
        mats = {}
        terms = self._leibniz_terms(
            _numerators(x, xden),
            ((0, key, n) for key, n in _numerators(elem, eden)), mats)
        mden = lcm(*(d for d, _ in mats.values()))
        rows = _leibniz_acc(terms, mats, mden)
        return {key: row[0] for key, row in rows.items()}, xden * eden * mden

    def _leibniz_terms(self, xnums, tagged, mats):
        """The tagged Leibniz terms (tag, base, i, n, A, B) of x on elements.

        xnums is the (symbol, numerator) list of x, and tagged the (tag,
        key, numerator) terms of the elements x acts on, each tag's terms
        contiguous.  The terms come in the order of tagged, the symbols
        inner, so each tag's terms stay contiguous.  pieces(sym, forms)
        gives the p-free Leibniz terms X_D of sym on the form word w of
        p^P w (module docstring) as int tuples (D, c, A, B), D the pairs
        (i, D_i) of its nonzero entries: X_D w v = c (A v + sum n d_forms2
        x_a p_b v) over the triples ((a, b), forms2, n) of B, with A int
        pieces ((dparts, forms2), n) relative to p^(P - D).  Only here is
        p^P applied: C(P, D) and P - D enter the term, as base and n, and a
        term with n = 0 is left out.  mats gets the rep matrix of every
        (a, b) of the B parts, as Irrep.mat gives it.
        """
        terms = []
        for tag, ((parts, forms), i), n in tagged:
            for sym, nx in xnums:
                for D, c, A, B in self.pieces(sym, forms):
                    c *= nx * n
                    base = parts
                    if D:
                        pl = list(parts)
                        for k, dk in D:
                            c *= comb(pl[k - 1], dk)
                            pl[k - 1] -= dk
                        base = tuple(pl)
                    if not c:
                        continue
                    for ab, _, _ in B:
                        if ab not in mats:
                            mats[ab] = self.rep.mat(*ab)
                    terms.append((tag, base, i, c, A, B))
        return terms

    def act(self, x, elem):
        """An algebra element x (a dict symbol -> scalar) on elem.

        gl5 symbols ("e", a, b) act through act_e, the negative part
        ("p", i) and ("d", f) by one left multiplication, and every other
        symbol in one act_pieces_int pass.
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
        out = _scalars(*self.act_pieces_int(pos, elem)) if pos else {}
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

    def condition_rows(self, block):
        """The row builders of a block's conditions, as (label, rows) pairs.

        Labels come in search order: the POSITIVE generators, then e_4,
        e_3, e_2, e_1.  rows(columns) builds the label's integer rows over
        the given positions of block, a dict image key -> {j: numerator}:
        column j is the basis pair block[j], and the nonzero numerators of
        its image (that of int_conditions) are its entries.  Rows appear in
        the order their first column adds them.  All rows of one call share
        one denominator over those columns: that of e_a's rep matrix, and
        for a positive generator that of its coefficients times the lcm of
        the denominators of the rep matrices its terms use on them.  So each
        row is its rational row times one positive integer per call.
        """
        out = [(label, partial(self._leibniz_rows, block, x))
               for label, x in self.POSITIVE]
        out += [("e%d" % a, partial(self._act_e_rows, block, a))
                for a in (4, 3, 2, 1)]
        return out

    def _act_e_rows(self, block, a, columns):
        """condition_rows of e_a on the columns of block."""
        mat = self.rep.mat(a, a + 1)
        return _transpose((j, _act_e_terms(a, a + 1, ((block[j], 1),), mat))
                          for j in columns)

    def _leibniz_rows(self, block, x, columns):
        """condition_rows of the positive generator x on the columns of
        block: one tagged Leibniz pass, tag = column, over the lcm of the
        rep matrix denominators the columns use."""
        mats = {}
        terms = self._leibniz_terms(_numerators(x, _den(x.values())),
                                    ((j, block[j], 1) for j in columns), mats)
        return _leibniz_acc(terms, mats, lcm(*(d for d, _ in mats.values())))

    def failed_condition(self, elem):
        """Label of the first condition that does not kill elem, or None."""
        for label, (acc, _) in self.int_conditions(elem):
            if any(acc.values()):
                return label
        return None

    def is_singular(self, elem, **checks):
        """Nonzero and passing failed_condition(elem, **checks)."""
        return bool(elem) and self.failed_condition(elem, **checks) is None


class VermaModule(InducedModule):
    """U(g_-) (x) F(mu) for a dominant sl5 weight mu."""

    algebra = "E(5,10)"
    # x_5 d_45, the lowest weight vector of the degree +1 part
    POSITIVE = (("x5d45", {("xd", 5, 9): 1}),)

    # a method, not staticmethod(enumerate_monomials), so that it reads the
    # module global at each call: perfbench/tracer.py times that global
    def monomials(self, d):
        return enumerate_monomials(d)

    pieces = staticmethod(xd_pieces)

    def failed_condition(self, elem, full_g1=False):
        """As InducedModule.failed_condition; with full_g1, then g1_failure.

        By default only x_5 d_45 is applied on the g_1 side: together with
        the raising conditions this kills all of g_1, since the annihilator
        is closed under bracketing with raisings and g_1 is generated from
        x_5 d_45 by them.  full_g1 sweeps all 40 basis elements as well.
        """
        label = super().failed_condition(elem)
        if label is None and full_g1:
            label = self.g1_failure(elem)
        return label

    def g1_failure(self, elem):
        """"g1[n]" for the first g1_basis()[n] not killing elem, or None.

        One tagged Leibniz pass, tag = n, applies all 40 basis elements to
        elem, each to the same numerators of elem, and each still stands on
        its own: a tag's entries are the numerators of its element's image,
        so the label is the first tag left with a row entry.  The basis is
        imported here, its one use, so a search without full_g1 never
        loads e510_algebra.
        """
        from .e510_algebra import g1_basis
        enums = _numerators(elem, _den(elem.values()))
        mats, terms = {}, []
        for n, x in enumerate(g1_basis()):
            terms += self._leibniz_terms(
                _numerators(x, _den(x.values())),
                ((n, key, e) for key, e in enums), mats)
        rows = _leibniz_acc(terms, mats, lcm(*(d for d, _ in mats.values())))
        tags = {t for row in rows.values() for t in row}
        return "g1[%d]" % min(tags) if tags else None


def tensor_terms(elem):
    """Canonical JSON-ready term list of a tensor element."""
    rows = []
    for (m, i), c in elem.items():
        rows.append({"monomial": format_monomial(m), "index": i,
                     "coeff": str(c)})
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
        return None
    c = Q(b[k]) / a[k]
    if c and b == {kk: c * v for kk, v in a.items()}:
        return c
    return None
