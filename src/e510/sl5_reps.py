"""Finite irreducible sl5 modules, realized inside tensor products.

F(a,b,c,d) is generated by the highest weight vector

    x1^a x12^b (x45*)^c (x5*)^d

inside Sym^a(C^5) x Sym^b(L) x Sym^c(L*) x Sym^d(C^5*), with L the second
exterior power of C^5.  Weights are written in fundamental coordinates
(a, b, c, d); simple raising/lowering operators are e_i = x_i p_{i+1} and
f_i = x_{i+1} p_i.  Dual module: F(a,b,c,d)* = F(d,c,b,a), with the dual
action (X f)(v) = -f(X v).

Ambient monomials are 4-tuples of exponent tuples (5, 10, 10, 5 slots); a
vector is a dict monomial -> scalar.  Basis construction closes the highest
weight vector under f_1..f_4, keeping an exact echelon per weight block, and
records for each basis vector which lowering operator produced it from which
earlier vector (used to transport vectors along module morphisms).  The
closure starts from a monomial and acts with integers, so the basis
vectors are integral: their coefficients are ints.  Irrep.mat keeps the
matrices of x_a p_b as integer columns over one denominator, and solves
for none of them:

- f_b = x_(b+1) p_b: the closure applies every f_b to every basis vector
  and reduces the image in its weight block, so it keeps the column, the
  new index when the image joins the basis, else the image's coordinates
  from the same reduction.
- e_a = x_a p_(a+1): basis vector j > 0 is v_j = f_l v_par, and
  [e_a, f_l] is h_a = x_a p_a - x_(a+1) p_(a+1) when a = l, else 0, so
  e_a v_j = f_l (e_a v_par) + [a = l] (w_par[a] - w_par[a+1]) v_par,
  column by column down the lowering tree from e_a v_0 = 0.
- any other x_a p_c: [x_a p_b, x_b p_c] = x_a p_c for a != c, with b the
  neighbour of a on the way to c, so each is a commutator of a simple
  matrix and a shorter one.

Irrep.project takes the F-component of an ambient vector of F's multidegree
by orthogonal projection under the monomial form <x^A, x^B> = delta_AB * A!,
A! the product of the factorials of all exponents.  The form is positive
definite and contravariant: x_a p_b and x_b p_a are adjoint on every factor,
the signs of form_step on the wedges and the negated dual actions included.
F occurs once in its multidegree space, whose F-highest weight space is the
single monomial above, so the orthogonal complement of F is its only
invariant complement.
"""

from functools import lru_cache
from math import factorial, gcd, lcm

from .scalars import _den, _numerators, _scalars
from .linalg import Echelon
from .uminus import PAIRS, PAIR_INDEX, form_step

# block order inside an ambient monomial key
_X, _W, _WD, _XD = 0, 1, 2, 3


def parse_weight(text: str):
    parts = tuple(int(x) for x in text.split(","))
    if len(parts) != 4:
        raise ValueError("weights have four fundamental coordinates: %r" % text)
    return parts


def weight_str(w) -> str:
    return ",".join(str(x) for x in w)


def is_dominant(w) -> bool:
    return all(x >= 0 for x in w)


def dual_weight(w):
    return tuple(reversed(tuple(w)))


def eps_to_coords(w5):
    """Fundamental coordinates of an eps-weight (well defined mod (1,..,1))."""
    return (w5[0] - w5[1], w5[1] - w5[2], w5[2] - w5[3], w5[3] - w5[4])


def weyl_dim(w) -> int:
    """Dimension of F(w) by the Weyl product formula over positive roots."""
    a, b, c, d = w
    lam = (a, b, c, d)
    num, den = 1, 1
    for i in range(4):
        for j in range(i, 4):
            span = sum(lam[i:j + 1]) + (j - i + 1)
            num *= span
            den *= (j - i + 1)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("Weyl dimension is not an integer")
    return q


def gt_pattern_count(w) -> int:
    """Dimension of F(w) by counting Gelfand-Tsetlin branching patterns.

    Independent of weyl_dim: recursively counts chains of interlacing
    partitions down the gl5 > gl4 > ... > gl1 restriction tower.
    """
    a, b, c, d = w
    top = (a + b + c + d, b + c + d, c + d, d, 0)

    @lru_cache(maxsize=None)
    def count(row):
        if len(row) == 1:
            return 1
        total = 0
        for nxt in _interlacing(row):
            total += count(nxt)
        return total

    def _interlacing(row):
        def rec(i, prefix):
            if i == len(row) - 1:
                yield tuple(prefix)
                return
            lo, hi = row[i + 1], row[i]
            for v in range(lo, hi + 1):
                yield from rec(i + 1, prefix + [v])
        yield from rec(0, [])

    return count(top)


def act_ambient(a, b, vec):
    """Action of the gl5 element x_a p_b on an ambient vector."""
    out = {}
    for mono, c in vec.items():
        if a == b:
            _bump(out, mono, c * _mono_eps_weight(mono)[a - 1])
            continue
        xs, ws, wds, xds = mono
        # Sym(C^5): x_b -> x_a
        k = xs[b - 1]
        if k:
            nx = list(xs)
            nx[b - 1] -= 1
            nx[a - 1] += 1
            _bump(out, (tuple(nx), ws, wds, xds), c * k)
        # Sym(L): derivation over each wedge factor
        for f, e in enumerate(ws):
            step = form_step(a, b, f) if e else None
            if step:
                nw = list(ws)
                nw[f] -= 1
                nw[step[0]] += 1
                _bump(out, (xs, tuple(nw), wds, xds), c * e * step[1])
        # Sym(L*): e_ab . x*_kl = -delta_ak x*_bl - delta_al x*_kb
        for f, e in enumerate(wds):
            step = form_step(b, a, f) if e else None
            if step:
                nw = list(wds)
                nw[f] -= 1
                nw[step[0]] += 1
                _bump(out, (xs, ws, tuple(nw), xds), -c * e * step[1])
        # Sym(C^5*): e_ab . x*_a = -x*_b
        k = xds[a - 1]
        if k:
            nx = list(xds)
            nx[a - 1] -= 1
            nx[b - 1] += 1
            _bump(out, (xs, ws, wds, tuple(nx)), -c * k)
    return out


def _bump(out, key, c):
    if not c:
        return
    s = out.get(key, 0) + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


@lru_cache(maxsize=None)
def _mono_eps_weight(mono):
    w = [0] * 5
    xs, ws, wds, xds = mono
    for i in range(5):
        w[i] += xs[i] - xds[i]
    for f in range(10):
        i, j = PAIRS[f]
        w[i - 1] += ws[f] - wds[f]
        w[j - 1] += ws[f] - wds[f]
    return tuple(w)


def _mono_profile(mono):
    return tuple(sum(part) for part in mono)


class Irrep:
    """A concrete F(a,b,c,d) with basis, weights and cached actions."""

    def __init__(self, weight):
        self.weight = tuple(weight)
        if not is_dominant(self.weight):
            raise ValueError("highest weight must be dominant: %s" % (weight,))
        a, b, c, d = self.weight
        hw = ((a, 0, 0, 0, 0),
              (b,) + (0,) * 9,
              (0,) * 9 + (c,),
              (0, 0, 0, 0, d))
        self.basis = [{hw: 1}]
        self.eps_weights = [_mono_eps_weight(hw)]
        self.parents = [None]  # index -> (parent index, lowering op i)
        self._close()
        self._grams = {}
        self._by_weight = {}
        for j, wkey in enumerate(self.eps_weights):
            self._by_weight.setdefault(wkey, []).append(j)
        if len(self.basis) != weyl_dim(self.weight):
            raise AssertionError(
                "closure dimension %d disagrees with Weyl formula %d for %s"
                % (len(self.basis), weyl_dim(self.weight), self.weight))
        for i in range(1, 5):
            if act_ambient(i, i + 1, self.basis[0]):
                raise AssertionError("e_%d does not kill the highest weight "
                                     "vector of F%s" % (i, self.weight))
        self.dim = len(self.basis)

    def _close(self):
        """Close under f_1..f_4, keeping the matrix of each f_low: on every
        basis vector, {new index: 1} when its image joins the basis, else
        the image's coordinates from the same reduction, in the echelon of
        its weight block."""
        blocks = {self.eps_weights[0]: Echelon()}
        blocks[self.eps_weights[0]].insert(self.basis[0], 0)
        lower = {low: [] for low in range(1, 5)}
        i = 0
        while i < len(self.basis):
            for low in range(1, 5):
                img = act_ambient(low + 1, low, self.basis[i])
                den, col = 1, {}
                if img:
                    wkey = _mono_eps_weight(next(iter(img)))
                    block = blocks.setdefault(wkey, Echelon())
                    got = block.place(img, len(self.basis))
                    if got is None:
                        col = {len(self.basis): 1}
                        self.basis.append(img)
                        self.eps_weights.append(wkey)
                        self.parents.append((i, low))
                    else:
                        den, col = got
                lower[low].append((den, col))
            i += 1
        self._mats = {(low + 1, low): _over_lcm(lower[low])
                      for low in range(1, 5)}

    def mat(self, a, b):
        """x_a p_b on the basis as (den, columns of int numerators).

        Nothing is solved for a != b (module docstring): f_b = x_(b+1) p_b
        is the matrix _close kept, e_a = x_a p_(a+1) follows the lowering
        tree (_raising), and any other x_a p_c is [x_a p_b, x_b p_c], b the
        neighbour of a on the way to c.
        """
        got = self._mats.get((a, b))
        if got is None:
            if a == b:
                got = (1, [{j: w[a - 1]} if w[a - 1] else {}
                           for j, w in enumerate(self.eps_weights)])
            elif b == a + 1:
                got = self._raising(a)
            else:
                n = a + 1 if b > a else a - 1
                got = _commutator(self.mat(a, n), self.mat(n, b))
            self._mats[(a, b)] = got
        return got

    def _raising(self, a):
        """e_a column by column, parent before child down the lowering tree.

        v_j = f_l v_par, so e_a v_j = f_l (e_a v_par) + [a = l] h_a v_par
        with h_a v_par = (w_par[a] - w_par[a+1]) v_par.  e_a v_0 = 0 is
        checked in __init__.
        """
        cols = [(1, {})]
        for j in range(1, self.dim):
            par, low = self.parents[j]
            fden, fcols = self._mats[(low + 1, low)]
            pden, pcol = cols[par]
            acc = _product_into({}, fcols, pcol)
            den = fden * pden
            if low == a:
                w = self.eps_weights[par]
                acc[par] = acc.get(par, 0) + (w[a - 1] - w[a]) * den
            cols.append(_lowest(den, acc))
        return _over_lcm(cols)

    def act(self, a, b, coeffs):
        """x_a p_b on a coordinate vector (dict index -> scalar)."""
        den, cols = self.mat(a, b)
        cden = _den(coeffs.values())
        acc = {}
        for j, n in _numerators(coeffs, cden):
            for i, v in cols[j].items():
                acc[i] = acc.get(i, 0) + n * v
        return _scalars(acc, cden * den)

    def project(self, vec):
        """Coordinates of the component of an ambient vector along this module.

        The space of ambient vectors with this module's multidegree splits as
        the module plus the other isotypic pieces.  Under the monomial form
        <x^A, x^B> = delta_AB * A! (positive definite, with x_a p_b adjoint to
        x_b p_a) the orthogonal complement of the module is invariant, and as
        F occurs once in that space it is the only invariant complement: the
        orthogonal projection is the isotypic one.  Per weight w it solves
        G_w c = (<b_i, vec>)_i, G_w the Gram matrix of the basis vectors b_i
        of weight w, and returns c in basis coordinates: on a vector already
        in the span, its coordinates.  It is the one route from ambient
        vectors to coordinates.
        """
        if not vec:
            return {}
        profiles = {_mono_profile(m) for m in vec}
        if len(profiles) != 1:
            raise ValueError("projection needs a single multidegree")
        prof = profiles.pop()
        if prof != self.weight:
            raise ValueError(
                "multidegree %s does not match the realization of F%s"
                % (prof, self.weight))
        split = {}
        for mono, c in vec.items():
            split.setdefault(_mono_eps_weight(mono), {})[mono] = c
        out = {}
        for wkey, part in split.items():
            if wkey in self._by_weight:
                out.update(self._gram(wkey).coords(
                    {i: _form(self.basis[i], part)
                     for i in self._by_weight[wkey]}))
        return {k: v for k, v in sorted(out.items()) if v}

    def _gram(self, wkey):
        """The Gram matrix of one weight's basis vectors, as an echelon whose
        member j is column j."""
        ech = self._grams.get(wkey)
        if ech is None:
            idx = self._by_weight[wkey]
            ech = self._grams[wkey] = Echelon()
            for j in idx:
                ech.insert({i: _form(self.basis[i], self.basis[j])
                            for i in idx}, j)
        return ech


def _product_into(acc, mcols, col, sign=1):
    """acc += sign * M col, for M given by its int columns."""
    for k, n in col.items():
        n *= sign
        for i, v in mcols[k].items():
            acc[i] = acc.get(i, 0) + n * v
    return acc


def _lowest(den, acc):
    """An int column over den in lowest terms, as (den, nonzero entries)."""
    col = {i: v for i, v in acc.items() if v}
    g = gcd(den, *col.values())
    if g > 1:
        den, col = den // g, {i: v // g for i, v in col.items()}
    return den, col


def _over_lcm(cols):
    """(den, int columns) from (den_j, column_j) pairs in lowest terms, with
    den the lcm of the den_j."""
    den = lcm(*(d for d, _ in cols))
    return den, [col if d == den else {i: v * (den // d)
                                       for i, v in col.items()}
                 for d, col in cols]


def _commutator(x, y):
    """[X, Y] from the (den, int columns) of X and Y."""
    (xden, xcols), (yden, ycols) = x, y
    return _over_lcm([
        _lowest(xden * yden, _product_into(_product_into({}, xcols, ycol),
                                           ycols, xcol, -1))
        for xcol, ycol in zip(xcols, ycols)])


def _form(u, v):
    """The monomial form <u, v> of two ambient vectors."""
    if len(v) < len(u):
        u, v = v, u
    return sum(c * v[m] * _mono_norm(m) for m, c in u.items() if m in v)


def _mono_norm(mono):
    """<x^A, x^A> = A!, over the exponents of all four factors."""
    n = 1
    for part in mono:
        for e in part:
            n *= factorial(e)
    return n


@lru_cache(maxsize=None)
def build_irrep(weight) -> Irrep:
    return Irrep(weight)


def ambient_monomial(x=(), w=(), dw=(), dx=()):
    """Ambient key from factor lists.

    x and dx list vector / dual vector indices, w and dw list wedge / dual
    wedge pairs; pairs must be given with i < j (orientation signs are the
    caller's business).
    """
    ex = [0] * 5
    for i in x:
        ex[i - 1] += 1
    ew = [0] * 10
    for pr in w:
        ew[PAIR_INDEX[tuple(pr)]] += 1
    edw = [0] * 10
    for pr in dw:
        edw[PAIR_INDEX[tuple(pr)]] += 1
    edx = [0] * 5
    for i in dx:
        edx[i - 1] += 1
    return (tuple(ex), tuple(ew), tuple(edw), tuple(edx))
