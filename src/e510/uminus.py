"""PBW arithmetic in U(g_-) for g = E(5,10), and the index rules of g_-.

g_- = g_-2 + g_-1 with g_-2 spanned by the five even elements p1..p5 (the
coordinate vector fields, central in g_-) and g_-1 by the ten odd elements
dij = dx_i ^ dx_j (i < j).  The only nontrivial relation is

    d_p d_q + d_q d_p = eps(p, q) * t(p, q)

where for p = {i,j}, q = {k,l} with all four indices distinct, t is the fifth
index and eps is the sign of the permutation (i, j, k, l, t); eps = 0 when
indices repeat.  PBW monomials are p1^m1..p5^m5 d_{q1}..d_{qk} with the
2-forms strictly increasing in the fixed lexicographic order

    12 < 13 < 14 < 15 < 23 < 24 < 25 < 34 < 35 < 45.

A monomial is ((m1,..,m5), (f1,..,fk)) with fi the positions of the 2-forms
in that order; an element is a dict monomial -> scalar.  Degree counts p_i
twice and each 2-form once; height is the number of 2-forms.

The rules every layer reads are defined here once: oriented turns an
oriented pair (i, j) into a form index and a sign (dji = -dij, dii = 0),
pair_eps and pair_mate give eps and t, and form_step is x_a p_b on a
2-form, the pair with index b replaced by a.  U(g_-) has integer structure
constants, so the generators d_elem, p_elem and forms_elem and all their
products have int coefficients; exact scalars enter with the caller's own
coefficients.
"""

from functools import lru_cache
from itertools import combinations
from math import comb

PAIRS = ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3),
         (2, 4), (2, 5), (3, 4), (3, 5), (4, 5))
PAIR_INDEX = {pq: n for n, pq in enumerate(PAIRS)}

ZERO_PARTIALS = (0, 0, 0, 0, 0)
ONE_MONO = (ZERO_PARTIALS, ())


def perm_sign(seq) -> int:
    """Sign of a permutation given as a sequence of distinct integers."""
    inv = 0
    n = len(seq)
    for a in range(n):
        for b in range(a + 1, n):
            if seq[a] > seq[b]:
                inv += 1
    return -1 if inv & 1 else 1


def pair_eps(p1, p2):
    """Sign of the permutation (i,j,k,l,t) of [5]; zero on repeats."""
    i, j = p1
    k, l = p2
    if len({i, j, k, l}) != 4:
        return 0
    return perm_sign((i, j, k, l, pair_mate(p1, p2)))


def pair_mate(p1, p2):
    """The index of [5] outside two disjoint pairs."""
    return 15 - p1[0] - p1[1] - p2[0] - p2[1]


def _build_eps():
    eps = [[pair_eps(p, q) for q in PAIRS] for p in PAIRS]
    mate = [[pair_mate(p, q) if e else 0 for q, e in zip(PAIRS, row)]
            for p, row in zip(PAIRS, eps)]
    return eps, mate


EPS, TMATE = _build_eps()


def oriented(i, j):
    """(form index, sign) with dij = sign * d_(PAIRS[index]).

    None when i == j, since dii = 0.
    """
    if i == j:
        return None
    if i < j:
        return PAIR_INDEX[(i, j)], 1
    return PAIR_INDEX[(j, i)], -1


def form_step(a, b, f):
    """x_a p_b on the 2-form d_(pair f), index b replaced by a.

    The image has at most one term: (form index, sign), or None when b is
    not in the pair or the image degenerates.
    """
    l, m = PAIRS[f]
    if b == l:
        return oriented(a, m)
    if b == m:
        return oriented(l, a)
    return None


def mono_degree(mono) -> int:
    return 2 * sum(mono[0]) + len(mono[1])


def mono_height(mono) -> int:
    return len(mono[1])


def mono_weight(mono):
    """Weight of a PBW monomial as a 5-vector of eps-coordinates.

    p_i carries weight -e_i and dij carries weight e_i + e_j.
    """
    w = [-m for m in mono[0]]
    for f in mono[1]:
        i, j = PAIRS[f]
        w[i - 1] += 1
        w[j - 1] += 1
    return tuple(w)


def degree(elem) -> int:
    """Common degree of a homogeneous element (error if mixed)."""
    degs = {mono_degree(m) for m in elem}
    if len(degs) != 1:
        raise ValueError("element is not degree-homogeneous: %s" % sorted(degs))
    return degs.pop()


def height(elem) -> int:
    """Maximum number of 2-form factors over the support."""
    if not elem:
        raise ValueError("height of zero element is undefined")
    return max(mono_height(m) for m in elem)


@lru_cache(maxsize=None)
def _insert_form(forms, f):
    """Normal order the word forms + (f,).

    Returns a tuple of (sorted_forms, partial_index_or_None, int_coeff)
    triples; partial_index is set when an eps-contraction produced a p_t.
    """
    if not forms or forms[-1] < f:
        return ((forms + (f,), None, 1),)
    last = forms[-1]
    if last == f:
        return ()
    out = []
    e = EPS[last][f]
    if e:
        out.append((forms[:-1], TMATE[last][f], e))
    for sub, part, c in _insert_form(forms[:-1], f):
        out.append((sub + (last,), part, -c))
    return tuple(out)


@lru_cache(maxsize=None)
def _order_forms(left, right):
    """Normal-ordered product of two sorted form words.

    Returns a tuple of ((partials_delta, sorted_forms), int_coeff).
    """
    terms = {(ZERO_PARTIALS, left): 1}
    for f in right:
        nxt = {}
        for (parts, forms), c in terms.items():
            for sub, pidx, c2 in _insert_form(forms, f):
                if pidx is not None:
                    pl = list(parts)
                    pl[pidx - 1] += 1
                    key = (tuple(pl), sub)
                else:
                    key = (parts, sub)
                nxt[key] = nxt.get(key, 0) + c * c2
        terms = {k: v for k, v in nxt.items() if v}
    return tuple(terms.items())


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


def add_scaled(dst, src, c):
    """dst += c * src in place (dicts monomial -> scalar)."""
    if not c:
        return dst
    for k, v in src.items():
        s = dst.get(k, 0) + c * v
        if s:
            dst[k] = s
        else:
            dst.pop(k, None)
    return dst


def scale(elem, c):
    if not c:
        return {}
    return {k: c * v for k, v in elem.items()}


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


def d_elem(i, j):
    """The generator dx_i ^ dx_j as an element; dji = -dij, dii = 0."""
    o = oriented(i, j)
    if o is None:
        return {}
    return {(ZERO_PARTIALS, (o[0],)): o[1]}


def p_elem(i):
    parts = [0] * 5
    parts[i - 1] = 1
    return {(tuple(parts), ()): 1}


def forms_elem(pairs):
    """Product d_{pairs[0]} d_{pairs[1]} ... of oriented pairs, normal ordered."""
    out = {ONE_MONO: 1}
    for i, j in pairs:
        out = pbw_product(out, d_elem(i, j))
    return out


def dim_u_minus(d: int) -> int:
    """Dimension of the degree-d component of U(g_-)."""
    total = 0
    for k in range(d % 2, min(d, 10) + 1, 2):
        total += comb(10, k) * comb((d - k) // 2 + 4, 4)
    return total


def _partials_of_total(total):
    if total == 0:
        yield ZERO_PARTIALS
        return
    for m1 in range(total + 1):
        for m2 in range(total - m1 + 1):
            for m3 in range(total - m1 - m2 + 1):
                for m4 in range(total - m1 - m2 - m3 + 1):
                    yield (m1, m2, m3, m4, total - m1 - m2 - m3 - m4)


def enumerate_monomials(d: int):
    """All PBW monomials of degree d, in canonical order."""
    out = []
    for k in range(d % 2, min(d, 10) + 1, 2):
        r = (d - k) // 2
        for parts in _partials_of_total(r):
            for forms in combinations(range(10), k):
                out.append((parts, forms))
    out.sort()
    return out


def format_monomial(mono) -> str:
    parts, forms = mono
    bits = []
    for i, m in enumerate(parts, start=1):
        if m == 1:
            bits.append("p%d" % i)
        elif m > 1:
            bits.append("p%d^%d" % (i, m))
    for f in forms:
        i, j = PAIRS[f]
        bits.append("d%d%d" % (i, j))
    return " ".join(bits) if bits else "1"


def parse_monomial(text: str):
    """Parse "p1^2 p3 d12 d34" into a monomial (forms must be increasing)."""
    parts = [0] * 5
    forms = []
    for tok in text.split():
        if tok == "1":
            continue
        if tok.startswith("p"):
            if "^" in tok:
                head, exp = tok.split("^")
                k = int(exp)
            else:
                head, k = tok, 1
            i = int(head[1:])
            if not 1 <= i <= 5:
                raise ValueError("bad partial token %r" % tok)
            parts[i - 1] += k
        elif tok.startswith("d"):
            i, j = int(tok[1]), int(tok[2])
            if not (1 <= i < j <= 5) or len(tok) != 3:
                raise ValueError("bad form token %r" % tok)
            forms.append(PAIR_INDEX[(i, j)])
        else:
            raise ValueError("bad token %r" % tok)
    if list(forms) != sorted(set(forms)):
        raise ValueError("form factors must be strictly increasing in %r" % text)
    return (tuple(parts), tuple(forms))

