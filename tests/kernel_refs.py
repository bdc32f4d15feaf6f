"""Reference copies of rules the package replaced, one per job, for the
tests to check the package against.  Each is verbatim but for its names
and caches.  Per entry: the job, the code it was taken from, and the
tests that read it.

- PBW products in U(g_-), mono_product and pbw_product: the product loop
  of uminus before it became views of uminus.product_int.  test_uminus,
  and the Fraction module product of test_verma.
- Normal ordering of form words, insert_form and order_forms: the two
  recursions of uminus before they became the one _order_forms.
  test_uminus.
- The gl5 action, ad_e_mono and act_e: the bracket with a PBW monomial
  memoized on whole monomials, before the form-word cache of verma, and
  the Fraction loop over it and the rep matrix that the fraction-free
  _act_e_terms replaced; S5 monomials have no forms, so one copy serves
  both modules.  test_verma and test_s5_verma.
- The Leibniz rule of the positive part, leibniz_terms to g1_failure:
  the flat accumulator of verma before _leibniz_acc became one tagged
  pass, with the per-column condition rows it built through transpose,
  act_pieces_int over it, and VermaModule.g1_failure as 40 act calls.
  test_verma and test_singular_search.
- The weight of an element, element_weight: InducedModule.element_weight,
  which only the tests read.  test_verma, test_s5_verma and test_catalog.
- Irrep matrices, coords, mat, act and int_mat: the ambient solve of
  Irrep.mat over echelons of the basis vectors of each weight, before it
  read its matrices off the closure, with Irrep.act and the integer
  InducedModule._int_mat.  test_sl5_reps; mat also serves the Fraction
  actions of test_verma and test_s5_verma.
- The diagonal action on ambient vectors, act_ambient_diagonal: the
  a == b branch of sl5_reps.act_ambient.  test_sl5_reps.
- The text of a rational, qstr: scalars.qstr, before verma.tensor_terms
  used str.  test_verma.
- Exact kernels, row_kernel_basis on RowEchelon: linalg.kernel_basis as
  it eliminated rows, stopped once the pivots covered every column and
  back-substituted over Fractions, on the Echelon reduction with the
  untracked path of tag None.  test_linalg, beside sympy's nullspace, and
  test_singular_search, on the full rows of a block and on every core
  that singular_block hands over.
- The equivariance check, act_e_transport_family:
  omega_basis.equivariant_family as it transported w through
  InducedModule.act_e, one Fraction image at a time.  test_omega_basis.
- The structural equations, remove_index to
  fundamental_equation_residuals: the theta symbol readers of omega_basis
  before ThetaFamily.add_to became the one (sign, key) lookup, and the
  _core and fundamental_equation_residuals that built a column map per
  term.  test_omega_basis.
- Products of form words, forms_elem, table_u, prefixed and ad_e_forms:
  uminus.forms_elem as a chain of pbw_product calls, one per pair, the
  catalog's _table_u and _prefixed over it, and verma._ad_e_forms as it
  normal-ordered the word once per position, before each became one
  _order_forms call per new form.  test_uminus, test_catalog and
  test_verma.
- The catalog vectors, CATALOG_BUILDERS and catalog_known_vector: the
  thirteen catalog builders as each built its own VermaModule and added
  its terms one _tensor call at a time, and the known_vector that called
  them, on the forms_elem above.  test_catalog.

The condition rows and weight blocks of a search block are checked
against references in test_singular_search itself.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, gcd, lcm
from operator import add

from e510 import uminus
from e510.e510_algebra import g1_basis
from e510.linalg import _INT, Echelon, _eliminate, check_entry_cap
from e510.omega_basis import _collect, canonical_index, index_pairs
from e510.scalars import Q, _den, _numerators, _scalars
from e510.sl5_reps import (
    _bump, _mono_eps_weight, act_ambient, ambient_monomial, build_irrep,
)
from e510.uminus import (
    EPS, ONE_MONO, PAIRS, TMATE, ZERO_PARTIALS, _order_forms, add_scaled,
    d_elem, form_step, mono_weight, perm_sign,
)
from e510.vector_tables import W4E_TERMS, W7_TERMS, W11_TERMS
from e510.verma import VermaModule, _act_e_terms


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


_AD_E_CACHE = {}


def shift(parts, u):
    """p^parts * u for u in U(g_-): the p's are central, so exponents add."""
    return {(tuple(map(add, parts, p2)), f2): c for (p2, f2), c in u.items()}


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
        step = form_step(a, b, f)
        if step is None:
            continue
        g, sign = step
        word = uminus.pbw_product({(ZERO_PARTIALS, forms[:n]): sign},
                                  {(ZERO_PARTIALS, (g,)): 1})
        word = uminus.pbw_product(word, {(ZERO_PARTIALS, forms[n + 1:]): 1})
        add_scaled(out, shift(parts, word), 1)
    _AD_E_CACHE[key] = out
    return out


def forms_elem(pairs):
    """Product d_{pairs[0]} d_{pairs[1]} ... of oriented pairs, normal ordered."""
    out = {ONE_MONO: 1}
    for i, j in pairs:
        out = uminus.pbw_product(out, d_elem(i, j))
    return out


def table_u(sign, partials, forms):
    """sign * p^partials * d_forms, the U(g_-) part of a table row."""
    return uminus.pbw_product({(partials, ()): sign}, forms_elem(forms))


def prefixed(rows):
    """(d12 d13 d14 d15 times the U(g_-) part, last entry) of each row of a
    degree-7 or degree-11 table."""
    pre = forms_elem(_PREFIX)
    return [(uminus.pbw_product(pre, table_u(sign, partials, forms)), last)
            for sign, partials, forms, last in rows]


def ad_e_forms(a, b, forms):
    """[x_a p_b, d_w] for the sorted form word w, normal ordered.

    A tuple of int pieces ((dparts, forms2), c): dparts is the p-delta of a
    d_p d_q contraction, ZERO_PARTIALS itself when there is none.
    """
    out = {}
    for n, f in enumerate(forms):
        step = form_step(a, b, f)
        if step is not None:
            g, sign = step
            word = _order_forms(forms[:n], (g,) + forms[n + 1:])
            add_scaled(out, dict(word), sign)
    return tuple(out.items())


def act_e(module, a, b, elem):
    """x_a p_b on a module element, one Fraction term at a time."""
    out = {}
    for (m, i), c in elem.items():
        for m2, ca in ad_e_mono(a, b, m).items():
            add_scaled(out, {(m2, i): Q(1)}, c * ca)
        for i2, cv in mat(module.rep, a, b)[i].items():
            add_scaled(out, {(m, i2): Q(1)}, c * cv)
    return out


def leibniz_terms(module, xnums, enums, mats):
    """The Leibniz terms (base, i, n, A, B) of x on an element.

    xnums and enums are the (key, numerator) lists of x and of the
    element.  pieces(sym, forms) gives the p-free Leibniz terms X_D of
    sym on the form word w of p^P w (module docstring) as int tuples
    (D, c, A, B), D the pairs (i, D_i) of its nonzero entries: X_D w v =
    c (A v + sum n d_forms2 x_a p_b v) over the triples ((a, b),
    forms2, n) of B, with A int pieces ((dparts, forms2), n) relative
    to p^(P - D).  Only here is p^P applied: C(P, D) and P - D enter the
    term, as base and n.  mats gets the rep matrix of every (a, b) of
    the B parts, as Irrep.mat gives it.
    """
    terms = []
    for sym, nx in xnums:
        for ((parts, forms), i), n in enums:
            for D, c, A, B in module.pieces(sym, forms):
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
                    if ab not in mats:
                        mats[ab] = module.rep.mat(*ab)
                terms.append((base, i, nx * n * c, A, B))
    return terms


def leibniz_acc(terms, mats, mden):
    """The integer numerators over mden of leibniz_terms.

    mats maps every (a, b) of the terms' B parts to its (den, columns);
    each den divides mden.
    """
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
    return acc


def transpose(images):
    """Rows image key -> {j: n} from the (j, numerators) images of columns."""
    rows = {}
    for j, acc in images:
        for key, n in acc.items():
            if n:
                rows.setdefault(key, {})[j] = n
    return rows


def act_pieces_int(module, x, elem):
    """x (a dict symbol -> scalar) on elem, as (numerators, denominator).

    The subclass's pieces give the terms of each symbol; act takes the
    scalars.  Numerators may be zero, as in act_e_int.  leibniz_terms
    collects the terms of x on elem, and leibniz_acc adds them up over
    the lcm of the denominators of the rep matrices they use; x, elem
    and those matrices share one denominator.
    """
    xden, eden = _den(x.values()), _den(elem.values())
    mats = {}
    terms = leibniz_terms(module, _numerators(x, xden),
                          _numerators(elem, eden), mats)
    mden = lcm(*(d for d, _ in mats.values()))
    return leibniz_acc(terms, mats, mden), xden * eden * mden


def leibniz_rows(module, block, x, columns):
    """condition_rows of the positive generator x on the columns of
    block, over the lcm of the rep matrix denominators they use."""
    xnums = _numerators(x, _den(x.values()))
    mats = {}
    terms = [(j, leibniz_terms(module, xnums, ((block[j], 1),), mats))
             for j in columns]
    mden = lcm(*(d for d, _ in mats.values()))
    return transpose((j, leibniz_acc(t, mats, mden)) for j, t in terms)


def g1_failure(module, elem):
    """"g1[n]" for the first g1_basis()[n] not killing elem, or None."""
    for n, x in enumerate(g1_basis()):
        if _scalars(*act_pieces_int(module, x, elem)):
            return "g1[%d]" % n
    return None


def element_weight(module, elem):
    """Common raw eps-weight 5-vector (error when inhomogeneous).

    Raw 5-vectors follow the literal symbol weights, under which terms
    with different p-counts differ by trace multiples even inside one
    weight-homogeneous element; use element_coords for those.
    """
    ws = {tuple(map(add, mono_weight(m), module.rep.eps_weights[i]))
          for m, i in elem}
    if len(ws) != 1:
        raise ValueError("element is not weight-homogeneous")
    return ws.pop()


_BLOCKS = {}


def coords(rep, vec):
    """Coordinates of an ambient vector, split per weight block."""
    blocks = _BLOCKS.get(rep.weight)
    if blocks is None:
        blocks = _BLOCKS[rep.weight] = {}
        for j, (v, wkey) in enumerate(zip(rep.basis, rep.eps_weights)):
            blocks.setdefault(wkey, Echelon()).insert(v, j)
    if not vec:
        return {}
    split = {}
    for mono, c in vec.items():
        split.setdefault(_mono_eps_weight(mono), {})[mono] = c
    out = {}
    for wkey, part in split.items():
        block = blocks.get(wkey)
        combo = block.coords(part) if block is not None else None
        if combo is None:
            raise ValueError("vector outside the module span")
        out.update(combo)
    return {k: v for k, v in out.items() if v}


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
                cols.append(coords(rep, act_ambient(a, b, rep.basis[j])))
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


def _make_primitive(row, combo):
    """Divide row and combo, in place, by the gcd of all their entries."""
    parts = (row,) if combo is None else (row, combo)
    g = 0
    for part in parts:
        for v in part.values():
            g = gcd(g, v)
            if g == 1:
                return
    if g > 1:
        for part in parts:
            for k in part:
                part[k] //= g


class RowEchelon:
    """Echelon with its untracked path: tag None tracked no combinations."""

    def __init__(self):
        self.pivots = {}  # leading column -> (primitive int row, int combo)

    def _reduce(self, den, row, tag):
        # the integer row, which the echelon owns and reduces in place, is
        # den * member_tag, and every step keeps row == sum(combo[t] *
        # member_t).  A step is linear in (row, combo), so dividing by a gcd
        # only scales what follows: the pair is made primitive after the
        # steps that scale it by more than a sign, and once at the end.
        combo = None if tag is None else {tag: den}
        while row:
            lead = min(row)
            hit = self.pivots.get(lead)
            if hit is None:
                break
            prow, pcombo = hit
            pivval, c = prow[lead], row[lead]
            _eliminate(row, pivval, c, prow)
            if combo is not None:
                _eliminate(combo, pivval, c, pcombo)
            if pivval != 1 and pivval != -1:
                _make_primitive(row, combo)
        _make_primitive(row, combo)
        return row, combo

    def _insert(self, den, row, tag):
        row, combo = self._reduce(den, row, tag)
        if not row:
            return False
        self.pivots[min(row)] = (row, combo)
        return True


def row_kernel_basis(rows, column_order, entry_cap=None):
    """Exact kernel of the linear map given by constraint rows.

    rows: iterable of dicts column_key -> scalar (each row is one constraint).
    column_order: list fixing the canonical coordinate order.
    Returns kernel vectors as dicts column_key -> Q, each normalized so its
    first nonzero coordinate (in column_order) is 1, sorted by the position
    of that coordinate.  The result depends only on the span of the rows
    (module docstring): row order, duplicates and positive row scales do
    not change it.  So each row is copied once, as an integer row over
    column positions that the echelon reduces in place; the copies are
    inserted in order of their last column, and the insertion stops with []
    once the pivots cover every column.  entry_cap counts every entry of the
    rows handed in.  The caller's rows are never changed.
    """
    rows = [r for r in rows if r]
    check_entry_cap(sum(map(len, rows)), entry_cap)
    colpos = {c: i for i, c in enumerate(column_order)}
    ncols = len(column_order)
    owned = []
    for r in rows:
        row = {colpos[c]: v for c, v in r.items() if v}
        if not _INT.issuperset(map(type, row.values())):
            row = dict(_numerators(row, _den(row.values())))
        if row:
            owned.append(row)
    owned.sort(key=max)
    ech = RowEchelon()
    pivots = ech.pivots
    for row in owned:
        ech._insert(1, row, None)
        if len(pivots) == ncols:
            return []

    free = [i for i in range(ncols) if i not in pivots]
    basis = []
    for f in free:
        x = {f: Q(1)}
        for p in sorted(pivots, reverse=True):
            prow = pivots[p][0]
            acc = Q(0)
            for c, v in prow.items():
                if c != p and c in x:
                    acc += v * x[c]
            if acc:
                x[p] = -acc / prow[p]
        first = min(x)
        lead = x[first]
        vec = {column_order[i]: v / lead for i, v in x.items() if v}
        basis.append((first, vec))
    basis.sort(key=lambda t: t[0])
    return [vec for _, vec in basis]


def act_e_transport_family(module, w, check=True):
    """Images of a weight-module basis under the map generated by w.

    Transports w along the lowering tree of its weight module and verifies
    that the family intertwines the sl5 action: for each simple raising or
    lowering E and each j, E images[j] == sum_i M[i, j] images[i] with M
    the matrix of E on rep_in.  Both sides are integer numerators over
    iden * mden * aden: iden the common denominator of the images, whose
    numerators _act_e_terms takes as they are, and mden, aden those of the
    matrices of E on rep_in and on the module's rep.  Returns (rep_in,
    images).
    """
    if not w:
        raise ValueError("zero vector has no morphism")
    if check and not module.is_singular(w):
        raise ValueError("vector is not singular")
    lam = tuple(module.element_coords(w))
    if min(lam) < 0:
        raise ValueError("weight of the vector is not dominant")
    rep_in = build_irrep(lam)
    images = [None] * rep_in.dim
    images[0] = w
    for jj in range(1, rep_in.dim):
        par, low = rep_in.parents[jj]
        images[jj] = module.act_e(low + 1, low, images[par])
    iden = _den(v for im in images for v in im.values())
    nums = [_numerators(im, iden) for im in images]
    for aa in range(1, 5):
        for x, y in ((aa, aa + 1), (aa + 1, aa)):
            mden, cols = rep_in.mat(x, y)
            amat = module.rep.mat(x, y)
            aden = amat[0]
            for jj in range(rep_in.dim):
                got = _act_e_terms(x, y, nums[jj], amat)
                if mden != 1:
                    for k in got:
                        got[k] *= mden
                for ii, cc in cols[jj].items():
                    tc = aden * cc
                    for k, n in nums[ii]:
                        got[k] = got.get(k, 0) - tc * n
                if any(got.values()):
                    raise ValueError(
                        "vector does not generate an equivariant family")
    return rep_in, images


def qstr(x) -> str:
    """Canonical string form of a rational: "p" or "p/q" with q > 0."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


def act_ambient_diagonal(a, vec):
    """Action of the gl5 element x_a p_a on an ambient vector."""
    out = {}
    for mono, c in vec.items():
        _bump(out, mono, c * _mono_eps_weight(mono)[a - 1])
    return out


@lru_cache(maxsize=None)
def insert_form(forms, f):
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
    for sub, part, c in insert_form(forms[:-1], f):
        out.append((sub + (last,), part, -c))
    return tuple(out)


@lru_cache(maxsize=None)
def order_forms(left, right):
    """Normal-ordered product of two sorted form words.

    Returns a tuple of ((partials_delta, sorted_forms), int_coeff).
    """
    terms = {(ZERO_PARTIALS, left): 1}
    for f in right:
        nxt = {}
        for (parts, forms), c in terms.items():
            for sub, pidx, c2 in insert_form(forms, f):
                if pidx is not None:
                    pl = list(parts)
                    pl[pidx - 1] += 1
                    key = (tuple(pl), sub)
                else:
                    key = (parts, sub)
                nxt[key] = nxt.get(key, 0) + c * c2
        terms = {k: v for k, v in nxt.items() if v}
    return tuple(terms.items())


def remove_index(pairs, removed):
    """Wedge removal: (c, key) with x_I = c * x_removed ^ x_key, else None."""
    s_i, key_i = canonical_index(pairs)
    if not s_i:
        return None
    s_j, key_j = canonical_index(removed)
    if not s_j:
        return None
    sub = set(key_j)
    if not sub <= set(key_i):
        return None
    positions = [key_i.index(f) for f in key_j]
    rest_pos = [n for n, f in enumerate(key_i) if f not in sub]
    sigma = perm_sign(tuple(positions) + tuple(rest_pos))
    return s_i * sigma * s_j, tuple(key_i[n] for n in rest_pos)


def _sym_ref(rs, pairs):
    """A single theta symbol as a canonical reference list."""
    sign, key = canonical_index(pairs)
    if not sign:
        return []
    return [(Q(sign), tuple(sorted(rs)), key)]


def _sym_removed(rs, pairs, removed):
    got = remove_index(pairs, removed)
    if got is None:
        return []
    c, key = got
    return [(Q(c), tuple(sorted(rs)), key)]


def _rotated(p, gamma, rs, key):
    """x_p p_gamma acting on a symbol through the defining isomorphism."""
    out = []
    for n, r in enumerate(rs):
        if r == gamma:
            out.append((Q(1), tuple(sorted(rs[:n] + (p,) + rs[n + 1:])), key))
    base = index_pairs(key)
    for n, f in enumerate(key):
        step = form_step(gamma, p, f)
        if step:
            sign, key2 = canonical_index(
                base[:n] + (PAIRS[step[0]],) + base[n + 1:])
            if sign:
                out.append((Q(-sign * step[1]), rs, key2))
    return out


def _eval_refs(theta, refs):
    """Combine symbol references into a column -> coordinates map."""
    out = {}
    for c, rs, key in refs:
        cols = theta.maps.get((rs, key))
        if cols:
            _map_add(out, cols, c)
    return out


def _map_add(dst, src, c):
    for col, coords in src.items():
        add_scaled(dst.setdefault(col, {}), coords, c)


def _map_rep_act(theta, p, gamma, m):
    out = {}
    rep = theta.module.rep
    for col, coords in m.items():
        img = rep.act(p, gamma, coords)
        if img:
            out[col] = img
    return out


def _core(theta, p, cyc, e5, t_rs, key_pairs):
    """The shared cyclic block: (eps/2) * sum(-rotation + 2 * module action)."""
    res = {}
    for al, be, ga in cyc:
        refs = _sym_ref(t_rs, ((al, be),) + key_pairs)
        if not refs:
            continue
        rot = []
        for cc, rs, kk in refs:
            rot.extend((cc * c2, rs2, kk2)
                       for c2, rs2, kk2 in _rotated(p, ga, rs, kk))
        _map_add(res, _eval_refs(theta, rot), Q(-e5, 2))
        _map_add(res, _map_rep_act(theta, p, ga, _eval_refs(theta, refs)),
                 Q(e5))
    return res


def fundamental_equation_residuals(theta):
    """Nonzero residual records of the four structural equations.

    Returns a list of (name, (p,q,a,b,c), key, column, coords) entries over
    all index permutations and all canonical index tuples; an empty list
    certifies that every equation holds on every source basis column.
    """
    d = theta.degree
    jkeys = list(combinations(range(10), d - 1)) if d >= 1 else []
    kkeys = list(combinations(range(10), d - 3)) if d >= 3 else []
    out = []
    for p, q, a, b, c in permutations(range(1, 6)):
        e5 = perm_sign((p, q, a, b, c))
        cyc = ((a, b, c), (b, c, a), (c, a, b))
        for key in jkeys:
            kp = index_pairs(key)
            res = {}
            _map_add(res, _eval_refs(theta, _sym_removed((p,), kp, ((p, q),))),
                     Q(-1))
            _map_add(res, _core(theta, p, cyc, e5, (), kp), Q(1))
            _collect(out, "deg1", (p, q, a, b, c), key, res)
        for key in kkeys:
            kp = index_pairs(key)
            res = {}
            _map_add(res, _eval_refs(
                theta, _sym_ref((), ((a, b), (b, c), (c, q)) + kp)), Q(1, 4))
            _map_add(res, _eval_refs(
                theta, _sym_ref((), ((a, c), (c, b), (b, q)) + kp)), Q(1, 4))
            _map_add(res, _eval_refs(theta, _sym_removed((a, p), kp, ((p, q),))),
                     Q(-1))
            _map_add(res, _core(theta, p, cyc, e5, (a,), kp), Q(1))
            _collect(out, "deg3a", (p, q, a, b, c), key, res)
            res = {}
            _map_add(res, _eval_refs(theta, _sym_removed((p, p), kp, ((p, q),))),
                     Q(-2))
            _map_add(res, _core(theta, p, cyc, e5, (p,), kp), Q(1))
            _collect(out, "deg3p", (p, q, a, b, c), key, res)
            res = {}
            _map_add(res, _eval_refs(theta, _sym_removed((p, q), kp, ((p, q),))),
                     Q(-2))
            _map_add(res, _eval_refs(
                theta, _sym_ref((), ((a, b), (b, c), (c, a)) + kp)), Q(-1))
            _map_add(res, _core(theta, p, cyc, e5, (q,), kp), Q(2))
            _collect(out, "deg3q", (p, q, a, b, c), key, res)
    return out


_PREFIX = ((1, 2), (1, 3), (1, 4), (1, 5))


def _tensor(module, u, **factors):
    """u (x) (ambient monomial) as a module element.

    The monomial's coordinates come from Irrep.monomial_coords, so each
    (irrep, monomial) pair costs one Gram solve however many terms and
    instances name it.
    """
    amb = ambient_monomial(**factors)
    return module.tensor(u, module.rep.monomial_coords(amb))


def _w_1a(m, n):
    mod = VermaModule((m, n, 0, 0))
    return mod, _tensor(mod, d_elem(1, 2), x=(1,) * m, w=((1, 2),) * n)


def _w_1b(m, n):
    mod = VermaModule((m, 0, 0, n + 1))
    out = _tensor(mod, d_elem(1, 5), x=(1,) * m, dx=(5,) * (n + 1))
    for j in (2, 3, 4):
        add_scaled(out, _tensor(mod, d_elem(1, j), x=(1,) * m,
                                dx=(j,) + (5,) * n), Q(1))
    return mod, out


def _w_1c(m, n):
    mod = VermaModule((0, 0, m + 1, n))
    out = {}
    for i, j in PAIRS:
        add_scaled(out, _tensor(mod, d_elem(i, j),
                                dw=((i, j),) + ((4, 5),) * m, dx=(5,) * n),
                   Q(1))
    return mod, out


def _w_2ba(m):
    mod = VermaModule((m, 0, 0, 1))
    out = {}
    for j in (2, 3, 4, 5):
        u = forms_elem(((1, 2), (1, j)))
        if u:
            add_scaled(out, _tensor(mod, u, x=(1,) * m, dx=(j,)), Q(1))
    return mod, out


def _w_2cb(n):
    mod = VermaModule((0, 0, 1, n + 1))
    out = {}
    for j in (2, 3, 4, 5):
        for h, k in PAIRS:
            u = forms_elem(((1, j), (h, k)))
            if u:
                add_scaled(out, _tensor(mod, u, dw=((h, k),),
                                        dx=(j,) + (5,) * n), Q(1))
    return mod, out


def _w_2ca():
    mod = VermaModule((0, 0, 1, 0))
    out = {}
    for i, j in PAIRS:
        u = forms_elem(((1, 2), (i, j)))
        if u:
            add_scaled(out, _tensor(mod, u, dw=((i, j),)), Q(1))
    return mod, out


def _w_3cba():
    mod = VermaModule((0, 0, 1, 1))
    out = {}
    for j in (2, 3, 4, 5):
        for k, l in PAIRS:
            u = forms_elem(((1, 2), (1, j), (k, l)))
            if u:
                add_scaled(out, _tensor(mod, u, dx=(j,), dw=((k, l),)), Q(1))
    return mod, out


def _w_4d(m):
    mod = VermaModule((m, 0, 0, 0))
    return mod, _tensor(mod, forms_elem(_PREFIX), x=(1,) * m)


def _w_4e(n):
    mod = VermaModule((0, 0, 0, n + 3))
    out = {}
    for sign, partials, forms, fexp in W4E_TERMS:
        u = uminus.pbw_product({(partials, ()): sign}, forms_elem(forms))
        dx = []
        for i in range(4):
            dx.extend([i + 1] * fexp[i])
        dx.extend([5] * (fexp[4] + n))
        add_scaled(out, _tensor(mod, u, dx=tuple(dx)), Q(1))
    return mod, out


def _w_5cd():
    # the sum runs over every pair avoiding index 1; the factors through
    # the degree-1 and degree-4 vectors confirm this normalization
    mod = VermaModule((0, 0, 1, 0))
    pre = forms_elem(_PREFIX)
    out = {}
    for i, j in PAIRS:
        u = uminus.pbw_product(pre, d_elem(i, j))
        if u:
            add_scaled(out, _tensor(mod, u, dw=((i, j),)), Q(1))
    return mod, out


def _w_5ea():
    mod, w4 = _w_4e(0)
    return mod, mod.mult(d_elem(1, 2), w4)


def _w_7():
    mod = VermaModule((0, 0, 0, 2))
    pre = forms_elem(_PREFIX)
    out = {}
    for sign, partials, forms, (da, db) in W7_TERMS:
        u = uminus.pbw_product(pre, uminus.pbw_product({(partials, ()): sign},
                                         forms_elem(forms)))
        add_scaled(out, _tensor(mod, u, dx=(da, db)), Q(1))
    return mod, out


def _w_11():
    mod = VermaModule((0, 0, 0, 1))
    pre = forms_elem(_PREFIX)
    out = {}
    for sign, partials, forms, di in W11_TERMS:
        u = uminus.pbw_product(pre, uminus.pbw_product({(partials, ()): sign},
                                         forms_elem(forms)))
        add_scaled(out, _tensor(mod, u, dx=(di,)), Q(1))
    return mod, out


# family -> (parameters used, builder), as catalog.FAMILIES held them
CATALOG_BUILDERS = {
    "1A": (("m", "n"), _w_1a),
    "1B": (("m", "n"), _w_1b),
    "1C": (("m", "n"), _w_1c),
    "2BA": (("m",), _w_2ba),
    "2CB": (("n",), _w_2cb),
    "2CA": ((), _w_2ca),
    "3CBA": ((), _w_3cba),
    "4D": (("m",), _w_4d),
    "4E": (("n",), _w_4e),
    "5CD": ((), _w_5cd),
    "5EA": ((), _w_5ea),
    "7": ((), _w_7),
    "11": ((), _w_11),
}


def catalog_known_vector(family, m=0, n=0):
    """The catalog singular vector; returns (module, element)."""
    params, build = CATALOG_BUILDERS[family]
    args = tuple({"m": m, "n": n}[p] for p in params)
    return build(*args)
