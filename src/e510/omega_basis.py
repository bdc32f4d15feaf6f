"""Antisymmetrized form products in U(g_-) and morphism coefficient maps.

For a tuple I of oriented index pairs, omega(I) realizes the wedge
x_{I_1} ^ ... ^ x_{I_d} inside U(g_-): the plain form product corrected by
partial terms indexed by self-intersection-free position sets.  The
correction makes omega depend on I only through the wedge, so the family
{partials^R * omega_I} is a height-triangular basis of each graded piece and
morphism coefficients can be read off singular vectors against it.
"""

from functools import lru_cache
from itertools import combinations, permutations

from .scalars import Q, _den, _numerators
from .e510_algebra import bracket, d_gen, xd_gen
from .sl5_reps import build_irrep
from .uminus import (EPS, PAIRS, ONE_MONO, TMATE, add_scaled, d_elem,
                     form_step, forms_elem, oriented, p_elem, pair_eps,
                     pair_mate, pbw_product, perm_sign, scale)
from .verma import VermaModule, _act_e_terms


# identities --suite fundamental makes 1.07 M calls on 67 k distinct index
# tuples; the 4096 most recent answer 84% of them, as fast as keeping all
# (which held 23 MB more at peak)
@lru_cache(maxsize=4096)
def canonical_index(pairs):
    """Orient and sort an index tuple.

    Returns (sign, key) where key is a strictly increasing tuple of form
    indices, or (0, None) when the wedge degenerates.
    """
    forms = []
    sign = 1
    for i, j in pairs:
        o = oriented(i, j)
        if o is None:
            return 0, None
        forms.append(o[0])
        sign *= o[1]
    if len(set(forms)) != len(forms):
        return 0, None
    sign *= perm_sign(forms)
    return sign, tuple(sorted(forms))


def index_pairs(key):
    return tuple(PAIRS[f] for f in key)


@lru_cache(maxsize=None)
def sif_sets(d):
    """All sets of pairwise disjoint position pairs inside [d]."""
    def rec(avail):
        if len(avail) < 2:
            return ((),)
        first, rest = avail[0], avail[1:]
        out = list(rec(rest))
        for n, second in enumerate(rest):
            tail = rest[:n] + rest[n + 1:]
            for m in rec(tail):
                out.append(((first, second),) + m)
        return tuple(out)

    return rec(tuple(range(1, d + 1)))


def crossing_number(s) -> int:
    """Pairs of edges with exactly one endpoint between the other two."""
    cnt = 0
    for (k1, l1), (k2, l2) in combinations(s, 2):
        if k1 < k2 < l1 < l2 or k2 < k1 < l2 < l1:
            cnt += 1
    return cnt


def omega_direct(pairs):
    """Sum over self-intersection-free position sets with crossing signs."""
    pairs = tuple(tuple(p) for p in pairs)
    d = len(pairs)
    out = {}
    for s in sif_sets(d):
        coeff = Q(-1 if crossing_number(s) % 2 else 1)
        partials = [0] * 5
        ok = True
        for k, l in s:
            e = pair_eps(pairs[k - 1], pairs[l - 1])
            if not e:
                ok = False
                break
            if (k + l) % 2:
                e = -e
            coeff *= Q(e, 2)
            partials[pair_mate(pairs[k - 1], pairs[l - 1]) - 1] += 1
        if not ok:
            continue
        matched = {k for kl in s for k in kl}
        rest = [pairs[m] for m in range(d) if (m + 1) not in matched]
        add_scaled(out, pbw_product({(tuple(partials), ()): coeff},
                                    forms_elem(rest)), Q(1))
    return out


@lru_cache(maxsize=None)
def _omega_key(key):
    """omega on a canonical key via head peeling with partial contractions."""
    if not key:
        return {ONE_MONO: Q(1)}
    head, tail = key[0], key[1:]
    out = pbw_product(d_elem(*PAIRS[head]), _omega_key(tail))
    for pos, f in enumerate(tail):
        e = EPS[head][f]
        if not e:
            continue
        if pos % 2:
            # removing position pos from the tail costs (-1)^pos
            e = -e
        add_scaled(out,
                   pbw_product(p_elem(TMATE[head][f]),
                               _omega_key(tail[:pos] + tail[pos + 1:])),
                   Q(-e, 2))
    return out


def omega(pairs):
    """The workhorse route: canonicalize, then use the cached recursion."""
    sign, key = canonical_index(pairs)
    if not sign:
        return {}
    return scale(_omega_key(key), Q(sign))


def omega_recursive(pairs):
    """omega via the uniform removal recursion, averaged over positions."""
    sign, key = canonical_index(pairs)
    if not sign:
        return {}
    return scale(_omega_sym_key(key), Q(sign))


# omega_symmetrized expands the permutation sum literally up to this many
# factors
_LITERAL_LIMIT = 5


def omega_symmetrized(pairs):
    """Signed average of the form word over all orderings.

    Up to _LITERAL_LIMIT factors the permutation sum is expanded term by
    term; beyond that the identical sum is evaluated by factoring on the
    first letter, which only regroups the terms (omega_recursive).  That
    factoring is _omega_sym_key, the cached recursion omega_recursive
    evaluates, so beyond _LITERAL_LIMIT factors the two routes are one and
    a comparison of them checks nothing.
    """
    sign, key = canonical_index(pairs)
    if not sign:
        return {}
    d = len(key)
    if d <= _LITERAL_LIMIT:
        out = {}
        fact = 1
        for n in range(2, d + 1):
            fact *= n
        for order in permutations(range(d)):
            word = forms_elem([PAIRS[key[j]] for j in order])
            add_scaled(out, word, Q(perm_sign(order), fact))
        return scale(out, Q(sign))
    return scale(_omega_sym_key(key), Q(sign))


@lru_cache(maxsize=None)
def _omega_sym_key(key):
    """First-letter factoring of the full signed permutation average.

    Read as a recursion, this is also the uniform removal recursion of
    omega_recursive: remove each letter in turn, with alternating sign,
    and average over the positions.
    """
    d = len(key)
    if not d:
        return {ONE_MONO: Q(1)}
    out = {}
    for j, f in enumerate(key):
        rest = key[:j] + key[j + 1:]
        add_scaled(out, pbw_product(d_elem(*PAIRS[f]), _omega_sym_key(rest)),
                   Q(-1 if j % 2 else 1, d))
    return out


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


def omega_removed(pairs, removed):
    got = remove_index(pairs, removed)
    if got is None:
        return {}
    c, key = got
    return scale(_omega_key(key), Q(c))


def ricomega_residual(pairs):
    """omega minus its head-peeling expansion; must vanish."""
    pairs = tuple(tuple(p) for p in pairs)
    if not pairs:
        return {}
    out = dict(omega(pairs))
    head, tail = pairs[0], pairs[1:]
    add_scaled(out, pbw_product(d_elem(*head), omega(tail)), Q(-1))
    for k in range(len(tail)):
        e = pair_eps(head, tail[k])
        if not e:
            continue
        add_scaled(out,
                   pbw_product(p_elem(pair_mate(head, tail[k])),
                               omega_removed(tail, (tail[k],))),
                   Q(e, 2))
    return out


def _oriented_complement(i, j):
    """(r, s, t) completing {i, j} so all three cyclic pair signs are +1."""
    r, s, t = sorted(set(range(1, 6)) - {i, j})
    if pair_eps((i, j), (r, s)) < 0:
        s, t = t, s
    return r, s, t


def dw_product_residual(i, j, pairs):
    """Left product d_ij * omega_I minus prepended and contracted terms."""
    if i == j:
        return {}
    pairs = tuple(tuple(p) for p in pairs)
    out = pbw_product(d_elem(i, j), omega(pairs))
    add_scaled(out, omega(((i, j),) + pairs), Q(-1))
    r, s, t = _oriented_complement(i, j)
    add_scaled(out, pbw_product(p_elem(r), omega_removed(pairs, ((s, t),))),
               Q(-1, 2))
    add_scaled(out, pbw_product(p_elem(s), omega_removed(pairs, ((t, r),))),
               Q(-1, 2))
    add_scaled(out, pbw_product(p_elem(t), omega_removed(pairs, ((r, s),))),
               Q(-1, 2))
    return out


def equivariance_residual(a, b, pairs):
    """ad(x_a p_b) on omega_I, as act_e on M(F(0,0,0,0)), minus the
    entrywise index replacement."""
    pairs = tuple(tuple(p) for p in pairs)
    trivial = VermaModule((0, 0, 0, 0))
    img = trivial.act_e(a, b, {(m, 0): c for m, c in omega(pairs).items()})
    out = {m: c for (m, _), c in img.items()}
    for n, pr in enumerate(pairs):
        o = oriented(*pr)
        step = o and form_step(a, b, o[0])
        if step:
            moved = pairs[:n] + (PAIRS[step[0]],) + pairs[n + 1:]
            add_scaled(out, omega(moved), Q(-o[1] * step[1]))
    return out


def commutator_identity_residual(p, q, pairs, testmod, elems=None):
    """[x_p d_pq, omega_I] minus its structural expansion, as an operator.

    Applied to the given module elements (default: 1 (x) v over a basis of
    the coefficient module) and summed; a zero dict certifies the identity
    on those probes.
    """
    if p == q:
        raise ValueError("p and q must differ")
    pairs = tuple(tuple(pp) for pp in pairs)
    x = xd_gen(p, p, q)
    om = omega(pairs)
    par_sign = Q(-1 if len(pairs) % 2 else 1)
    a, b, c3 = sorted(set(range(1, 6)) - {p, q})
    rem_abc = omega_removed(pairs, ((a, b), (b, c3), (c3, a)))
    perm_terms = []
    for al, be, ga in permutations((a, b, c3)):
        rem = omega_removed(pairs, ((al, be), (be, ga), (ga, q)))
        if rem:
            perm_terms.append(pbw_product(p_elem(al), rem))
    j_terms = []
    for pr in pairs:
        y = bracket(x, d_gen(*pr))
        rem = omega_removed(pairs, (pr,))
        if y and rem:
            j_terms.append((y, rem))
    if elems is None:
        elems = [{(ONE_MONO, j): Q(1)} for j in range(testmod.rep.dim)]

    out = {}
    for m in elems:
        add_scaled(out, testmod.act(x, testmod.mult(om, m)), Q(1))
        add_scaled(out, testmod.mult(om, testmod.act(x, m)), -par_sign)
        for y, rem in j_terms:
            # 1/2 [Y, omega'] + omega' Y collapses to the symmetric average
            add_scaled(out, testmod.act(y, testmod.mult(rem, m)), Q(-1, 2))
            add_scaled(out, testmod.mult(rem, testmod.act(y, m)), Q(-1, 2))
        if rem_abc:
            add_scaled(out, testmod.mult(pbw_product(p_elem(q), rem_abc), m),
                       Q(1, 2))
        for term in perm_terms:
            add_scaled(out, testmod.mult(term, m), Q(-1, 4))
    return out


def _partial_omega_elem(parts, key):
    """The element partials^parts * omega_key."""
    return pbw_product({(parts, ()): 1}, _omega_key(key))


def _parts_to_rs(parts):
    rs = []
    for n, e in enumerate(parts):
        rs.extend([n + 1] * e)
    return tuple(rs)


class ThetaFamily:
    """Coefficient maps of a degree-d morphism in the partial-omega basis.

    maps is keyed by (rs, key) with rs a sorted tuple of partial indices and
    key a canonical form index tuple; each entry sends a source basis column
    to the coordinate dict of its image in the target module.
    """

    def __init__(self, module, rep_in, degree, maps):
        self.module = module
        self.rep_in = rep_in
        self.degree = degree
        self.maps = maps

    def value(self, rs, pairs, col=0):
        """theta^rs_pairs applied to the col-th source basis vector."""
        sign, key = canonical_index(pairs)
        if not sign:
            return {}
        cols = self.maps.get((tuple(sorted(rs)), key))
        coords = cols.get(col) if cols else None
        if not coords:
            return {}
        return {i: sign * c for i, c in coords.items()}


def _expand_partial_omega(elem):
    """Expansion of a module element over partial-omega tensor terms.

    partials^R * omega_I has the monomial (R, I) as its only term of top
    height, so the top-height terms are read off and peeled, one height at
    a time.  Returns (rs, key) -> coordinates on the rep index.
    """
    work = dict(elem)
    out = {}
    while work:
        h = max(len(m[1]) for (m, _) in work)
        batch = {}
        for (m, i), c in work.items():
            if len(m[1]) == h:
                batch.setdefault(m, {})[i] = c
        for (parts, forms), coords in batch.items():
            out[(_parts_to_rs(parts), forms)] = coords
            u_el = _partial_omega_elem(parts, forms)
            for m2, cu in u_el.items():
                for i, cv in coords.items():
                    kk = (m2, i)
                    v = work.get(kk, 0) - cu * cv
                    if v:
                        work[kk] = v
                    elif kk in work:
                        del work[kk]
    return out


def equivariant_family(module, w, check=True):
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


def reconstruct_theta(module, w, check=True):
    """Coefficient maps of the morphism generated by a singular vector.

    Expands every image of the equivariant family over the partial-omega
    basis and collects the coefficients as sparse column maps.
    """
    rep_in, images = equivariant_family(module, w, check=check)
    d = module.element_degree(w)
    maps = {}
    for jj in range(rep_in.dim):
        for ukey, coords in _expand_partial_omega(images[jj]).items():
            maps.setdefault(ukey, {})[jj] = coords
    return ThetaFamily(module, rep_in, d, maps)


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


def _collect(out, name, perm, key, res):
    for col in sorted(res):
        if res[col]:
            out.append((name, perm, key, col, res[col]))
