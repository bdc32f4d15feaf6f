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
from math import factorial, lcm

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


def _signed(table, got):
    """sign * table(key) for the (sign, key) of canonical_index or
    remove_index; {} when the sign is 0."""
    sign, key = got
    if not sign:
        return {}
    return scale(table(key), Q(sign))


def omega(pairs):
    """The workhorse route: canonicalize, then use the cached recursion."""
    return _signed(_omega_key, canonical_index(pairs))


def omega_recursive(pairs):
    """omega via the uniform removal recursion, averaged over positions."""
    return _signed(_omega_sym_key, canonical_index(pairs))


# omega_symmetrized expands the permutation sum literally up to this many
# factors, 5! = 120 orderings
_LITERAL_LIMIT = 5


def omega_symmetrized(pairs):
    """Signed average of the form word over all orderings, term by term.

    The literal sum is independent of the recursions of omega and
    omega_recursive.  It refuses more than _LITERAL_LIMIT factors with
    ValueError.
    """
    if len(pairs) > _LITERAL_LIMIT:
        raise ValueError("omega_symmetrized expands at most %d factors, "
                         "not %d" % (_LITERAL_LIMIT, len(pairs)))
    return _signed(_omega_literal, canonical_index(pairs))


def _omega_literal(key):
    d = len(key)
    out = {}
    for order in permutations(range(d)):
        word = forms_elem([PAIRS[key[j]] for j in order])
        add_scaled(out, word, Q(perm_sign(order), factorial(d)))
    return out


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
    """Wedge removal: (c, key) with x_I = c * x_removed ^ x_key, else
    (0, None), as canonical_index gives for a degenerate wedge."""
    s_i, key_i = canonical_index(pairs)
    s_j, key_j = canonical_index(removed)
    if not (s_i and s_j and set(key_j) <= set(key_i)):
        return 0, None
    positions = [key_i.index(f) for f in key_j]
    rest_pos = [n for n, f in enumerate(key_i) if f not in key_j]
    sigma = perm_sign(tuple(positions) + tuple(rest_pos))
    return s_i * sigma * s_j, tuple(key_i[n] for n in rest_pos)


def omega_removed(pairs, removed):
    return _signed(_omega_key, remove_index(pairs, removed))


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

    def add_to(self, res, c, rs, got, op=None):
        """res[col] += c * sign * theta^{sorted rs}_key on every column.

        got is the (sign, key) of canonical_index or remove_index, and a
        zero sign adds nothing.  With op = (a, b), x_a p_b of the target
        rep acts on each column first.
        """
        sign, key = got
        cols = sign and self.maps.get((tuple(sorted(rs)), key))
        if not cols:
            return
        c *= sign
        for col, coords in cols.items():
            if op:
                coords = self.module.rep.act(*op, coords)
            add_scaled(res.setdefault(col, {}), coords, c)


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

    Transports w along the lowering tree of its weight module on integer
    numerators: for each tree edge, child c = f_l v_par, _act_e_terms takes
    the numerators of images[par] over den[par] to n_c, those of images[c]
    over den[c] = den[par] * aden, aden the denominator of f_l on the
    module's rep.  The family then goes over iden, the lcm of the den[c],
    as nums[c] = (iden / den[c]) n_c, and each image is built once, one
    scalar per entry.

    It verifies that the family intertwines the sl5 action: for each simple
    raising or lowering E and each j, E images[j] == sum_i M[i, j] images[i]
    with M the matrix of E on rep_in.  Both sides are integer numerators
    over iden * mden * aden, mden and aden the denominators of the matrices
    of E on rep_in and on the module's rep.  When E = f_l and j is the
    parent of a tree edge to c, the transport has already applied E to
    images[j]: _act_e_terms is linear in the numerators, and nums[j] is
    iden / den[j] times the numerators over den[j], so it gives
    (iden / den[j]) n_c = (den[c] / den[j]) nums[c] = aden nums[c].  Those
    integers are taken from the transport; every other E images[j] is
    computed, and the sum over M[i, j] images[i] is subtracted and tested
    for zero for every E and j, tree edges included.
    Returns (rep_in, images).
    """
    if not w:
        raise ValueError("zero vector has no morphism")
    if check and not module.is_singular(w):
        raise ValueError("vector is not singular")
    lam = tuple(module.element_coords(w))
    if min(lam) < 0:
        raise ValueError("weight of the vector is not dominant")
    rep_in = build_irrep(lam)
    wden = _den(w.values())
    tree = [(_numerators(w, wden), wden)]
    child = {}
    for jj in range(1, rep_in.dim):
        par, low = rep_in.parents[jj]
        amat = module.rep.mat(low + 1, low)
        pnums, pden = tree[par]
        acc = _act_e_terms(low + 1, low, pnums, amat)
        tree.append(([(k, n) for k, n in acc.items() if n], pden * amat[0]))
        child[par, low] = jj
    iden = lcm(*(den for _, den in tree))
    nums = [[(k, n * (iden // den)) for k, n in kn] for kn, den in tree]
    for aa in range(1, 5):
        for x, y in ((aa, aa + 1), (aa + 1, aa)):
            mden, cols = rep_in.mat(x, y)
            amat = module.rep.mat(x, y)
            aden = amat[0]
            edges = child if x > y else {}
            for jj in range(rep_in.dim):
                kid = edges.get((jj, aa))
                if kid is None:
                    got = _act_e_terms(x, y, nums[jj], amat)
                else:
                    got = {k: aden * n for k, n in nums[kid]}
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
    images = [w] + [{k: Q(n, den) for k, n in kn} for kn, den in tree[1:]]
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


def _rotated(p, gamma, rs, key):
    """x_p p_gamma acting on a symbol through the defining isomorphism, as
    (c, rs, (sign, key)) terms."""
    out = [(1, rs[:n] + (p,) + rs[n + 1:], (1, key))
           for n, r in enumerate(rs) if r == gamma]
    base = index_pairs(key)
    for n, f in enumerate(key):
        step = form_step(gamma, p, f)
        if step:
            out.append((-step[1], rs, canonical_index(
                base[:n] + (PAIRS[step[0]],) + base[n + 1:])))
    return out


def _core(theta, res, c, p, cyc, e5, t_rs, key_pairs):
    """res += c * the shared cyclic block,
    (e5/2) * sum(-rotation + 2 * module action)."""
    for al, be, ga in cyc:
        sign, key = canonical_index(((al, be),) + key_pairs)
        if not sign:
            continue
        for c2, rs, got in _rotated(p, ga, t_rs, key):
            theta.add_to(res, Q(-c * e5 * sign * c2, 2), rs, got)
        theta.add_to(res, c * e5, t_rs, (sign, key), (p, ga))


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
    for perm in permutations(range(1, 6)):
        p, q, a, b, c = perm
        e5 = perm_sign(perm)
        cyc = ((a, b, c), (b, c, a), (c, a, b))
        for key in jkeys:
            kp = index_pairs(key)
            res = {}
            theta.add_to(res, -1, (p,), remove_index(kp, ((p, q),)))
            _core(theta, res, 1, p, cyc, e5, (), kp)
            _collect(out, "deg1", perm, key, res)
        for key in kkeys:
            kp = index_pairs(key)
            pq = remove_index(kp, ((p, q),))
            res = {}
            theta.add_to(res, Q(1, 4), (),
                         canonical_index(((a, b), (b, c), (c, q)) + kp))
            theta.add_to(res, Q(1, 4), (),
                         canonical_index(((a, c), (c, b), (b, q)) + kp))
            theta.add_to(res, -1, (a, p), pq)
            _core(theta, res, 1, p, cyc, e5, (a,), kp)
            _collect(out, "deg3a", perm, key, res)
            res = {}
            theta.add_to(res, -2, (p, p), pq)
            _core(theta, res, 1, p, cyc, e5, (p,), kp)
            _collect(out, "deg3p", perm, key, res)
            res = {}
            theta.add_to(res, -2, (p, q), pq)
            theta.add_to(res, -1, (),
                         canonical_index(((a, b), (b, c), (c, a)) + kp))
            _core(theta, res, 2, p, cyc, e5, (q,), kp)
            _collect(out, "deg3q", perm, key, res)
    return out


def _collect(out, name, perm, key, res):
    for col in sorted(res):
        if res[col]:
            out.append((name, perm, key, col, res[col]))
