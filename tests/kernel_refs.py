"""Reference copies of the exact U(g_-) kernels that the package now keeps
once, for the tests to check the one copy against.

Verbatim but for the names and the caches: mono_product and the pbw_product
loop of uminus (now views of uminus.product_int), verma.ad_e_mono (now
act_e on M(F(0,0,0,0))), and the rational Irrep.mat with its act and the
integer conversion InducedModule._int_mat (now the (den, columns) of
Irrep.mat).  Then linalg.kernel_basis before its early stop and its
last-column row order, with the Echelon reduction that took every row
through _den and _numerators, and singular_search.condition_rows as it
built one one-term element per block column and applied int_conditions to
it.  Then InducedModule.block_conditions and the singular_search
condition_rows that transposed its images into rows, both now the label
builders of InducedModule.condition_rows.  And linalg.kernel_basis with
its early stop and last-column row order, before it peeled the forced
zeros, as unpeeled_kernel_basis (kernel_basis is that again now, but for
the entry-cap helper).  Then singular_search.singular_block as it kept
every assembled row and handed them all to linalg.kernel_basis, which
checked the entry cap and peeled them again, as assembled_singular_block.  Last, linalg.kernel_basis as it peeled the
forced zeros of the rows handed in before the echelon, as
peeling_kernel_basis; assembled_singular_block calls it.  Then
omega_basis.equivariant_family as it checked each image through
InducedModule.act_e_int, which takes the image's own denominator again.
InducedModule.element_weight, which only the tests read, is
element_weight.  The rational Irrep.mat above is the ambient solve
Irrep.mat made before it read its matrices off the closure; it solves with
Irrep.coords, kept here as coords over echelons of the basis vectors of
each weight, since Irrep.project became the one route to coordinates.
"""

from math import lcm
from operator import add

from e510.linalg import (
    _INT, DEFAULT_ENTRY_CAP, Echelon, MatrixTooLargeError, _eliminate,
    _make_primitive, check_entry_cap,
)
from e510.scalars import Q, _den, _numerators
from e510.sl5_reps import _mono_eps_weight, act_ambient, build_irrep
from e510.uminus import _order_forms, add_scaled, mono_weight
from e510.singular_search import _peel
from e510.verma import _act_e_terms, _ad_e_forms, _leibniz_acc


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


class RationalEchelon:
    """Echelon with the reduction that rescales every row as a rational."""

    def __init__(self):
        self.pivots = {}  # leading column -> (primitive int row, int combo)

    def insert(self, row, tag):
        row, combo = self._reduce(row, tag)
        if not row:
            return False
        self.pivots[min(row)] = (row, combo)
        return True

    def _reduce(self, row, tag):
        # the integer row starts as den * member_tag, and every step keeps
        # row == sum(combo[t] * member_t)
        den = _den(row.values())
        row = {k: n for k, n in _numerators(row, den) if n}
        combo = None if tag is None else {tag: den}
        _make_primitive(row, combo)
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
            _make_primitive(row, combo)
        return row, combo


def kernel_basis(rows, column_order, entry_cap=None):
    """Exact kernel of the linear map given by constraint rows.

    rows: iterable of dicts column_key -> scalar (each row is one constraint).
    column_order: list fixing the canonical coordinate order.
    Returns kernel vectors as dicts column_key -> Q, each normalized so its
    first nonzero coordinate (in column_order) is 1, sorted by the position
    of that coordinate.
    """
    rows = [r for r in rows if r]
    if entry_cap is not None:
        entries = sum(len(r) for r in rows)
        if entries > entry_cap:
            raise MatrixTooLargeError(
                "search block has %d stored entries (cap %d); raise the cap "
                "to proceed" % (entries, entry_cap))
    colpos = {c: i for i, c in enumerate(column_order)}
    ech = RationalEchelon()
    for row in sorted(({colpos[c]: v for c, v in r.items() if v} for r in rows),
                      key=lambda r: (len(r), sorted(r))):
        ech.insert(row, None)

    pivots = ech.pivots
    free = [i for i in range(len(column_order)) if i not in pivots]
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


def condition_rows(module, block):
    """Integer condition rows of a block, keyed by (label, image key).

    Column j is the basis pair block[j], and its condition images
    (module.int_conditions) give the entries of column j.  All rows of a
    label share one denominator, the lcm of its images' denominators so
    far: when an image's denominator does not divide it, the label's rows
    are rescaled to the new lcm.  So each row is its rational row times the
    label's final lcm.
    """
    rows = {}
    dens = {}
    for j, pair in enumerate(block):
        for label, (acc, den) in module.int_conditions({pair: 1}):
            common = dens.setdefault(label, den)
            if common % den:
                grown = lcm(common, den)
                for (lab, _), row in rows.items():
                    if lab == label:
                        for k in row:
                            row[k] *= grown // common
                common = dens[label] = grown
            s = common // den
            for key, n in acc.items():
                if n:
                    rows.setdefault((label, key), {})[j] = n * s
    return rows


def block_conditions(module, block):
    """int_conditions of each basis pair of a block, as integer images.

    Yields, for each pair of block in order, the list of (label,
    numerators) of its condition images.  A label's numerators share
    one denominator over the block: that of e_a's rep matrix, and for
    a positive generator that of its coefficients times the lcm of the
    denominators of the rep matrices its terms use anywhere in block.
    """
    e_mats = [("e%d" % a, a, module.rep.mat(a, a + 1)) for a in range(1, 5)]
    positive = []
    for label, x in module.POSITIVE:
        xnums = _numerators(x, _den(x.values()))
        mats = {}
        terms = [module._leibniz_terms(xnums, ((pair, 1),), mats)
                 for pair in block]
        positive.append((label, terms, mats,
                         lcm(*(d for d, _ in mats.values()))))
    for j, pair in enumerate(block):
        one = ((pair, 1),)
        images = [(label, _act_e_terms(a, a + 1, one, mat))
                  for label, a, mat in e_mats]
        images += [(label, _leibniz_acc(terms[j], mats, mden))
                   for label, terms, mats, mden in positive]
        yield images


def block_condition_rows(module, block):
    """Integer condition rows of a block, keyed by (label, image key).

    Column j is the basis pair block[j], and its condition images
    (module.block_conditions) give the entries of column j.  Rows appear
    column by column, labels in condition order within a column.  All rows
    of a label share one denominator over the block, so each row is its
    rational row times one positive integer per label.
    """
    rows = {}
    for j, images in enumerate(block_conditions(module, block)):
        for label, acc in images:
            for key, n in acc.items():
                if n:
                    rows.setdefault((label, key), {})[j] = n
    return rows


def unpeeled_kernel_basis(rows, column_order, entry_cap=None):
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
    once the rank is full.  The caller's rows are never changed.
    """
    rows = [r for r in rows if r]
    if entry_cap is not None:
        entries = sum(len(r) for r in rows)
        if entries > entry_cap:
            raise MatrixTooLargeError(
                "search block has %d stored entries (cap %d); raise the cap "
                "to proceed" % (entries, entry_cap))
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
    ech = Echelon()
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


def assembled_singular_block(module, d, nu, entry_cap=DEFAULT_ENTRY_CAP):
    """Block basis and exact kernel of the module's singularity conditions.

    The rows are assembled one condition label at a time, in the order of
    module.condition_rows, and only on the columns that the rows so far
    leave live (module docstring); every assembled row goes to kernel_basis.
    The rows so far force what the last peel forced plus what its core,
    the rows left on the live columns, forces with the new rows, so each
    peel runs over that core and the new rows.
    """
    block = module.weight_space(d, tuple(nu))
    ncols = len(block)
    rows, core, live = [], [], range(ncols)
    for _, build in module.condition_rows(block):
        if not live:
            break
        new = list(build(live).values())
        rows += new
        forced, core = _peel(core + new, ncols)
        live = [j for j in live if j not in forced]
    kern = peeling_kernel_basis(rows, list(range(ncols)), entry_cap=entry_cap)
    vectors = [{block[j]: c for j, c in k.items()} for k in kern]
    return block, vectors


def peeling_kernel_basis(rows, column_order, entry_cap=None):
    """Exact kernel of the linear map given by constraint rows.

    rows: iterable of dicts column_key -> scalar (each row is one constraint).
    column_order: list fixing the canonical coordinate order.
    Returns kernel vectors as dicts column_key -> Q, each normalized so its
    first nonzero coordinate (in column_order) is 1, sorted by the position
    of that coordinate.  The result depends only on the span of the rows
    (linalg module docstring): row order, duplicates and positive row
    scales do not change it.  So each row is copied once, as an integer row
    over column positions that the echelon reduces in place.  The forced
    zeros are peeled off first (singular_search._peel): only the copies
    with two or more live entries, restricted to the live columns, are
    inserted, in order of their last column, and the insertion stops with
    [] once the pivots cover the live columns; back-substitution runs over
    the live free columns.  entry_cap counts every entry of the rows handed in,
    before the peel.  The caller's rows are never changed.
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
    forced, owned = _peel(owned, ncols)
    owned.sort(key=max)
    nlive = ncols - len(forced)
    ech = Echelon()
    pivots = ech.pivots
    for row in owned:
        ech._insert(1, row, None)
        if len(pivots) == nlive:
            return []

    free = [i for i in range(ncols) if i not in pivots and i not in forced]
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


def equivariant_family(module, w, check=True):
    """Images of a weight-module basis under the map generated by w.

    Transports w along the lowering tree of its weight module and verifies
    that the family intertwines the sl5 action: for each simple raising or
    lowering E and each j, E images[j] == sum_i M[i, j] images[i] with M
    the matrix of E on rep_in, compared as integer numerators over one
    common denominator.  Returns (rep_in, images).
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
            for jj in range(rep_in.dim):
                acc, den = module.act_e_int(x, y, images[jj])
                common = lcm(den, mden * iden)
                s, t = common // den, common // (mden * iden)
                got = {k: n * s for k, n in acc.items()}
                for ii, cc in cols[jj].items():
                    tc = t * cc
                    for k, n in nums[ii]:
                        got[k] = got.get(k, 0) - tc * n
                if any(got.values()):
                    raise ValueError(
                        "vector does not generate an equivariant family")
    return rep_in, images
