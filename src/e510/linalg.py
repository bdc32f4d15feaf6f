"""Sparse exact linear algebra over the rationals.

Rows are dicts column_key -> value with arbitrary orderable column keys.
One fraction-free reduction loop, Echelon._reduce, serves kernels, ranks
and member coordinates: every row is scaled to an integer vector, and the
elimination never divides except by the gcd that keeps rows primitive.
Scalars are built only by kernel back-substitution and by coords.  All
orderings are canonical, which makes results byte-for-byte reproducible.
"""

from math import gcd

from .scalars import Q, _den, _numerators

_SELF = object()  # coords' tag for the vector being expressed


class MatrixTooLargeError(RuntimeError):
    """Raised before building a search block that exceeds the entry cap."""


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


def _eliminate(residual, pivval, coefficient, pivrow):
    """residual <- pivval * residual - coefficient * pivrow, in place."""
    if pivval != 1:
        for k in residual:
            residual[k] *= pivval
    for k, v in pivrow.items():
        s = residual.get(k, 0) - coefficient * v
        if s:
            residual[k] = s
        else:
            residual.pop(k, None)


class Echelon:
    """Incremental fraction-free row echelon with member-coordinate tracking.

    Each pivot holds (row, combo), both integer dicts, with row equal to
    sum(combo[t] * member_t) over the inserted members.  A member inserted
    with a tag lets coords() express any vector of the span in the tagged
    members; tag None tracks no combinations (kernels, ranks, contains), and
    an echelon uses either tags for all its members or None for all.
    """

    def __init__(self):
        self.pivots = {}  # leading column -> (primitive int row, int combo)

    def rank(self):
        return len(self.pivots)

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

    def insert(self, row, tag):
        """Add a vector as the member called tag; True if it was independent."""
        row, combo = self._reduce(row, tag)
        if not row:
            return False
        self.pivots[min(row)] = (row, combo)
        return True

    def coords(self, row):
        """Coordinates of row w.r.t. the tagged members, or None if outside."""
        row, combo = self._reduce(row, _SELF)
        if row:
            return None
        own = combo.pop(_SELF)
        return {t: Q(-c, own) for t, c in combo.items()}

    def contains(self, row):
        return not self._reduce(row, None)[0]


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
    ech = Echelon()
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
