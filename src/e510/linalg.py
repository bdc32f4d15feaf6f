"""Sparse exact linear algebra over the rationals.

Rows are dicts column_key -> value with arbitrary orderable column keys.
One fraction-free reduction loop, Echelon._reduce, serves kernels and
member coordinates: every row is scaled to an integer vector that the
echelon owns and reduces in place, and the elimination never divides
except by the gcd that keeps rows primitive.  Scalars are built only by
kernel back-substitution and by coords.  All orderings are canonical, which
makes results byte-for-byte reproducible.

kernel_basis returns a function of the row space alone: the pivot columns
of an echelon of a row space do not depend on the order or the positive
scale of the rows that span it, and the kernel vector that is 1 on one
free column and 0 on the others is unique.  So it may insert the rows in
any order, and it inserts them in order of their last column, which keeps
the pivot rows short; and it may stop inserting rows as soon as the pivots
cover every column: the kernel is then 0, whatever the remaining rows are.
Each row is copied once, into column positions; the echelon reduces that
copy, so the caller's rows never change.  The search peels forced zeros
off its rows before it asks for a kernel; why that keeps the kernel is
argued once, in singular_search.  check_entry_cap is the one entry-cap
test.
"""

from math import gcd

from .scalars import Q, _den, _numerators

_SELF = object()  # coords' tag for the vector being expressed
_INT = frozenset((int,))
DEFAULT_ENTRY_CAP = 200000  # stored entries of one search block's rows


class MatrixTooLargeError(RuntimeError):
    """Raised when a search block's assembled rows exceed the entry cap,
    before elimination."""


def check_entry_cap(entries, entry_cap):
    """Raise MatrixTooLargeError when a search block's entries exceed
    entry_cap; None is no cap."""
    if entry_cap is not None and entries > entry_cap:
        raise MatrixTooLargeError(
            "search block has %d stored entries (cap %d); raise the cap "
            "to proceed" % (entries, entry_cap))


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


def _integer_row(row):
    """(den, a new dict of the nonzero int numerators of row over den)."""
    values = row.values()
    if all(type(v) is int for v in values):
        if all(values):
            return 1, dict(row)
        return 1, {k: v for k, v in row.items() if v}
    den = _den(values)
    return den, {k: n for k, n in _numerators(row, den) if n}


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
    with a tag lets place() and coords() express any vector of the span in
    the tagged members; tag None tracks no combinations (kernel_basis), and
    an echelon uses either tags for all its members or None for all.
    """

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

    def insert(self, row, tag):
        """Add a vector as the member called tag; True if it was independent."""
        return self._insert(*_integer_row(row), tag)

    def place(self, row, tag):
        """Add a vector as the member called tag and return None if it was
        independent; else return its coordinates w.r.t. the tagged members
        from the same reduction, as (den, int numerators) in lowest terms."""
        row, combo = self._reduce(*_integer_row(row), tag)
        if row:
            self.pivots[min(row)] = (row, combo)
            return None
        own = combo.pop(tag)
        sign = -1 if own > 0 else 1
        return abs(own), {t: sign * c for t, c in combo.items()}

    def coords(self, row):
        """Coordinates of row w.r.t. the tagged members, or None if outside."""
        row, combo = self._reduce(*_integer_row(row), _SELF)
        if row:
            return None
        own = combo.pop(_SELF)
        return {t: Q(-c, own) for t, c in combo.items()}


def kernel_basis(rows, column_order, entry_cap=None):
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
