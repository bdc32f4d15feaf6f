"""Sparse exact linear algebra over the rationals.

Rows are dicts column_key -> value with arbitrary orderable column keys.
One fraction-free reduction loop, Echelon._reduce, serves kernels and
member coordinates: every vector is scaled to an integer vector that the
echelon owns and reduces in place, with the combination of the members
that gives it, and the elimination never divides except by the gcd that
keeps both primitive.  Scalars are built only from the coordinates that
Echelon.place and Echelon.coords read off.  All orderings are canonical,
which makes results byte-for-byte reproducible.

kernel_basis eliminates columns, not rows.  The pivot columns of a reduced
row echelon form are the columns that are independent of the columns
before them, so a column is free exactly when it lies in the span of the
earlier columns, and its coordinates in them give the unique kernel vector
that is 1 on it and 0 on every other free column.  So the columns go into
one Echelon in column order, each tagged with its position, and each
kernel vector is read off Echelon.place; nothing is back-substituted.  A
column is a vector over row numbers, and a permutation of the rows does
not change which columns depend on which, so the row order only sets the
cost: the rows are numbered in order of their last column, which keeps
the pivot columns short.  The rows are transposed straight into columns,
and the echelon owns and reduces its integer copy of each column, so the
caller's rows never change.  The search peels forced zeros off its rows
before it asks for a kernel; why that keeps the kernel is argued once, in
singular_search.  check_entry_cap is the one entry-cap test.
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
    """Divide row and combo, in place, by the gcd of all their entries;
    combo goes first, as a fresh {tag: 1} settles the gcd at once."""
    g = 0
    for part in (combo, row):
        for v in part.values():
            g = gcd(g, v)
            if g == 1:
                return
    if g > 1:
        for part in (combo, row):
            for k in part:
                part[k] //= g


def _integer_row(row):
    """(den, a new dict of the nonzero int numerators of row over den)."""
    values = row.values()
    if _INT.issuperset(map(type, values)):
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
    sum(combo[t] * member_t) over the inserted members.  Every member is
    inserted under a tag, any hashable (None too), and place() and coords()
    express a vector of the span in the tagged members.
    """

    def __init__(self):
        self.pivots = {}  # leading column -> (primitive int row, int combo)

    def _reduce(self, den, row, tag):
        # the integer row, which the echelon owns and reduces in place, is
        # den * member_tag, and every step keeps row == sum(combo[t] *
        # member_t).  A step is linear in (row, combo), so dividing by a gcd
        # only scales what follows: the pair is made primitive after the
        # steps that scale it by more than a sign, and once at the end.
        combo = {tag: den}
        while row:
            lead = min(row)
            hit = self.pivots.get(lead)
            if hit is None:
                break
            prow, pcombo = hit
            pivval, c = prow[lead], row[lead]
            _eliminate(row, pivval, c, prow)
            _eliminate(combo, pivval, c, pcombo)
            if pivval != 1 and pivval != -1:
                _make_primitive(row, combo)
        _make_primitive(row, combo)
        return row, combo

    def insert(self, row, tag):
        """Add a vector as the member called tag; True if it was independent."""
        return self.place(row, tag) is None

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
    of that coordinate.  There is one vector per free column, a column
    that lies in the span of the columns before it (module docstring): it
    is 1 there, 0 on the other free columns, and its keys are the free
    column, then the pivot columns it uses in descending order.  The
    nonempty rows are numbered in order of their last nonzero column (a
    stable sort) and transposed straight into columns over those numbers,
    which go into one echelon in column order; Echelon.place takes each
    column to integers over its own denominator, so Fraction rows need no
    conversion.  A zero entry is ignored, whatever its key.  entry_cap
    counts every entry of the rows handed in.  The caller's rows are never
    changed.
    """
    rows = [r for r in rows if r]
    check_entry_cap(sum(map(len, rows)), entry_cap)
    colpos = {c: i for i, c in enumerate(column_order)}
    last = {}
    for k, r in enumerate(rows):
        pos = [colpos[c] for c, v in r.items() if v]
        if pos:
            last[k] = max(pos)
    columns = [{} for _ in column_order]
    for i, k in enumerate(sorted(last, key=last.get)):
        for c, v in rows[k].items():
            if v:
                columns[colpos[c]][i] = v
    ech = Echelon()
    basis = []
    for f, column in enumerate(columns):
        got = ech.place(column, f)
        if got is not None:
            den, coords = got
            x = {f: den}
            for p in sorted(coords, reverse=True):
                x[p] = -coords[p]
            first = min(x)
            basis.append((first, {column_order[i]: Q(v, x[first])
                                  for i, v in x.items()}))
    basis.sort(key=lambda t: t[0])
    return [vec for _, vec in basis]
