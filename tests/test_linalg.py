import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import kernel_refs
from e510.scalars import Q
from e510.linalg import Echelon, MatrixTooLargeError, kernel_basis


def test_kernel_hand_example():
    rows = [{0: Q(1), 1: Q(2)}, {0: Q(2), 1: Q(4)}]
    ker = kernel_basis(rows, [0, 1])
    assert ker == [{0: Q(1), 1: Q(-1, 2)}]


def test_kernel_full_rank():
    rows = [{0: Q(1)}, {1: Q(3)}, {2: Q(-2)}]
    assert kernel_basis(rows, [0, 1, 2]) == []


def test_kernel_zero_map():
    ker = kernel_basis([], ["a", "b"])
    assert ker == [{"a": Q(1)}, {"b": Q(1)}]


def test_kernel_matches_sympy_on_random_matrices():
    rng = random.Random(11)
    for _ in range(30):
        m = rng.randrange(1, 7)
        n = rng.randrange(1, 7)
        dense = [[rng.randint(-3, 3) if rng.random() < 0.6 else 0
                  for _ in range(n)] for _ in range(m)]
        rows = [{j: Q(v) for j, v in enumerate(r) if v} for r in dense]
        ker = kernel_basis(rows, list(range(n)))
        sym = sympy.Matrix(dense)
        assert len(ker) == n - sym.rank()
        for vec in ker:
            img = [sum(r.get(j, Q(0)) * vec.get(j, Q(0)) for j in range(n))
                   for r in rows]
            assert all(x == 0 for x in img)
        # normalization contract: leading coordinate is 1
        for vec in ker:
            first = min(vec)
            assert vec[first] == 1


def test_kernel_deterministic():
    rng = random.Random(5)
    dense = [[rng.randint(-4, 4) for _ in range(8)] for _ in range(5)]
    rows = [{j: Q(v) for j, v in enumerate(r) if v} for r in dense]
    a = kernel_basis([dict(r) for r in rows], list(range(8)))
    b = kernel_basis([dict(r) for r in reversed(rows)], list(range(8)))
    assert a == b


def test_entry_cap():
    rows = [{j: Q(1) for j in range(10)} for _ in range(10)]
    with pytest.raises(MatrixTooLargeError):
        kernel_basis(rows, list(range(10)), entry_cap=50)


def test_rank_of():
    rows = [{0: Q(1), 1: Q(1)}, {1: Q(1), 2: Q(1)}, {0: Q(1), 2: Q(-1)}]
    ech = Echelon()
    assert [ech.insert(row, None) for row in rows] == [True, True, False]
    assert len(ech.pivots) == 2


def test_echelon_coords():
    ech = Echelon()
    v0 = {0: Q(1), 1: Q(1)}
    v1 = {1: Q(2)}
    assert ech.insert(v0, "a")
    assert ech.insert(v1, "b")
    assert not ech.insert({0: Q(3), 1: Q(5)}, "c")  # 3a + b
    combo = ech.coords({0: Q(3), 1: Q(5)})
    assert combo == {"a": Q(3), "b": Q(1)}
    assert ech.coords({2: Q(1)}) is None
    assert ech.coords({0: Q(-1), 1: Q(-1)}) == {"a": Q(-1)}
    assert ech.coords({0: Q(1), 2: Q(1)}) is None


def test_echelon_coords_random():
    rng = random.Random(3)
    for _ in range(10):
        ech = Echelon()
        members = []
        for t in range(6):
            vec = {j: Q(rng.randint(-3, 3)) for j in range(5)}
            vec = {k: v for k, v in vec.items() if v}
            if vec and ech.insert(vec, t):
                members.append((t, vec))
        coeffs = {t: Q(rng.randint(-2, 2)) for t, _ in members}
        target = {}
        for t, vec in members:
            for k, v in vec.items():
                s = target.get(k, Q(0)) + coeffs[t] * v
                if s:
                    target[k] = s
                else:
                    target.pop(k, None)
        combo = ech.coords(target)
        assert combo is not None
        full = {t: combo.get(t, Q(0)) for t, _ in members}
        assert full == {t: c for t, c in coeffs.items()}


class _FractionEchelon:
    """Reference: the rational echelon with monic pivot rows and Fraction
    combinations that the fraction-free Echelon replaced."""

    def __init__(self):
        self.pivots = {}  # leading column -> (monic row, combo dict tag -> Q)

    def _reduce(self, row, combo):
        # invariant: current row == original row - sum combo[t] * member_t
        while row:
            lead = min(row)
            hit = self.pivots.get(lead)
            if hit is None:
                break
            prow, pcombo = hit
            c = row.pop(lead)
            for k, v in prow.items():
                if k == lead:
                    continue
                s = row.get(k, 0) - c * v
                if s:
                    row[k] = s
                else:
                    row.pop(k, None)
            for t, v in pcombo.items():
                s = combo.get(t, 0) + c * v
                if s:
                    combo[t] = s
                else:
                    combo.pop(t, None)
        return row, combo

    def insert(self, row, tag):
        """Add a vector as the member called tag; True if it was independent."""
        row = {k: Q(1) * v for k, v in row.items() if v}
        row, combo = self._reduce(row, {})
        if not row:
            return False
        lead = min(row)
        m = row.pop(lead)
        stored = {lead: Q(1)}
        for k, v in row.items():
            stored[k] = v / m
        pcombo = {tag: 1 / m}
        for t, v in combo.items():
            pcombo[t] = -v / m
        self.pivots[lead] = (stored, pcombo)
        return True

    def coords(self, row):
        """Coordinates of row w.r.t. the tagged members, or None if outside."""
        row = {k: Q(1) * v for k, v in row.items() if v}
        row, combo = self._reduce(row, {})
        if row:
            return None
        return combo


_FRAC = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 6))
_VEC = st.dictionaries(st.integers(0, 5), _FRAC, max_size=4)
# tag kinds as the irreps use them: 0, basis indices, (0, i) / (1, k)
_TAG = st.one_of(st.just(0), st.integers(1, 40),
                 st.tuples(st.sampled_from((0, 1)), st.integers(0, 20)))


@st.composite
def _members(draw):
    """Sparse rational vectors, some combinations of earlier ones, each
    with a distinct tag."""
    vecs = []
    for _ in range(draw(st.integers(0, 8))):
        if vecs and draw(st.booleans()):
            vec = {}
            for i in draw(st.lists(st.integers(0, len(vecs) - 1),
                                   min_size=1, max_size=3)):
                c = draw(_FRAC)
                for k, v in vecs[i].items():
                    vec[k] = vec.get(k, 0) + c * v
        else:
            vec = draw(_VEC)
        vecs.append(vec)
    tags = draw(st.lists(_TAG, min_size=len(vecs), max_size=len(vecs),
                         unique=True))
    return list(zip(vecs, tags))


@settings(max_examples=300, deadline=None)
@given(_members(), st.lists(_VEC, max_size=3))
def test_echelon_matches_fraction_reference(members, probes):
    new, ref = Echelon(), _FractionEchelon()
    for vec, tag in members:
        assert new.insert(vec, tag) == ref.insert(vec, tag)
        assert len(new.pivots) == len(ref.pivots)
    for vec in [v for v, _ in members] + probes:
        assert new.coords(vec) == ref.coords(vec)


@st.composite
def _kernel_matrices(draw):
    """(rows, column_order): integer or Fraction rows over n columns.

    Full-rank matrices get n triangular rows with a nonzero diagonal; the
    others get at most n - 1 random rows and combinations of them, so both
    kinds occur.  Cascades start with a chain of rows, the k-th with a
    nonzero entry at chain[k] and others only at chain[:k], so the peel of
    singular_search._peel forces the whole chain.  A chain over every
    column leaves nothing to eliminate; a shorter one leaves a core of
    fewer rows than live columns, so its kernel is not 0.
    """
    n = draw(st.integers(1, 6))
    entry = draw(st.sampled_from((st.integers(-4, 4), _FRAC)))
    nonzero = entry.filter(bool)
    kind = draw(st.sampled_from(("full", "random", "cascade")))
    if kind == "full":
        rows = [{**draw(st.dictionaries(st.integers(i + 1, n), entry,
                                        max_size=3)), i: draw(nonzero)}
                for i in range(n)]
    elif kind == "random":
        rows = draw(st.lists(st.dictionaries(st.integers(0, n - 1), entry,
                                             max_size=4),
                             max_size=n - 1))
    else:
        chain = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
        rows = [{**(draw(st.dictionaries(st.sampled_from(chain[:k]), entry,
                                         max_size=2)) if k else {}),
                 c: draw(nonzero)} for k, c in enumerate(chain)]
        rest = [c for c in range(n) if c not in chain]
        for _ in range(draw(st.integers(0, max(len(rest) - 1, 0)))):
            rows.append({**draw(st.dictionaries(st.sampled_from(chain), entry,
                                                max_size=2)),
                         **draw(st.dictionaries(st.sampled_from(rest), nonzero,
                                                min_size=2, max_size=4))})
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        combo = {}
        for r in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
            c = draw(st.integers(-3, 3))
            for k, v in r.items():
                combo[k] = combo.get(k, 0) + c * v
        rows.append(combo)
    columns = draw(st.permutations(range(n)))
    return [{k: v for k, v in r.items() if k < n} for r in rows], columns


@settings(max_examples=300, deadline=None)
@given(_kernel_matrices(), st.data())
def test_kernel_basis_matches_reference(matrix, data):
    # the output is a function of the row space: duplicated rows, another
    # row order and positive row scales give the reference's kernel
    rows, columns = matrix
    want = kernel_refs.row_kernel_basis(rows, columns)
    got = kernel_basis(rows, columns)
    assert got == want
    # the key order of each vector too
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
    more = rows + data.draw(st.lists(st.sampled_from(rows), max_size=3)
                            if rows else st.just([]))
    more = data.draw(st.permutations(more))
    scales = data.draw(st.lists(st.integers(1, 5), min_size=len(more),
                                max_size=len(more)))
    assert kernel_basis([{k: s * v for k, v in r.items()}
                         for r, s in zip(more, scales)], columns) == want


_KEYS = {
    "int": lambda c: c,
    "str": lambda c: "c%d" % c,
    "tuple": lambda c: ("m", c),
    "fraction": lambda c: Fraction(c, 3),
}


@st.composite
def _column_kernel_cases(draw):
    """(rows, column_order): a matrix of _kernel_matrices with duplicate
    rows, zero rows (empty, or all entries 0), unused columns, so more
    columns than rows, and column keys that are not integers."""
    rows, columns = draw(_kernel_matrices())
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    zero = draw(st.sampled_from((0, Q(0))))
    rows += [{c: zero for c in draw(st.lists(st.sampled_from(columns),
                                             max_size=2))}
             for _ in range(draw(st.integers(0, 2)))]
    rows = draw(st.permutations(rows))
    n = len(columns)
    columns = draw(st.permutations(
        columns + list(range(n, n + draw(st.integers(0, 3))))))
    key = _KEYS[draw(st.sampled_from(sorted(_KEYS)))]
    return ([{key(c): v for c, v in r.items()} for r in rows],
            [key(c) for c in columns])


@settings(max_examples=300, deadline=None)
@given(_column_kernel_cases())
@example(([{0: 1, 1: 2}, {1: 3}, {0: 1, 1: 2}, {}], [0, 1, 2]))
@example(([{"a": Q(1, 2), "b": Q(1)}, {"a": Q(1), "b": Q(2)},
           {"c": Q(0)}], ["b", "a", "c", "d"]))
def test_column_kernel_matches_the_row_kernel(case):
    # the columns that depend on earlier columns give the kernel that
    # row elimination and back-substitution gave: equal Fraction values,
    # the same vectors in the same order, each with the same key order
    rows, columns = case
    want = kernel_refs.row_kernel_basis(rows, columns)
    got = kernel_basis(rows, columns)
    assert got == want
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
    assert all(type(x) is Fraction for v in got for x in v.values())


@settings(max_examples=300, deadline=None)
@given(_column_kernel_cases())
@example(([], ["a", "b"]))
@example(([{0: 1, 1: 2}, {1: 3}, {0: 1, 1: 2}, {}], [0, 1, 2]))
def test_kernel_basis_is_the_normalized_sympy_nullspace(case):
    # sympy's nullspace over the columns in column_order, each vector
    # scaled so that its first nonzero coordinate is 1, and the vectors
    # ordered by that position: exactly the vectors of kernel_basis
    rows, columns = case
    dense = sympy.Matrix(len(rows), len(columns),
                         [sympy.Rational(r.get(c, 0))
                          for r in rows for c in columns])
    want = []
    for vec in dense.nullspace():
        first = next(j for j, x in enumerate(vec) if x)
        want.append((first, {columns[j]: Fraction(int(x.p), int(x.q))
                             for j, x in enumerate(vec / vec[first]) if x}))
    want.sort(key=lambda t: t[0])
    assert kernel_basis(rows, columns) == [vec for _, vec in want]


def _chain(n, one):
    """{0: a}, {0: b, 1: c}, {1: d, 2: e}, ...: each row forces one more
    column, n rows with 2n - 1 entries."""
    return [{0: 2 * one}] + [{k - 1: (k + 1) * one, k: -k * one}
                             for k in range(1, n)]


def test_entry_cap_counts_every_entry_before_the_peel():
    # the cap sees all 19 entries of the chain, though a peel of its forced
    # zeros (singular_search._peel) would leave nothing of it
    rows = _chain(10, 1)
    with pytest.raises(MatrixTooLargeError, match="19 stored entries"):
        kernel_basis(rows, list(range(10)), entry_cap=18)
    assert kernel_basis(rows, list(range(10)), entry_cap=19) == []


def test_kernel_basis_leaves_the_callers_rows_alone():
    # int and Fraction rows over their own column positions: the last row
    # reduces to zero and the second is reduced before it becomes a pivot
    for one in (1, Q(1, 2)):
        rows = [{0: 2 * one, 1: 4 * one}, {0: one, 1: 2 * one, 2: 3 * one},
                {0: 3 * one, 1: 6 * one}]
        before = [dict(r) for r in rows]
        assert kernel_basis(rows, [0, 1, 2]) == [{0: 1, 1: Q(-1, 2)}]
        assert rows == before
        assert all(type(v) is type(one) for r in rows for v in r.values())


@settings(max_examples=200, deadline=None)
@given(_kernel_matrices())
def test_kernel_basis_never_changes_its_rows(matrix):
    rows, columns = matrix
    before = [dict(r) for r in rows]
    kernel_basis(rows, columns)
    assert rows == before
