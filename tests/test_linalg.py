import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

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
    for row in rows:
        ech.insert(row, None)
    assert ech.rank() == 2


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
    assert ech.contains({0: Q(-1), 1: Q(-1)})
    assert not ech.contains({0: Q(1), 2: Q(1)})


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

    def rank(self):
        return len(self.pivots)

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
            if combo is not None:
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

    def contains(self, row):
        row = {k: Q(1) * v for k, v in row.items() if v}
        row, _ = self._reduce(row, None)
        return not row


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
        assert new.rank() == ref.rank()
    for vec in [v for v, _ in members] + probes:
        assert new.coords(vec) == ref.coords(vec)
        assert new.contains(vec) == ref.contains(vec)
