import random
from collections import Counter
from functools import lru_cache
from itertools import product
from math import factorial

from hypothesis import given, settings, strategies as st

import kernel_refs as ref
from e510.linalg import Echelon, kernel_basis
from e510.scalars import Q
from e510 import sl5_reps
from e510.sl5_reps import (
    Irrep, build_irrep, weyl_dim, gt_pattern_count, dual_weight, eps_to_coords,
    act_ambient, ambient_monomial, parse_weight,
    weight_str, _bump, _mono_eps_weight, _mono_profile,
)

# hand-evaluated Weyl product formula values
WEYL_HAND = {
    (0, 0, 0, 0): 1,
    (1, 0, 0, 0): 5,
    (0, 1, 0, 0): 10,
    (0, 0, 1, 0): 10,
    (0, 0, 0, 1): 5,
    (2, 0, 0, 0): 15,
    (0, 0, 0, 2): 15,
    (3, 0, 0, 0): 35,
    (1, 0, 0, 1): 24,
    (1, 1, 0, 0): 40,
    (0, 2, 0, 0): 50,
    (1, 1, 0, 1): 175,
    (1, 1, 1, 0): 280,
    (2, 2, 0, 0): 420,
    (2, 0, 0, 3): 450,
    (0, 0, 3, 2): 1260,
}


def test_weyl_dim_hand_values():
    for w, n in WEYL_HAND.items():
        assert weyl_dim(w) == n


def test_weyl_dim_dual_symmetry():
    for w in WEYL_HAND:
        assert weyl_dim(dual_weight(w)) == weyl_dim(w)


def test_gt_pattern_count_agrees():
    for w in [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0),
              (2, 0, 0, 0), (1, 0, 0, 1), (0, 2, 0, 0), (1, 1, 0, 1),
              (2, 1, 1, 2), (3, 0, 0, 3)]:
        assert gt_pattern_count(w) == weyl_dim(w)


def test_build_small_irreps():
    for w in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
              (1, 1, 0, 0), (2, 0, 0, 0), (1, 0, 0, 1), (0, 0, 1, 1)]:
        rep = build_irrep(w)
        assert rep.dim == weyl_dim(w)
        # the highest weight line is index 0 with the declared weight
        assert eps_to_coords(rep.eps_weights[0]) == w


def test_standard_module_action():
    rep = build_irrep((1, 0, 0, 0))
    # basis of F(1,0,0,0) is x1..x5 reached by lowerings in order
    assert rep.dim == 5
    weights = sorted(rep.eps_weights)
    expect = sorted(tuple(1 if i == k else 0 for i in range(5))
                    for k in range(5))
    assert weights == expect
    # f1 x1 = x2: lowering the highest weight vector hits basis index 1
    img = rep.act(2, 1, {0: Q(1)})
    assert img == {1: Q(1)}
    # e1 f1 x1 = x1
    back = rep.act(1, 2, img)
    assert back == {0: Q(1)}


def test_dual_standard_action():
    rep = build_irrep((0, 0, 0, 1))
    assert rep.dim == 5
    # hw vector is x5*; e4 kills it, f4 x5* = -x4*
    assert rep.act(4, 5, {0: Q(1)}) == {}
    low = rep.act(5, 4, {0: Q(1)})
    assert list(low.values()) == [Q(1)]  # basis vector recorded as the image


def highest_weight_vectors(rep):
    """Indices-with-coefficients of the joint kernel of e_1..e_4.

    Returns a list of coordinate dicts; for an irreducible module this is a
    single vector supported on index 0.  Dropping the denominator of
    Irrep.mat does not change the kernel.
    """
    rows = {}
    for i in range(1, 5):
        _, cols = rep.mat(i, i + 1)
        for j in range(rep.dim):
            for r, v in cols[j].items():
                rows.setdefault((i, r), {})[j] = v
    return kernel_basis(rows.values(), list(range(rep.dim)))


def test_raising_kills_only_highest():
    for w in [(1, 1, 0, 0), (0, 0, 1, 1), (2, 0, 0, 1)]:
        rep = build_irrep(w)
        hw = highest_weight_vectors(rep)
        assert len(hw) == 1
        assert hw[0] == {0: Q(1)}


def test_diagonal_action_matches_weights():
    rep = build_irrep((0, 1, 0, 0))
    for j in range(rep.dim):
        for a in range(1, 6):
            col = rep.act(a, a, {j: Q(1)})
            ev = rep.eps_weights[j][a - 1]
            assert col == ({j: Q(ev)} if ev else {})


# F(2,0,0,0) has matrices with denominators 2, 4 and 8; the dual and
# mixed weights reach the dual factors and the wedges
MAT_WEIGHTS = ((2, 0, 0, 0), (0, 0, 0, 2), (0, 1, 1, 0), (1, 0, 0, 1))


def test_mat_matches_rational_reference():
    dens = set()
    for weight in MAT_WEIGHTS:
        rep = build_irrep(weight)
        for a in range(1, 6):
            for b in range(1, 6):
                den, cols = rep.mat(a, b)
                assert (den, cols) == ref.int_mat(rep, a, b)
                assert [{i: Q(n, den) for i, n in col.items()}
                        for col in cols] == ref.mat(rep, a, b)
                assert all(type(n) is int and n
                           for col in cols for n in col.values())
                dens.add(den)
    assert {2, 4, 8} <= dens


DOMINANT_SUM_4 = tuple(w for w in product(range(5), repeat=4) if sum(w) <= 4)


@settings(max_examples=6, deadline=None)
@given(st.sampled_from(DOMINANT_SUM_4))
def test_mat_matches_ambient_solve(weight):
    rep = build_irrep(weight)
    for a in range(1, 6):
        for b in range(1, 6):
            assert rep.mat(a, b) == ref.int_mat(rep, a, b), (weight, a, b)


def test_mat_solves_nothing(monkeypatch):
    # every matrix comes off the closure, the lowering tree and commutators
    def refuse(*args):
        raise AssertionError("Irrep.mat solved for a matrix")

    for weight in MAT_WEIGHTS + ((1, 1, 0, 1), (0, 1, 1, 1)):
        rep = Irrep(weight)
        with monkeypatch.context() as patched:
            patched.setattr(Irrep, "project", refuse)
            patched.setattr(sl5_reps, "act_ambient", refuse)
            mats = {(a, b): rep.mat(a, b)
                    for a in range(1, 6) for b in range(1, 6)}
        for (a, b), got in mats.items():
            assert got == ref.int_mat(rep, a, b), (weight, a, b)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_act_matches_rational_reference(data):
    rep = build_irrep(data.draw(st.sampled_from(MAT_WEIGHTS)))
    a, b = data.draw(st.tuples(st.integers(1, 5), st.integers(1, 5)))
    coeffs = data.draw(st.dictionaries(
        st.integers(0, rep.dim - 1),
        st.builds(Q, st.integers(-9, 9).filter(bool), st.integers(1, 9)),
        max_size=4))
    got = rep.act(a, b, coeffs)
    assert got == ref.act(rep, a, b, coeffs)
    assert all(isinstance(v, Q) and v for v in got.values())


def test_basis_vectors_are_integral():
    for weight in ((0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 1, 1),
                   (2, 0, 1, 1)):
        rep = build_irrep(weight)
        assert all(type(c) is int for v in rep.basis for c in v.values())


def test_ambient_action_commutator():
    # [e_ab, e_cd] = delta_bc e_ad - delta_da e_cb on a sample vector
    rep = build_irrep((1, 1, 0, 1))
    v = rep.basis[7]
    for (a, b, c, d) in [(1, 2, 2, 3), (2, 3, 3, 2), (1, 3, 3, 5),
                         (4, 5, 5, 4), (2, 2, 2, 3)]:
        lhs = act_ambient(a, b, act_ambient(c, d, v))
        for k, val in act_ambient(c, d, act_ambient(a, b, v)).items():
            s = lhs.get(k, 0) - val
            if s:
                lhs[k] = s
            else:
                lhs.pop(k, None)
        rhs = {}
        if b == c:
            for k, val in act_ambient(a, d, v).items():
                rhs[k] = rhs.get(k, 0) + val
        if d == a:
            for k, val in act_ambient(c, b, v).items():
                rhs[k] = rhs.get(k, 0) - val
        rhs = {k: v2 for k, v2 in rhs.items() if v2}
        assert lhs == rhs


def test_weight_parsing():
    assert parse_weight("1,0,2,3") == (1, 0, 2, 3)
    assert weight_str((1, 0, 2, 3)) == "1,0,2,3"
    assert dual_weight((1, 0, 2, 3)) == (3, 2, 0, 1)
    assert eps_to_coords((2, 1, 1, 1, 1)) == (1, 0, 0, 0)
    assert eps_to_coords((1, 0, 0, 0, -1)) == (1, 0, 0, 1)


def test_project_agrees_with_coords_in_span():
    rep = build_irrep((0, 0, 1, 1))
    for i in (0, 5, rep.dim - 1):
        assert rep.project(rep.basis[i]) == {i: Q(1)}


def test_project_kills_other_isotypic_component():
    # the alternating wedge-times-dual combination generates the second
    # summand of the (0,0,1,1) multidegree space and must project to zero
    rep = build_irrep((0, 0, 1, 1))
    v = {}
    for dw, dx, s in [(((4, 5),), (3,), 1), (((3, 5),), (4,), -1),
                      (((3, 4),), (5,), 1)]:
        v[ambient_monomial(dw=dw, dx=dx)] = Q(s)
    assert rep.project(v) == {}


def test_project_splits_monomials():
    # monomial = module component + complement component; the residue is
    # killed by a second projection
    rep = build_irrep((1, 0, 0, 1))
    mono = {ambient_monomial(x=(2,), dx=(2,)): Q(1)}
    coords = rep.project(mono)
    recon = {}
    for i, c in coords.items():
        for k, val in rep.basis[i].items():
            s = recon.get(k, 0) + c * val
            if s:
                recon[k] = s
            else:
                recon.pop(k, None)
    residue = dict(mono)
    for k, val in recon.items():
        s = residue.get(k, 0) - val
        if s:
            residue[k] = s
        else:
            residue.pop(k, None)
    assert residue and rep.project(residue) == {}


# The projection as it was before the Gram solve, kept verbatim (methods
# made functions of the irrep) as the reference for Irrep.project: it builds
# the invariant complement from the highest weight vectors of the other
# isotypic pieces and splits each weight block along it.

@lru_cache(maxsize=None)
def _profile_monomials(profile):
    """Every ambient monomial with the given per-factor degrees."""
    from itertools import combinations_with_replacement as cwr

    def exps(slots, total):
        out = []
        for combo in cwr(range(slots), total):
            e = [0] * slots
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
        return out

    return tuple((a, b, c, d)
                 for a in exps(5, profile[0])
                 for b in exps(10, profile[1])
                 for c in exps(10, profile[2])
                 for d in exps(5, profile[3]))


def ref_project(rep, vec):
    if not vec:
        return {}
    profiles = {_mono_profile(m) for m in vec}
    if len(profiles) != 1:
        raise ValueError("projection needs a single multidegree")
    prof = profiles.pop()
    if prof != rep.weight:
        raise ValueError(
            "multidegree %s does not match the realization of F%s"
            % (prof, rep.weight))
    blocks = _ref_split_blocks(rep.weight)
    split = {}
    for mono, c in vec.items():
        split.setdefault(_mono_eps_weight(mono), {})[mono] = c
    out = {}
    for wkey, part in split.items():
        combo = blocks[wkey].coords(part)
        if combo is None:
            raise AssertionError("multidegree decomposition misses a vector")
        for (kind, idx), v in combo.items():
            if kind == 0:
                _bump(out, idx, v)
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def _ref_split_blocks(weight):
    rep = build_irrep(weight)
    monos = _profile_monomials(rep.weight)
    byw = {}
    for m in monos:
        byw.setdefault(_mono_eps_weight(m), []).append(m)
    top = _mono_eps_weight(next(iter(rep.basis[0])))
    seeds = []
    for wkey, ms in byw.items():
        # highest weight vectors only live in gl-dominant blocks
        if any(wkey[i] < wkey[i + 1] for i in range(4)):
            continue
        rows = {}
        for i in range(1, 5):
            for m in ms:
                for im, v in act_ambient(i, i + 1, {m: Q(1)}).items():
                    rows.setdefault((i, im), {})[m] = v
        hws = kernel_basis(rows.values(), ms)
        if wkey == top:
            if len(hws) != 1:
                raise AssertionError(
                    "extreme weight multiplicity %d; complement is not "
                    "canonical" % len(hws))
            continue
        seeds.extend(hws)
    blocks = {}
    closure = []

    def _insert(vec, tag):
        wkey = _mono_eps_weight(next(iter(vec)))
        blk = blocks.setdefault(wkey, Echelon())
        return blk.insert(vec, tag)

    for v in seeds:
        if _insert(v, (1, len(closure))):
            closure.append(v)
    i = 0
    while i < len(closure):
        for low in range(1, 5):
            img = act_ambient(low + 1, low, closure[i])
            if img and _insert(img, (1, len(closure))):
                closure.append(img)
        i += 1
    for idx, v in enumerate(rep.basis):
        if not _insert(v, (0, idx)):
            raise AssertionError("module meets its invariant complement")
    if sum(len(b.pivots) for b in blocks.values()) != len(monos):
        raise AssertionError("isotypic decomposition misses the space")
    return blocks


PROJECT_PROFILES = ((1, 1, 1, 1), (0, 0, 2, 1), (0, 0, 3, 1), (2, 0, 1, 1),
                    (0, 2, 0, 2))


def test_project_matches_reference_on_every_monomial():
    for prof in PROJECT_PROFILES:
        rep = build_irrep(prof)
        for mono in _profile_monomials(prof):
            assert rep.project({mono: Q(1)}) == ref_project(rep, {mono: Q(1)})


@st.composite
def _profile_vectors(draw):
    prof = draw(st.sampled_from(PROJECT_PROFILES))
    monos = _profile_monomials(prof)
    picks = draw(st.lists(st.integers(0, len(monos) - 1), min_size=1,
                          max_size=6))
    vec = {}
    for i in picks:
        c = Q(draw(st.integers(-4, 4)), draw(st.integers(1, 6)))
        if c:
            vec[monos[i]] = c
    return prof, vec


@settings(max_examples=60, deadline=None)
@given(_profile_vectors())
def test_project_matches_reference_on_combinations(case):
    prof, vec = case
    rep = build_irrep(prof)
    got = rep.project(vec)
    assert got == ref_project(rep, vec)
    assert all(v and isinstance(v, Q) for v in got.values())


def _pairing(u, v):
    """<x^A, x^B> = delta_AB * A!, A! over every exponent of the monomial."""
    total = 0
    for m, c in u.items():
        if m in v:
            norm = 1
            for part in m:
                for e in part:
                    norm *= factorial(e)
            total += c * v[m] * norm
    return total


def test_monomial_form_is_contravariant():
    # x_a p_b and x_b p_a are adjoint; v runs over the image of u (where
    # the pairing is nonzero) and one unrelated monomial
    rng = random.Random(7)
    for prof in PROJECT_PROFILES:
        monos = _profile_monomials(prof)
        for u in rng.sample(monos, 30):
            for a in range(1, 6):
                for b in range(1, 6):
                    if a == b:
                        continue
                    img = act_ambient(a, b, {u: Q(1)})
                    for v in list(img) + [rng.choice(monos)]:
                        assert (_pairing(img, {v: Q(1)})
                                == _pairing({u: Q(1)},
                                            act_ambient(b, a, {v: Q(1)})))


def test_highest_weight_monomial_is_alone_in_its_weight():
    # F(lambda) occurs once in its multidegree space: the lambda weight
    # space there is the highest weight monomial alone.  Counted over every
    # monomial of the 81 profiles with coordinates <= 2; eps-weights add
    # over the four factors, so the counts are built factor by factor.
    factor_counts = {}
    for k in range(4):
        for n in range(3):
            prof = tuple(n if i == k else 0 for i in range(4))
            factor_counts[k, n] = Counter(
                _mono_eps_weight(m) for m in _profile_monomials(prof))
    for prof in [(a, b, c, d) for a in range(3) for b in range(3)
                 for c in range(3) for d in range(3)]:
        counts = Counter({(0,) * 5: 1})
        for k, n in enumerate(prof):
            nxt = Counter()
            for w1, n1 in counts.items():
                for w2, n2 in factor_counts[k, n].items():
                    nxt[tuple(x + y for x, y in zip(w1, w2))] += n1 * n2
            counts = nxt
        if max(prof) <= 1:
            assert counts == Counter(
                _mono_eps_weight(m) for m in _profile_monomials(prof))
        a, b, c, d = prof
        top = _mono_eps_weight(((a, 0, 0, 0, 0), (b,) + (0,) * 9,
                                (0,) * 9 + (c,), (0, 0, 0, 0, d)))
        assert counts[top] == 1, prof
