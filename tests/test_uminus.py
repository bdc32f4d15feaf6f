import hashlib
import random
from itertools import combinations_with_replacement as cwr

from hypothesis import example, given, settings, strategies as st

import kernel_refs as ref

from e510.e510_algebra import bracket
from e510.scalars import Q
from e510.sl5_reps import act_ambient
from e510.uminus import (
    EPS, TMATE, PAIR_INDEX, PAIRS, ONE_MONO, ZERO_PARTIALS, _order_forms,
    d_elem, p_elem, forms_elem, pbw_product, add_scaled, scale,
    oriented, form_step, pair_eps, pair_mate,
    mono_degree, mono_weight, dim_u_minus, enumerate_monomials,
    parse_monomial, format_monomial,
)


def P(i, j):
    return PAIR_INDEX[(i, j)]


def test_eps_table_hand_values():
    # sign of (i,j,k,l,t) worked out by counting inversions by hand
    cases = [
        ((1, 2), (3, 4), +1, 5),
        ((1, 2), (4, 5), +1, 3),
        ((1, 2), (3, 5), -1, 4),
        ((1, 3), (2, 4), -1, 5),
        ((1, 3), (4, 5), -1, 2),
        ((1, 3), (2, 5), +1, 4),
        ((1, 4), (2, 3), +1, 5),
        ((1, 4), (2, 5), -1, 3),
        ((1, 5), (2, 3), -1, 4),
        ((1, 5), (2, 4), +1, 3),
        ((2, 3), (4, 5), +1, 1),
        ((2, 4), (3, 5), -1, 1),
        ((2, 5), (3, 4), +1, 1),
    ]
    for p, q, e, t in cases:
        assert EPS[P(*p)][P(*q)] == e
        assert TMATE[P(*p)][P(*q)] == t
        # the anticommutator is symmetric, so eps must be too
        assert EPS[P(*q)][P(*p)] == e


def test_eps_vanishes_on_shared_index():
    for p, (i, j) in enumerate(PAIRS):
        for q, (k, l) in enumerate(PAIRS):
            if len({i, j, k, l}) != 4:
                assert EPS[p][q] == 0 and TMATE[p][q] == 0


def test_dimension_series():
    # closed-form count: sum over k = #forms of C(10,k) * C((d-k)/2 + 4, 4)
    assert [dim_u_minus(d) for d in range(8)] == \
        [1, 10, 50, 170, 450, 1002, 1970, 3530]
    for d in range(8):
        monos = enumerate_monomials(d)
        assert len(monos) == dim_u_minus(d)
        assert len(set(monos)) == len(monos)
        assert all(2 * sum(m[0]) + len(m[1]) == d for m in monos)


def test_product_hand_examples():
    # d34 d12 = -d12 d34 + p5
    got = pbw_product(d_elem(3, 4), d_elem(1, 2))
    want = {((0, 0, 0, 0, 0), (P(1, 2), P(3, 4))): Q(-1),
            ((0, 0, 0, 0, 1), ()): Q(1)}
    assert got == want
    # (d12 d34) d12 = p5 d12
    got = pbw_product(forms_elem([(1, 2), (3, 4)]), d_elem(1, 2))
    assert got == {((0, 0, 0, 0, 1), (P(1, 2),)): Q(1)}
    # d45 (d12 d13) = d12 d13 d45 + p2 d12 + p3 d13
    got = pbw_product(d_elem(4, 5), forms_elem([(1, 2), (1, 3)]))
    want = {((0, 0, 0, 0, 0), (P(1, 2), P(1, 3), P(4, 5))): Q(1),
            ((0, 1, 0, 0, 0), (P(1, 2),)): Q(1),
            ((0, 0, 1, 0, 0), (P(1, 3),)): Q(1)}
    assert got == want


def test_squares_vanish_and_anticommutators():
    for p in range(10):
        dp = {(ONE_MONO[0], (p,)): Q(1)}
        assert pbw_product(dp, dp) == {}
        for q in range(10):
            dq = {(ONE_MONO[0], (q,)): Q(1)}
            acom = pbw_product(dp, dq)
            add_scaled(acom, pbw_product(dq, dp), Q(1))
            if EPS[p][q]:
                t = TMATE[p][q]
                assert acom == scale(p_elem(t), Q(EPS[p][q]))
            else:
                assert acom == {}


def test_partials_central():
    rng = random.Random(7)
    for _ in range(20):
        i = rng.randrange(1, 6)
        w = random_element(rng, 3)
        assert pbw_product(p_elem(i), w) == pbw_product(w, p_elem(i))


def random_element(rng, deg):
    out = {}
    monos = enumerate_monomials(deg)
    for mono in rng.sample(monos, min(4, len(monos))):
        add_scaled(out, {mono: Q(1)}, Q(rng.randint(-3, 3), rng.randint(1, 3)))
    return out


def test_associativity_random():
    rng = random.Random(2024)
    for _ in range(25):
        a = random_element(rng, rng.randrange(1, 4))
        b = random_element(rng, rng.randrange(1, 4))
        c = random_element(rng, rng.randrange(1, 4))
        left = pbw_product(pbw_product(a, b), c)
        right = pbw_product(a, pbw_product(b, c))
        assert left == right


def test_associativity_exhaustive_generators():
    gens = [p_elem(i) for i in range(1, 6)] + \
           [d_elem(i, j) for i, j in PAIRS]
    for a in gens[5:]:
        for b in gens:
            for c in gens[5:]:
                assert pbw_product(pbw_product(a, b), c) == \
                    pbw_product(a, pbw_product(b, c))


def test_degree_height_weight():
    mono = parse_monomial("p1^2 p3 d12 d34")
    assert mono == ((2, 0, 1, 0, 0), (P(1, 2), P(3, 4)))
    assert mono_degree(mono) == 8
    assert mono_weight(mono) == (-1, 1, 0, 1, 0)
    assert mono_weight(((0, 0, 0, 0, 0), (P(1, 2),))) == (1, 1, 0, 0, 0)


def test_parse_format_roundtrip():
    for text in ["1", "p2", "p1^2 p3 d12 d34", "d12 d13 d45", "p5^3"]:
        mono = parse_monomial(text)
        assert format_monomial(mono) == text


def test_oriented_generators():
    assert d_elem(2, 1) == scale(d_elem(1, 2), Q(-1))
    assert d_elem(3, 3) == {}


def test_generators_have_int_coefficients():
    gens = [p_elem(i) for i in range(1, 6)] + \
           [d_elem(i, j) for i in range(1, 6) for j in range(1, 6)] + \
           [forms_elem([(1, 2), (3, 4), (2, 1)]),
            forms_elem([(1, 2), (3, 4), (1, 5)])]
    for g in gens:
        assert all(type(c) is int for c in g.values())
    assert forms_elem([(1, 2), (3, 4), (1, 5)])


def test_eps_and_mate_tables_come_from_pair_rules():
    for p, pp in enumerate(PAIRS):
        for q, qq in enumerate(PAIRS):
            assert EPS[p][q] == pair_eps(pp, qq)
            assert TMATE[p][q] == (pair_mate(pp, qq) if EPS[p][q] else 0)


# The index rules that oriented and form_step replace, kept verbatim from
# sl5_reps, e510_algebra and verma as references.

def _pair_step(i, j, b, a):
    """e_ab applied to the wedge symbol with indices (i, j): list of
    ((i', j'), sign) with i' < j', empty when the image vanishes."""
    out = []
    if b == i:
        if a != j:
            out.append(((a, j), 1) if a < j else ((j, a), -1))
    if b == j:
        if a != i:
            out.append(((i, a), 1) if i < a else ((a, i), -1))
    return out


def _dual_pair_step(k, l, a, b):
    out = []
    if a == k:
        if b != l:
            out.append(((b, l), 1) if b < l else ((l, b), -1))
    if a == l:
        if b != k:
            out.append(((k, b), 1) if k < b else ((b, k), -1))
    return out


def _norm_pair(i, j):
    """((min,max) pair index, sign) of an oriented pair; None when i == j."""
    if i == j:
        return None
    if i < j:
        return PAIR_INDEX[(i, j)], 1
    return PAIR_INDEX[(j, i)], -1


def _e_on_form(a, b, f):
    """Lie derivative of d_lm by x_a p_b: list of (("d", f'), coeff)."""
    l, m = PAIRS[f]
    out = []
    if b == l:
        np = _norm_pair(a, m)
        if np:
            out.append((("d", np[0]), np[1]))
    if b == m:
        np = _norm_pair(l, a)
        if np:
            out.append((("d", np[0]), np[1]))
    return out


def _form_elem(f):
    """The single 2-form generator with pair index f, integer coefficient."""
    return {(ZERO_PARTIALS, (f,)): 1}


def _int_form(i, j):
    """dx_i ^ dx_j with an integer coefficient; dji = -dij, dii = 0."""
    if i == j:
        return {}
    if i > j:
        return {(ZERO_PARTIALS, (PAIR_INDEX[(j, i)],)): -1}
    return _form_elem(PAIR_INDEX[(i, j)])


def test_oriented_matches_references():
    for i in range(1, 6):
        for j in range(1, 6):
            assert oriented(i, j) == _norm_pair(i, j)
            assert d_elem(i, j) == _int_form(i, j)


def test_form_step_matches_references():
    for a in range(1, 6):
        for b in range(1, 6):
            for f, (i, j) in enumerate(PAIRS):
                step = form_step(a, b, f)
                assert _e_on_form(a, b, f) == \
                    ([(("d", step[0]), step[1])] if step else [])
                assert _pair_step(i, j, b, a) == \
                    ([(PAIRS[step[0]], step[1])] if step else [])
                dual = form_step(b, a, f)
                assert _dual_pair_step(i, j, a, b) == \
                    ([(PAIRS[dual[0]], dual[1])] if dual else [])


def _profile_monomials(profile):
    """Every ambient monomial with the given per-factor degrees, in the
    order the digests below were recorded in."""
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


def _digest(rows):
    h = hashlib.sha256()
    for key, out in rows:
        h.update(repr((key, sorted((k, str(v)) for k, v in out.items())))
                 .encode())
    return h.hexdigest()


def test_users_of_form_step_match_recorded_outputs():
    """act_ambient, bracket and ad(x_a p_b) on every input of a fixed range,
    against SHA-256 digests of their outputs when each module still held
    its own copy of the index rules above.  ad(x_a p_b) was ad_e_mono then
    and is act_e on M(F(0,0,0,0)) now."""
    from e510.verma import VermaModule
    trivial = VermaModule((0, 0, 0, 0))
    rows = []
    for prof in ((0, 2, 0, 0), (0, 0, 2, 0), (1, 1, 1, 1)):
        for mono in _profile_monomials(prof):
            for a in range(1, 6):
                for b in range(1, 6):
                    rows.append(((a, b, mono), act_ambient(a, b, {mono: 1})))
    assert _digest(rows) == \
        "0967052b54f6bc3f4b2309c276b9dd22a928f564fadf81b438d1bff81a918961"
    syms = ([("p", i) for i in range(1, 6)] + [("d", f) for f in range(10)]
            + [("e", a, b) for a in range(1, 6) for b in range(1, 6)]
            + [("xd", k, f) for k in range(1, 6) for f in range(10)])
    rows = [((x, y), bracket({x: 1}, {y: 1}))
            for x in syms for y in syms if {x[0], y[0]} != {"xd"}]
    assert _digest(rows) == \
        "a4b71c24106b305afd6fbbc59941e3f76f2d9b9bc464d4662d1ed9ba536a6f38"
    rows = [((a, b, mono), {m: c for (m, _), c in
                            trivial.act_e(a, b, {(mono, 0): 1}).items()})
            for d in range(5) for mono in enumerate_monomials(d)
            for a in range(1, 6) for b in range(1, 6)]
    assert _digest(rows) == \
        "f173e5a63871e365ab78749c7c42888e8aab2652c366cce5bf481ac51c8d1f1f"


def _ref_generator(g):
    """A generator with Fraction coefficients: ("p", i) or ("d", i, j)."""
    if g[0] == "p":
        parts = [0] * 5
        parts[g[1] - 1] = 1
        return {(tuple(parts), ()): Q(1)}
    _, i, j = g
    if i == j:
        return {}
    if i > j:
        return {(ZERO_PARTIALS, (PAIR_INDEX[(j, i)],)): Q(-1)}
    return {(ZERO_PARTIALS, (PAIR_INDEX[(i, j)],)): Q(1)}


GENERATORS = st.one_of(
    st.tuples(st.just("p"), st.integers(1, 5)),
    st.tuples(st.just("d"), st.integers(1, 5), st.integers(1, 5)))


@settings(max_examples=60, deadline=None)
@given(st.lists(GENERATORS, min_size=1, max_size=7))
def test_integer_words_match_fraction_reference(word):
    got = {ONE_MONO: 1}
    ref = {ONE_MONO: Q(1)}
    for g in word:
        got = pbw_product(got, p_elem(g[1]) if g[0] == "p" else d_elem(*g[1:]))
        ref = pbw_product(ref, _ref_generator(g))
    assert got == ref
    assert all(type(c) is int for c in got.values())


SORTED_WORDS = st.sets(st.integers(0, 9)).map(lambda s: tuple(sorted(s)))
WORDS = st.lists(st.integers(0, 9), max_size=8).map(tuple)


@settings(max_examples=300, deadline=None)
@given(SORTED_WORDS, WORDS)
@example((), ())
@example((3,), ())
@example((), (9, 0, 7, 0))
@example((0,), (0,))
@example((7,), (0,))
@example((0, 4, 7, 9), (9, 8, 1, 7, 2))
def test_order_forms_matches_two_recursion_reference(left, right):
    """The one recursion against the insert-then-order pair it replaced:
    sorted left, any right word (unsorted, d_f d_f = 0, contractions, empty),
    and the delta is ZERO_PARTIALS itself exactly when no p_t appeared."""
    got = _order_forms(left, right)
    assert dict(got) == dict(ref.order_forms(left, right))
    for (dp, _), c in got:
        assert c
        assert (dp is ZERO_PARTIALS) == (not any(dp))


SMALL_MONOS = [m for d in range(5) for m in enumerate_monomials(d)]
INT_ELEMS = st.dictionaries(st.sampled_from(SMALL_MONOS),
                            st.integers(-6, 6).filter(bool), max_size=5)
Q_ELEMS = st.dictionaries(
    st.sampled_from(SMALL_MONOS),
    st.builds(Q, st.integers(-6, 6).filter(bool), st.integers(1, 6)),
    max_size=5)


@settings(max_examples=150, deadline=None)
@given(st.one_of(INT_ELEMS, Q_ELEMS), st.one_of(INT_ELEMS, Q_ELEMS))
def test_pbw_product_matches_mono_product_loop(a, b):
    got = pbw_product(a, b)
    want = ref.pbw_product(a, b)
    assert got == want
    # the same coefficient types: ints from int elements, exact scalars
    # as soon as one factor holds one
    assert [type(got[m]) for m in want] == [type(c) for c in want.values()]
    if all(type(c) is int for c in (*a.values(), *b.values())):
        assert all(type(c) is int for c in got.values())
