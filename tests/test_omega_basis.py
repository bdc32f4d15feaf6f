"""Oracle tests for the antisymmetrized form basis and morphism coefficients."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import kernel_refs as ref
from e510 import omega_basis
from e510.catalog import FAMILY_NAMES, known_vector
from e510.scalars import Q
from e510.uminus import PAIR_INDEX, add_scaled, d_elem, forms_elem, p_elem, pbw_product
from e510.omega_basis import (
    commutator_identity_residual,
    crossing_number,
    dw_product_residual,
    equivariance_residual,
    fundamental_equation_residuals,
    omega,
    omega_direct,
    omega_recursive,
    omega_removed,
    omega_symmetrized,
    equivariant_family,
    reconstruct_theta,
    ricomega_residual,
    sif_sets,
)
from e510.verma import VermaModule


def elem_diff(a, b):
    out = dict(a)
    add_scaled(out, b, Q(-1))
    return out


def combo(*terms):
    out = {}
    for c, e in terms:
        add_scaled(out, e, Q(c) if isinstance(c, int) else c)
    return out


def all_keys(d):
    from itertools import combinations

    return [tuple(k) for k in combinations(range(10), d)]


def shuffled(pairs, rng):
    """Reorder and reorient an index tuple, returning (tuple, sign vs input)."""
    pairs = list(pairs)
    sign = 1
    order = list(range(len(pairs)))
    rng.shuffle(order)
    sign *= 1 if _perm_sign(order) > 0 else -1
    out = []
    for k in order:
        i, j = pairs[k]
        if rng.random() < 0.5:
            i, j = j, i
            sign = -sign
        out.append((i, j))
    return tuple(out), sign


def _perm_sign(order):
    inv = sum(1 for a in range(len(order)) for b in range(a + 1, len(order))
              if order[a] > order[b])
    return -1 if inv & 1 else 1


def test_sif_sets_and_crossings():
    assert sif_sets(0) == ((),)
    assert sorted(sif_sets(2)) == [(), ((1, 2),)]
    # matchings of 4 points: empty, six single edges, three full matchings
    assert len(sif_sets(4)) == 10
    assert crossing_number(((1, 3), (2, 5))) == 1
    assert crossing_number(((1, 2), (3, 4))) == 0
    assert crossing_number(((1, 4), (2, 3))) == 0
    assert crossing_number(((1, 3), (2, 4))) == 1


def test_omega_hand_values():
    assert omega_direct(((1, 2),)) == d_elem(1, 2)
    expect = combo((1, forms_elem(((1, 2), (3, 4)))), (Q(-1, 2), p_elem(5)))
    assert omega_direct(((1, 2), (3, 4))) == expect
    # pairs sharing an index contribute no partial correction
    assert omega_direct(((1, 2), (1, 3))) == forms_elem(((1, 2), (1, 3)))
    expect3 = combo(
        (1, forms_elem(((1, 2), (1, 5), (3, 4)))),
        (Q(1, 2), pbw_product(p_elem(2), d_elem(1, 2))),
        (Q(1, 2), pbw_product(p_elem(5), d_elem(1, 5))),
    )
    assert omega_direct(((1, 2), (1, 5), (3, 4))) == expect3
    assert omega(((1, 2), (1, 5), (3, 4))) == expect3


def test_omega_degenerate_and_antisymmetry():
    assert omega(((1, 2), (1, 2))) == {}
    assert omega(((1, 2), (2, 1))) == {}
    base = omega(((1, 2), (3, 4), (2, 5)))
    swapped = omega(((3, 4), (1, 2), (2, 5)))
    reversed_pair = omega(((1, 2), (4, 3), (2, 5)))
    assert swapped == {k: -v for k, v in base.items()}
    assert reversed_pair == {k: -v for k, v in base.items()}


def test_routes_agree_small():
    from e510.uminus import PAIRS

    rng = random.Random(5)
    for d in (1, 2, 3):
        for key in all_keys(d):
            pairs = tuple(PAIRS[f] for f in key)
            a = omega_direct(pairs)
            assert a == omega(pairs)
            assert a == omega_recursive(pairs)
            assert a == omega_symmetrized(pairs)
    for _ in range(25):
        key = tuple(sorted(rng.sample(range(10), 4)))
        pairs, _ = shuffled([PAIRS[f] for f in key], rng)
        a = omega_direct(pairs)
        assert a == omega(pairs)
        assert a == omega_recursive(pairs)
        assert a == omega_symmetrized(pairs)


def test_routes_agree_random_larger():
    from e510.uminus import PAIRS

    rng = random.Random(11)
    for _ in range(40):
        d = rng.randint(5, 8)
        key = tuple(sorted(rng.sample(range(10), d)))
        pairs, _ = shuffled([PAIRS[f] for f in key], rng)
        a = omega_direct(pairs)
        assert a == omega(pairs)
        assert a == omega_symmetrized(pairs)
    # the factored evaluation matches the literal permutation sum
    key = (0, 2, 5, 8, 9)
    pairs = tuple(PAIRS[f] for f in key)
    assert omega_symmetrized(pairs) == omega_recursive(pairs)


def test_omega_removed():
    got = omega_removed(((1, 2), (2, 4), (3, 5), (5, 4)), ((2, 4), (4, 5)))
    assert got == omega(((1, 2), (3, 5)))
    # removal of an absent pair gives zero
    assert omega_removed(((1, 2), (3, 4)), ((1, 5),)) == {}
    # reversing an argument pair flips the sign
    flip = omega_removed(((1, 2), (2, 4), (3, 5), (5, 4)), ((4, 2), (4, 5)))
    assert flip == {k: -v for k, v in got.items()}


def test_ricomega_and_product_lemma():
    from e510.uminus import PAIRS

    rng = random.Random(23)
    for d in (2, 3):
        for key in all_keys(d):
            assert ricomega_residual(tuple(PAIRS[f] for f in key)) == {}
    for _ in range(30):
        d = rng.randint(4, 6)
        key = tuple(sorted(rng.sample(range(10), d)))
        pairs, _ = shuffled([PAIRS[f] for f in key], rng)
        assert ricomega_residual(pairs) == {}
    for key in all_keys(2) + all_keys(3):
        pairs = tuple(PAIRS[f] for f in key)
        for (i, j) in PAIRS:
            assert dw_product_residual(i, j, pairs) == {}
    for _ in range(20):
        key = tuple(sorted(rng.sample(range(10), 4)))
        pairs, _ = shuffled([PAIRS[f] for f in key], rng)
        i, j = PAIRS[rng.randrange(10)]
        assert dw_product_residual(i, j, pairs) == {}


def test_equivariance():
    from e510.uminus import PAIRS

    rng = random.Random(31)
    for _ in range(40):
        d = rng.randint(1, 5)
        key = tuple(sorted(rng.sample(range(10), d)))
        pairs, _ = shuffled([PAIRS[f] for f in key], rng)
        a = rng.randint(1, 5)
        b = rng.choice([x for x in range(1, 6) if x != a])
        assert equivariance_residual(a, b, pairs) == {}


def test_seven_form_expansion():
    # a single height-7 product expands over the corrected basis with
    # the same coefficients that appear in the degree-7 coefficient chain
    i0 = ((1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (3, 5), (4, 5))
    lhs = {k: 4 * v for k, v in forms_elem(i0).items()}
    rhs = combo(
        (4, omega(i0)),
        (-2, pbw_product(p_elem(2), omega(((1, 2), (1, 4), (1, 5), (2, 5), (3, 5))))),
        (2, pbw_product(p_elem(2), omega(((1, 2), (1, 3), (1, 5), (2, 5), (4, 5))))),
        (-2, pbw_product(p_elem(3), omega(((1, 3), (1, 4), (1, 5), (2, 5), (3, 5))))),
        (2, pbw_product(p_elem(3), omega(((1, 2), (1, 3), (1, 5), (3, 5), (4, 5))))),
        (-2, pbw_product(p_elem(4), omega(((1, 3), (1, 4), (1, 5), (2, 5), (4, 5))))),
        (2, pbw_product(p_elem(4), omega(((1, 2), (1, 4), (1, 5), (3, 5), (4, 5))))),
        (-1, pbw_product(pbw_product(p_elem(2), p_elem(2)),
                         omega(((1, 2), (1, 5), (2, 5))))),
        (-1, pbw_product(pbw_product(p_elem(2), p_elem(3)),
                         omega(((1, 3), (1, 5), (2, 5))))),
        (-1, pbw_product(pbw_product(p_elem(2), p_elem(3)),
                         omega(((1, 2), (1, 5), (3, 5))))),
        (-1, pbw_product(pbw_product(p_elem(3), p_elem(3)),
                         omega(((1, 3), (1, 5), (3, 5))))),
        (-1, pbw_product(pbw_product(p_elem(2), p_elem(4)),
                         omega(((1, 4), (1, 5), (2, 5))))),
        (-1, pbw_product(pbw_product(p_elem(2), p_elem(4)),
                         omega(((1, 2), (1, 5), (4, 5))))),
        (-1, pbw_product(pbw_product(p_elem(3), p_elem(4)),
                         omega(((1, 4), (1, 5), (3, 5))))),
        (-1, pbw_product(pbw_product(p_elem(3), p_elem(4)),
                         omega(((1, 3), (1, 5), (4, 5))))),
        (-1, pbw_product(pbw_product(p_elem(4), p_elem(4)),
                         omega(((1, 4), (1, 5), (4, 5))))),
    )
    assert elem_diff(lhs, rhs) == {}


def pbw_to_omega(u):
    """Coefficients of a U(g_-) element over {partials^R * omega_I}."""
    return {k: coords[0] for k, coords in omega_basis._expand_partial_omega(
        {(m, 0): c for m, c in u.items()}).items()}


def omega_to_pbw(coeffs):
    out = {}
    for (rs, key), c in coeffs.items():
        parts = tuple(rs.count(r) for r in range(1, 6))
        add_scaled(out, omega_basis._partial_omega_elem(parts, key), c)
    return out


def test_pbw_omega_roundtrip():
    from e510.uminus import enumerate_monomials

    got = pbw_to_omega(forms_elem(((1, 2), (3, 4))))
    assert got == {((), (PAIR_INDEX[(1, 2)], PAIR_INDEX[(3, 4)])): Q(1),
                   ((5,), ()): Q(1, 2)}
    assert pbw_to_omega(p_elem(5)) == {((5,), ()): Q(1)}
    rng = random.Random(41)
    monos = enumerate_monomials(5)
    elem = {m: Q(rng.randint(-9, 9)) for m in rng.sample(monos, 40)}
    elem = {m: c for m, c in elem.items() if c}
    coeffs = pbw_to_omega(elem)
    assert omega_to_pbw(coeffs) == elem


def test_commutator_identity_examples():
    mod_triv = VermaModule((0, 0, 0, 0))
    assert commutator_identity_residual(5, 4, ((1, 2),), mod_triv) == {}
    mod_vec = VermaModule((1, 0, 0, 0))
    assert commutator_identity_residual(
        5, 4, ((1, 2), (2, 3), (3, 1)), mod_vec) == {}


def test_commutator_identity_sweep():
    rng = random.Random(53)
    mod = VermaModule((0, 0, 0, 1))
    cases = [((1, 2), (3, 4)), ((2, 5), (1, 3), (1, 4)),
             ((1, 2), (2, 3), (3, 1)), ((4, 5), (2, 3))]
    for p in range(1, 6):
        for q in range(1, 6):
            if p == q:
                continue
            i = cases[rng.randrange(len(cases))]
            assert commutator_identity_residual(p, q, i, mod) == {}
    # stronger probe: the identity as operators on a degree-1 element
    elem = mod.tensor(d_elem(1, 4), {2: Q(1)})
    add_scaled(elem, mod.tensor(p_elem(2), {0: Q(1)}), Q(3))
    assert commutator_identity_residual(
        5, 4, ((1, 2), (2, 3), (3, 1)), mod, elems=[elem]) == {}
    assert commutator_identity_residual(
        2, 4, ((1, 5), (2, 3), (2, 5)), mod, elems=[elem]) == {}


def test_reconstruct_theta_basic():
    mod = VermaModule((0, 0, 0, 0))
    w = mod.tensor(d_elem(1, 2), {0: Q(1)})
    theta = reconstruct_theta(mod, w)
    assert theta.degree == 1
    assert theta.rep_in.weight == (0, 1, 0, 0)
    assert theta.value((), ((1, 2),), 0) == {0: Q(1)}
    # the lowering f2 sends the top pair basis line to the (1,3) line
    idx13 = next(j for j in range(theta.rep_in.dim)
                 if theta.rep_in.parents[j] == (0, 2))
    assert theta.value((), ((1, 3),), idx13) == {0: Q(1)}
    assert theta.value((), ((1, 3),), 0) == {}
    bad = mod.tensor(p_elem(1), {0: Q(1)})
    with pytest.raises(ValueError):
        reconstruct_theta(mod, bad)


def test_equivariance_check_rejects_non_highest_vector():
    # d13 (x) v_(e2) has the dominant weight (0,0,1,0) but is not sl5-highest
    # (e1 sends it to d13 (x) v_(e1)); with check=False only the
    # equivariance check stands between it and a morphism table
    mod = VermaModule((1, 0, 0, 0))
    j = mod.rep.eps_weights.index((0, 1, 0, 0, 0))
    w = mod.tensor(d_elem(1, 3), {j: Q(1)})
    assert tuple(mod.element_coords(w)) == (0, 0, 1, 0)
    assert not mod.is_singular(w)
    with pytest.raises(ValueError, match="does not generate an equivariant"):
        equivariant_family(mod, w, check=False)
    # the highest vector d12 (x) v_(e1) of the same module passes it
    good = mod.tensor(d_elem(1, 2), {0: Q(1)})
    rep_in, images = equivariant_family(mod, good, check=False)
    assert rep_in.weight == (1, 1, 0, 0) and len(images) == rep_in.dim > 1


def _family_outcome(family_of, mod, w):
    """(weight, images) of an accepted family, the message of a rejected one."""
    try:
        rep_in, images = family_of(mod, w, check=False)
    except ValueError as exc:
        return str(exc)
    return rep_in.weight, images


def _perturbed(mod, w, pick, c):
    """w plus c times one basis pair of its weight block."""
    block = mod.weight_space(mod.element_degree(w), mod.element_coords(w))
    v = dict(w)
    add_scaled(v, {block[pick % len(block)]: Q(1)}, c)
    return v


def test_equivariance_check_matches_reference_on_every_family():
    # each catalog vector is accepted, and moving it by a basis pair of its
    # weight block makes both checks reject it alike, unless the block is a
    # line (1A, 4D), where the move only rescales it
    for fam in FAMILY_NAMES:
        mod, w = known_vector(fam)
        got = _family_outcome(equivariant_family, mod, w)
        assert got == _family_outcome(ref.equivariant_family, mod, w)
        assert got[0] == tuple(mod.element_coords(w))
        block = mod.weight_space(mod.element_degree(w), mod.element_coords(w))
        bad = _perturbed(mod, w, 0, Q(1))
        got = _family_outcome(equivariant_family, mod, bad)
        assert got == _family_outcome(ref.equivariant_family, mod, bad)
        assert ((got == "vector does not generate an equivariant family")
                == (len(block) > 1)), fam


def test_equivariance_check_applies_all_eight_simple_operators(monkeypatch):
    seen = Counter()
    inner = omega_basis._act_e_terms

    def counted(a, b, enums, mat):
        seen[a, b] += 1
        return inner(a, b, enums, mat)

    monkeypatch.setattr(omega_basis, "_act_e_terms", counted)
    mod, w = known_vector("3CBA")
    rep_in, _ = equivariant_family(mod, w, check=False)
    simple = [(a, a + 1) for a in range(1, 5)] + [(a + 1, a)
                                                 for a in range(1, 5)]
    assert seen == Counter({op: rep_in.dim for op in simple})


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FAMILY_NAMES), st.integers(0, 10 ** 6),
       st.fractions(-3, 3, max_denominator=4))
def test_equivariance_check_matches_act_e_int_reference(fam, pick, c):
    mod, w = known_vector(fam)
    v = _perturbed(mod, w, pick, Q(c.numerator, c.denominator))
    assert (_family_outcome(equivariant_family, mod, v)
            == _family_outcome(ref.equivariant_family, mod, v))


def test_reconstruct_theta_four_forms():
    mod = VermaModule((0, 0, 0, 0))
    w = mod.tensor(forms_elem(((1, 2), (1, 3), (1, 4), (1, 5))), {0: Q(1)})
    theta = reconstruct_theta(mod, w)
    assert theta.rep_in.weight == (3, 0, 0, 0)
    key0 = tuple(PAIR_INDEX[p] for p in ((1, 2), (1, 3), (1, 4), (1, 5)))
    # on the highest weight column only the defining index survives
    for (rs, key), cols in theta.maps.items():
        col0 = cols.get(0)
        if col0:
            assert (rs, key) == ((), key0)
    assert theta.value((), ((1, 2), (1, 3), (1, 4), (1, 5)), 0) == {0: Q(1)}


def test_fundamental_equations_low_degree():
    mod = VermaModule((0, 0, 0, 0))
    theta1 = reconstruct_theta(mod, mod.tensor(d_elem(1, 2), {0: Q(1)}))
    assert fundamental_equation_residuals(theta1) == []
    theta4 = reconstruct_theta(
        mod, mod.tensor(forms_elem(((1, 2), (1, 3), (1, 4), (1, 5))), {0: Q(1)}))
    assert fundamental_equation_residuals(theta4) == []


def test_fundamental_equations_detect_fake():
    # a raising-closed but not fully singular vector must leave a residue
    mod = VermaModule((0, 0, 0, 1))
    w = mod.tensor(d_elem(1, 2), {0: Q(1)})
    assert mod.is_singular(w) is False
    theta = reconstruct_theta(mod, w, check=False)
    assert fundamental_equation_residuals(theta) != []
