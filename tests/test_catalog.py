from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import kernel_refs as ref

from e510 import catalog, sl5_reps
from e510.catalog import (
    FAMILY_NAMES, COMPOSITION_IDENTITIES, _morphism_instances,
    classification_sweep, compose,
    composition_identity_reports, composition_sweep, expected_instances,
    family_data, family_morphism, known_vector, morphism_from_singular,
    MorphismTable, verify_catalog, verify_family,
)
from e510.cli import main
from e510.scalars import Q
from e510.uminus import ONE_MONO, add_scaled, d_elem, p_elem
from e510.vector_tables import W4E_TERMS, W7_TERMS, W11_TERMS
from e510.verma import VermaModule, proportional


def test_family_labels():
    assert family_data("1A", 2, 1) == ((2, 1, 0, 0), (2, 2, 0, 0), 1)
    assert family_data("1B", 1, 2) == ((1, 0, 0, 3), (2, 0, 0, 2), 1)
    assert family_data("1C", 2, 1) == ((0, 0, 3, 1), (0, 0, 2, 1), 1)
    assert family_data("2BA", 1) == ((1, 0, 0, 1), (2, 1, 0, 0), 2)
    assert family_data("2CB", n=2) == ((0, 0, 1, 3), (1, 0, 0, 2), 2)
    assert family_data("2CA") == ((0, 0, 1, 0), (0, 1, 0, 0), 2)
    assert family_data("3CBA") == ((0, 0, 1, 1), (1, 1, 0, 0), 3)
    assert family_data("4D", 2) == ((2, 0, 0, 0), (5, 0, 0, 0), 4)
    assert family_data("4E", n=1) == ((0, 0, 0, 4), (0, 0, 0, 1), 4)
    assert family_data("5CD") == ((0, 0, 1, 0), (3, 0, 0, 0), 5)
    assert family_data("5EA") == ((0, 0, 0, 3), (0, 1, 0, 0), 5)
    assert family_data("7") == ((0, 0, 0, 2), (2, 0, 0, 0), 7)
    assert family_data("11") == ((0, 0, 0, 1), (1, 0, 0, 0), 11)


def test_base_instances_singular():
    for fam in FAMILY_NAMES:
        rec = verify_family(fam)
        assert rec["ok"], rec


def test_parameter_grid():
    recs = verify_catalog()
    assert len(recs) == 45
    assert all(r["ok"] for r in recs)


def test_heights():
    # the deep vectors stay well below the maximal monomial height
    for fam, h in [("2CB", 2), ("4E", 4), ("5CD", 5), ("5EA", 5),
                   ("7", 7), ("11", 9)]:
        _, w = known_vector(fam)
        assert max(len(mono[1]) for mono, _ in w) == h


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(FAMILY_NAMES), st.integers(0, 3), st.integers(0, 3))
def test_known_vector_matches_the_reference_builders(family, m, n):
    # the term lists, summed in the module that FAMILIES names, give the
    # vectors that the hand-written builders gave, past the 0..2 grid that
    # the golden digests pin
    mod, w = known_vector(family, m, n)
    want_mod, want = ref.catalog_known_vector(family, m, n)
    assert mod.mu == want_mod.mu == family_data(family, m, n)[0]
    assert w == want


def test_table_rows_match_the_product_chain():
    # every row of the three tables, its form word ordered once against the
    # chain of pbw_product calls: the same terms in the same order
    for sign, partials, forms, _ in W4E_TERMS:
        got = catalog._table_u(sign, partials, forms)
        assert list(got.items()) \
            == list(ref.table_u(sign, partials, forms).items())
    for rows in (W7_TERMS, W11_TERMS):
        got, want = catalog._prefixed(rows), ref.prefixed(rows)
        assert len(got) == len(want) == len(rows)
        for (u, last), (u2, last2) in zip(got, want):
            assert list(u.items()) == list(u2.items()) and u
            assert last == last2


# the table words are sorted, so no row contracts d_p d_q into a p_t; random
# pair lists reach the shift of a contraction's p_t by the row's p-part
@settings(max_examples=200, deadline=None)
@given(st.sampled_from((1, -1)),
       st.lists(st.integers(0, 2), min_size=5, max_size=5).map(tuple),
       st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=7))
def test_table_u_matches_the_product_chain_on_any_word(sign, partials, pairs):
    got = catalog._table_u(sign, partials, tuple(pairs))
    want = ref.table_u(sign, partials, tuple(pairs))
    assert list(got.items()) == list(want.items())


def test_weight_reading_spans_trace_branches():
    # terms with different p-counts carry raw eps-weights in different
    # trace branches; the fundamental coordinates agree
    mod, w = known_vector("4E")
    with pytest.raises(ValueError):
        ref.element_weight(mod, w)
    assert mod.element_coords(w) == (0, 0, 0, 0)


def test_morphism_basics():
    phi = family_morphism("1A")
    assert phi.source.mu == (0, 1, 0, 0)
    assert phi.target.mu == (0, 0, 0, 0)
    assert phi.singular_vector() == known_vector("1A")[1]
    # left multiplication extends the map through the enveloping algebra
    hw = {(ONE_MONO, 0): Q(1)}
    u = d_elem(1, 3)
    lhs = phi.apply(phi.source.mult(u, hw))
    rhs = phi.target.mult(u, phi.apply(hw))
    assert lhs == rhs


def test_apply_groups_terms_by_rep_index():
    phi = family_morphism("1B")
    assert phi.source.rep.dim > 1
    elem = {}
    for j, c in ((0, Q(2, 3)), (1, Q(-5, 4))):
        add_scaled(elem, phi.source.tensor(d_elem(1, 3), {j: c}), Q(1))
        add_scaled(elem, phi.source.tensor(p_elem(2), {j: Q(1, 6)}), c)
    add_scaled(elem, {(ONE_MONO, 0): Q(1)}, Q(7))
    assert len({j for _, j in elem}) == 2 and len(elem) == 5
    want = {}
    for (mono, j), c in elem.items():
        add_scaled(want, phi.target.mult({mono: Q(1)}, phi.images[j]), c)
    got = phi.apply(elem)
    assert got and got == want
    assert all(isinstance(v, Q) and v for v in got.values())


def test_morphism_rejects_non_singular():
    mod = VermaModule((0, 0, 0, 0))
    junk = mod.tensor(d_elem(1, 3), {0: Q(1)})
    with pytest.raises(ValueError):
        morphism_from_singular(mod, junk)


def test_composition_identities():
    reps = composition_identity_reports()
    assert [r["target"] for r in reps] == [t for t, _, _ in COMPOSITION_IDENTITIES]
    assert all(r["ok"] and r["scalar"] == "1" for r in reps), reps


def test_compose_vector_is_singular_vector_of_compose():
    table = MorphismTable()
    insts = _morphism_instances()
    pairs = [(o[:3], i[:3]) for o in insts for i in insts if o[4] == i[3]]
    assert len(pairs) == 32
    for o, i in pairs:
        assert table.composite(o, i) == \
            compose(table(*o), table(*i)).singular_vector(), (o, i)


def test_compose_vector_folds_chains():
    table = MorphismTable()
    keys = ("1C", 0, 1), ("1B", 0, 0), ("1A", 1, 0)
    c, b, a = (table(*k) for k in keys)
    got = table.composite(*keys)
    assert got and got == compose(compose(c, b), a).singular_vector()
    assert proportional(known_vector("3CBA")[1], got) == Q(1)


def test_compose_vector_rejects_non_composable():
    table = MorphismTable()
    with pytest.raises(ValueError, match="not composable"):
        table.composite(("1A", 0, 0), ("4D", 0, 0))
    with pytest.raises(ValueError, match="not composable"):
        table.composite(("1C", 0, 0), ("1A", 0, 0), ("4D", 0, 0))


def test_degree_one_square_vanishes():
    outer = family_morphism("1A", m=0, n=0)
    inner = family_morphism("1A", m=0, n=1)
    assert not any(compose(outer, inner).images)


def test_composition_sweep_pattern():
    recs = composition_sweep()
    nonzero = {(tuple(r["outer"]), tuple(r["inner"])): tuple(r["matches"])
               for r in recs if not r["zero"]}
    assert nonzero == {
        (("1B", 0, 0), ("1A", 1, 0)): ("2BA", 0, 0),
        (("1C", 0, 0), ("1A", 0, 0)): ("2CA", 0, 0),
        (("1C", 0, 0), ("4D", 0, 0)): ("5CD", 0, 0),
        (("1C", 0, 1), ("1B", 0, 0)): ("2CB", 0, 0),
        (("1C", 0, 1), ("2BA", 0, 0)): ("3CBA", 0, 0),
        (("2CB", 0, 0), ("1A", 1, 0)): ("3CBA", 0, 0),
        (("4E", 0, 0), ("1A", 0, 0)): ("5EA", 0, 0),
    }


def test_complexes_builds_each_catalog_object_once(tmp_path, monkeypatch):
    # fresh irreps: no monomial coordinates kept from earlier tests
    sl5_reps.build_irrep.cache_clear()
    builds, calls = Counter(), Counter()
    known, apply, project = (catalog.known_vector,
                             catalog.VermaMorphism.apply,
                             sl5_reps.Irrep.project)

    def counted_known(family, m=0, n=0):
        builds[family, m, n] += 1
        return known(family, m, n)

    def counted_apply(self, elem):
        calls["apply"] += 1
        return apply(self, elem)

    def counted_project(self, vec):
        calls["single"] += len(vec) == 1
        return project(self, vec)

    monkeypatch.setattr(catalog, "known_vector", counted_known)
    monkeypatch.setattr(catalog.VermaMorphism, "apply", counted_apply)
    monkeypatch.setattr(sl5_reps.Irrep, "project", counted_project)
    out = tmp_path / "rep.json"
    assert main(["complexes", "--format", "json", "--output", str(out)]) == 0
    # 24 instances; 33 composite steps: the 5 two-factor identities, the
    # outer step of 3CBA (its inner one is 2BA's), the degree-1 square and
    # the 26 sweep pairs that none of those composed; 190 (irrep, ambient
    # monomial) pairs
    assert len(builds) == 24 and set(builds.values()) == {1}
    assert calls == Counter(apply=33, single=190)


def test_expected_instance_counts():
    got = Counter(fam for fam, *_ in expected_instances(3, 4))
    assert dict(got) == {"1A": 10, "1B": 6, "1C": 6, "2BA": 3, "2CB": 2,
                         "2CA": 1, "3CBA": 1, "4D": 4, "4E": 1}


def test_classification_sweep_small():
    rep = classification_sweep(2, 3)
    assert rep["ok"], (rep["unexplained"], rep["missing"])
    assert len(rep["certificates"]) == len(expected_instances(2, 3)) == 17


def test_scaled_vector_maps_to_same_morphism_ray():
    mod, w = known_vector("1C")
    phi = morphism_from_singular(mod, {k: Q(7) * c for k, c in w.items()})
    assert proportional(phi.singular_vector(), w) == Q(1, 7)
