import json
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import kernel_refs

from e510.scalars import Q, _scalars
from e510.uminus import add_scaled, d_elem, mono_weight
from e510.linalg import MatrixTooLargeError, kernel_basis
from e510.sl5_reps import ambient_monomial, eps_to_coords, is_dominant
from e510.s5_verma import S5Verma
from e510.verma import VermaModule, tensor_from_terms, proportional
from e510 import singular_search
from e510.singular_search import (
    candidate_weights, search_module, sweep, dual_pair_check,
    dominant_weights_up_to,
)


def test_candidate_weights_small():
    m = VermaModule((0, 0, 0, 1))
    cands = candidate_weights(m, 1)
    assert (1, 0, 0, 0) in cands
    assert (0, 1, 0, 1) in cands
    assert all(all(x >= 0 for x in c) for c in cands)
    assert cands == sorted(cands)


def test_search_trivial_module_degree_one():
    certs = search_module((0, 0, 0, 0), 1)
    assert len(certs) == 1
    cert = certs[0]
    assert cert["weight"] == "0,1,0,0"
    assert cert["kernel_dim"] == 1
    m = VermaModule((0, 0, 0, 0))
    v = tensor_from_terms(cert["vectors"][0])
    assert proportional(m.tensor(d_elem(1, 2), {0: Q(1)}), v)


def test_search_dual_vector_module_degree_one():
    certs = search_module((0, 0, 0, 1), 1)
    assert [c["weight"] for c in certs] == ["1,0,0,0"]
    assert certs[0]["kernel_dim"] == 1
    m = VermaModule((0, 0, 0, 1))
    w = {}
    for j in (2, 3, 4, 5):
        coeffs = m.rep.project({ambient_monomial(dx=(j,)): Q(1)})
        add_scaled(w, m.tensor(d_elem(1, j), coeffs), Q(1))
    assert proportional(w, tensor_from_terms(certs[0]["vectors"][0]))


def test_search_standard_module_degree_one():
    certs = search_module((1, 0, 0, 0), 1)
    assert [c["weight"] for c in certs] == ["1,1,0,0"]
    assert certs[0]["kernel_dim"] == 1


def test_search_degree_two_and_empty_degrees():
    certs = search_module((0, 0, 0, 1), 2)
    assert [c["weight"] for c in certs] == ["1,1,0,0"]
    assert certs[0]["kernel_dim"] == 1
    assert search_module((0, 0, 0, 1), 3) == []


def test_determinism():
    a = json.dumps(search_module((0, 0, 0, 1), 2), sort_keys=True)
    b = json.dumps(search_module((0, 0, 0, 1), 2), sort_keys=True)
    assert a == b


def test_entry_cap():
    with pytest.raises(MatrixTooLargeError):
        search_module((0, 0, 0, 1), 1, entry_cap=1)


def test_dual_pair_check():
    out = dual_pair_check((0, 0, 0, 0), 1, (0, 1, 0, 0))
    assert out["kernel_dim"] == 1
    assert out["dual_mu"] == "0,0,1,0"
    assert out["dual_weight"] == "0,0,0,0"
    assert out["dual_kernel_dim"] == 1
    assert out["consistent"]


def test_dominant_weight_grid():
    grid = dominant_weights_up_to(1)
    assert grid == [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0),
                    (0, 1, 0, 0), (1, 0, 0, 0)]
    assert len(dominant_weights_up_to(3)) == 35
    # every weight of coordinate sum <= budget, in the lexicographic order
    # that sweep visits
    for budget in range(7):
        assert dominant_weights_up_to(budget) == sorted(
            w for w in product(range(budget + 1), repeat=4)
            if sum(w) <= budget)


def test_checkpoint_bytes_are_the_json_dump_of_the_state(tmp_path,
                                                         monkeypatch):
    # every write, in a fresh run, a resumed run that recomputes a dropped
    # cell, and a --full-g1 run that overwrites the cells with certificates
    ck = tmp_path / "ck.json"
    save = singular_search._save_checkpoint
    writes = []

    def checked(path, state, encoded):
        save(path, state, encoded)
        want = json.dumps(state, sort_keys=True, indent=1)
        assert ck.read_text() == want
        writes.append(want)

    monkeypatch.setattr(singular_search, "_save_checkpoint", checked)
    mus = [(0, 0, 0, 0), (0, 0, 0, 1)]
    first = sweep(mus=mus, degrees=(1, 2), checkpoint=str(ck))
    assert len(writes) == 4 and first
    state = json.loads(ck.read_text())
    state.pop("0,0,0,1|1")
    ck.write_text(json.dumps(state))
    assert sweep(mus=mus, degrees=(1, 2), checkpoint=str(ck)) == first
    assert len(writes) == 5 and writes[-1] == writes[3]
    g1 = sweep(mus=mus, degrees=(1, 2), checkpoint=str(ck), full_g1=True)
    assert [c["full_g1"] for c in g1] == [True] * len(first)
    # one certificate in each of three cells, which are searched again
    assert len(first) == 3 and len(writes) == 8


def test_sweep_with_checkpoint(tmp_path):
    ck = tmp_path / "ck.json"
    mus = [(0, 0, 0, 0), (1, 0, 0, 0)]
    first = sweep(mus=mus, degrees=(1, 2), checkpoint=str(ck))
    assert ck.exists()
    again = sweep(mus=mus, degrees=(1, 2), checkpoint=str(ck))
    assert first == again
    state = json.loads(ck.read_text())
    assert state, "checkpoint file should record completed cells"
    # dropping one cell forces a recompute of just that cell
    state.pop(sorted(state)[0])
    ck.write_text(json.dumps(state))
    assert sweep(mus=mus, degrees=(1, 2), checkpoint=str(ck)) == first
    fresh = sweep(mus=mus, degrees=(1, 2))
    assert fresh == first


# Reference blocks and rows: the scan of every monomial against every rep
# vector that weight_blocks replaces, and the row assembly from Fraction
# images of one one-term element per column, through int_conditions, that
# condition_rows replaces.  Verbatim but for the names.

def ref_weight_blocks(self, d):
    blocks = {}
    for mono in self.monomials(d):
        mw = mono_weight(mono)
        for i, rw in enumerate(self.rep.eps_weights):
            c = eps_to_coords(tuple(x + y for x, y in zip(mw, rw)))
            if is_dominant(c):
                blocks.setdefault(c, []).append((mono, i))
    for pairs in blocks.values():
        pairs.sort()
    return blocks


def ref_condition_rows(module, block):
    rows = {}
    for j, pair in enumerate(block):
        for label, img in module.int_conditions({pair: Q(1)}):
            for key, c in _scalars(*img).items():
                rows.setdefault((label, key), {})[j] = c
    return rows


def assert_rows_match_reference(rows, ref):
    """Same rows in the same order, each a label's common multiple of ref.

    Returns label -> that multiple, a positive integer.
    """
    assert list(rows) == list(ref)
    scale = {}
    for key, row in rows.items():
        assert list(row) == list(ref[key])
        assert all(type(n) is int for n in row.values())
        for j, n in row.items():
            ratio = Fraction(n) / ref[key][j]
            assert scale.setdefault(key[0], ratio) == ratio
    assert all(r.denominator == 1 and r > 0 for r in scale.values())
    return scale


def full_condition_rows(module, block):
    """Every row of a block, keyed by (label, image key), from the label
    builders of module.condition_rows over all columns.

    Rows appear as a one-pass assembly adds them: column by column, labels
    e_1..e_4 then the POSITIVE generators within a column, and each label's
    rows in its builder's order.
    """
    columns = range(len(block))
    rank = {label: n for n, label in enumerate(
        ["e%d" % a for a in range(1, 5)] + [lab for lab, _ in module.POSITIVE])}
    rows = [((label, key), row)
            for label, build in module.condition_rows(block)
            for key, row in build(columns).items()]
    rows.sort(key=lambda kr: (next(iter(kr[1])), rank[kr[0][0]]))
    return dict(rows)


def full_singular_block(module, d, nu):
    """(block, kernel vectors) of a block: the kernel of every row over
    every column, from the row-elimination reference."""
    block = module.weight_space(d, tuple(nu))
    kern = kernel_refs.row_kernel_basis(
        list(full_condition_rows(module, block).values()),
        list(range(len(block))))
    return block, [{block[j]: c for j, c in k.items()} for k in kern]


MODULE_CLASSES = st.sampled_from((VermaModule, S5Verma))
SMALL_MUS = st.sampled_from(dominant_weights_up_to(3))


@settings(max_examples=30, deadline=None)
@given(MODULE_CLASSES, SMALL_MUS, st.integers(1, 5))
def test_weight_blocks_match_reference(cls, mu, d):
    m = cls(mu)
    assert m.weight_blocks(d) == ref_weight_blocks(m, d)


@pytest.mark.parametrize("cls, degrees", [(VermaModule, range(1, 5)),
                                         (S5Verma, range(1, 7))])
def test_weight_blocks_match_the_reference_key_order(cls, degrees):
    # same keys in the same order, same pairs in the same order
    for mu in dominant_weights_up_to(2):
        m = cls(mu)
        for d in degrees:
            assert (list(m.weight_blocks(d).items())
                    == list(ref_weight_blocks(m, d).items()))


@settings(max_examples=40, deadline=None)
@given(MODULE_CLASSES, SMALL_MUS, st.integers(1, 4), st.data())
def test_condition_rows_and_kernels_match_reference(cls, mu, d, data):
    # the label builders of condition_rows over all columns against one
    # one-term element per column through int_conditions: the same rows in
    # the same order, each a positive integer multiple per label
    m = cls(mu)
    blocks = m.weight_blocks(d)
    if not blocks:  # S5 has no monomials of odd degree
        return
    block = blocks[data.draw(st.sampled_from(sorted(blocks)))]
    rows, ref = full_condition_rows(m, block), ref_condition_rows(m, block)
    assert_rows_match_reference(rows, ref)
    columns = list(range(len(block)))
    assert kernel_basis(list(rows.values()), columns) \
        == kernel_basis(list(ref.values()), columns)


@settings(max_examples=40, deadline=None)
@given(MODULE_CLASSES, SMALL_MUS, st.integers(1, 4))
def test_condition_rows_match_the_one_term_reference(cls, mu, d):
    # every block of the degree, not one drawn block: the label builders
    # of condition_rows against one one-term element per column through
    # int_conditions, down to key order, column order and integers
    m = cls(mu)
    for block in m.weight_blocks(d).values():
        assert_rows_match_reference(full_condition_rows(m, block),
                                    ref_condition_rows(m, block))


@settings(max_examples=40, deadline=None)
@given(MODULE_CLASSES, SMALL_MUS, st.integers(1, 4),
       st.randoms(use_true_random=False))
def test_leibniz_rows_match_the_per_column_reference(cls, mu, d, rnd):
    # the one tagged pass per label against one flat image per column,
    # transposed: the same rows in the same order, each with the same
    # integers in the same column order, over every column of every block
    # and over a random subset of them, as the live columns of a peel
    m = cls(mu)
    for block in m.weight_blocks(d).values():
        every = range(len(block))
        some = sorted(rnd.sample(every, rnd.randint(1, len(block))))
        for columns in (every, some):
            for _, x in m.POSITIVE:
                got = m._leibniz_rows(block, x, columns)
                want = kernel_refs.leibniz_rows(m, block, x, columns)
                assert [(k, list(r.items())) for k, r in got.items()] \
                    == [(k, list(r.items())) for k, r in want.items()]
                assert all(type(n) is int for r in got.values()
                           for n in r.values())


def test_condition_rows_rescale_when_the_denominator_grows():
    # a classify --budget 2 cell: the x5d45 images of the three columns
    # have denominators 2, 4 and 8, so the label's rows are rescaled twice
    m = VermaModule((2, 0, 0, 0))
    block = m.weight_space(1, (1, 0, 1, 0))
    x5d45 = dict(m.POSITIVE)["x5d45"]
    assert [m.act_pieces_int(x5d45, {pair: 1})[1] for pair in block] \
        == [2, 4, 8]
    rows, ref = full_condition_rows(m, block), ref_condition_rows(m, block)
    assert assert_rows_match_reference(rows, ref)["x5d45"] == 8
    columns = list(range(len(block)))
    assert kernel_basis(list(rows.values()), columns) \
        == kernel_basis(list(ref.values()), columns) == []


KNOWN_KERNELS = [
    (VermaModule, (0, 0, 0, 0), 1, (0, 1, 0, 0)),
    (VermaModule, (0, 0, 0, 1), 2, (1, 1, 0, 0)),
    (S5Verma, (1, 0, 0, 0), 2, (0, 0, 0, 0)),
    (S5Verma, (1, 0, 0, 0), 4, (0, 0, 0, 1)),
]


@pytest.mark.parametrize("cls, mu, d, nu", KNOWN_KERNELS)
def test_condition_rows_keep_the_known_kernels(cls, mu, d, nu):
    m = cls(mu)
    block = m.weight_space(d, nu)
    rows, ref = full_condition_rows(m, block), ref_condition_rows(m, block)
    assert_rows_match_reference(rows, ref)
    columns = list(range(len(block)))
    kern = kernel_basis(list(rows.values()), columns)
    assert len(kern) == 1
    assert kern == kernel_basis(list(ref.values()), columns)


# e-kernel dimension = m(nu), the multiplicity of F(nu) in the degree-d
# component, by Brauer-Klimyk from block sizes alone:
# m(nu) = sum over w in S5 of sign(w) |block of dom(nu + rho - w rho)|.

RHO = (4, 3, 2, 1, 0)


def _sign(perm):
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


WEYL = [(_sign(p), tuple(RHO[i] for i in p)) for p in permutations(range(5))]


def brauer_klimyk(blocks, nu):
    eps = tuple(sum(nu[i:]) for i in range(4)) + (0,)
    total = 0
    for sign, wrho in WEYL:
        lam = sorted((e + r - w for e, r, w in zip(eps, RHO, wrho)),
                     reverse=True)
        total += sign * len(blocks.get(eps_to_coords(lam), ()))
    return total


def e_kernel_dim(module, block):
    rows = full_condition_rows(module, block)
    rows = [row for (label, _), row in rows.items()
            if label in ("e1", "e2", "e3", "e4")]
    return len(kernel_basis(rows, list(range(len(block)))))


@pytest.mark.parametrize("cls, mus, degrees, count", [
    (VermaModule, dominant_weights_up_to(2), range(4), 352),
    (S5Verma, dominant_weights_up_to(2), range(7), 284),
    (VermaModule, ((1, 1, 0, 1), (0, 2, 0, 2)), range(3), 76),
])
def test_e_kernel_dimension_is_the_brauer_klimyk_multiplicity(cls, mus,
                                                              degrees, count):
    checked = 0
    for mu in mus:
        m = cls(mu)
        for d in degrees:
            blocks = m.weight_blocks(d)
            for nu, block in blocks.items():
                assert e_kernel_dim(m, block) == brauer_klimyk(blocks, nu), \
                    (mu, d, nu)
                checked += 1
    assert checked == count


# Lazy assembly: singular_block builds one label's rows at a time, on the
# columns that the rows of the earlier labels leave live.

def test_peel_forces_a_chain_and_drops_rows_left_without_live_entries():
    # {0}, {0, 1}, ..., {4, 5}: each row forces one more column, in any
    # row order, and nothing is left
    chain = [{0: 2}] + [{k - 1: k + 1, k: -k} for k in range(1, 6)]
    for rows in (chain, chain[::-1]):
        forced, core = singular_search._peel(rows, 6)
        assert forced == set(range(6)) and core == []
    # the first two rows force columns 0 and 1; the third loses both of
    # its entries and leaves, the fourth is restricted to columns 2..4,
    # and the last, which lost none, is not copied
    rows = [{0: 2}, {0: 1, 1: -3}, {0: 5, 1: 7},
            {1: 1, 2: 1, 3: 1, 4: -1}, {2: 1, 3: 2}]
    forced, core = singular_search._peel(rows, 5)
    assert forced == {0, 1}
    assert core == [{2: 1, 3: 1, 4: -1}, {2: 1, 3: 2}]
    assert core[1] is rows[4]
    # no row with one entry: nothing is forced, and the rows come back
    assert singular_search._peel(core, 5) == ((), core)


def forced_columns(rows):
    """The columns the forced-zero cascade of rows forces, found by sweeping
    the rows until no row has exactly one entry outside the forced set."""
    forced, grew = set(), True
    while grew:
        grew = False
        for row in rows:
            rest = [c for c in row if c not in forced]
            if len(rest) == 1:
                forced.add(rest[0])
                grew = True
    return forced


def spy_builders(monkeypatch, cls):
    """Record every label builder call of singular_block on cls modules as
    (block, label, columns, rows), in call order."""
    calls = []
    builders = cls.condition_rows

    def spied(module, block):
        def wrap(label, build):
            def call(columns):
                columns = list(columns)
                rows = build(columns)
                calls.append((block, label, columns, rows))
                return rows
            return label, call
        return [wrap(*lb) for lb in builders(module, block)]

    monkeypatch.setattr(cls, "condition_rows", spied)
    return calls


@settings(max_examples=40, deadline=None)
@given(MODULE_CLASSES, SMALL_MUS, st.integers(1, 4), st.data())
def test_singular_block_is_the_kernel_of_the_full_rows(cls, mu, d, data):
    m = cls(mu)
    blocks = m.weight_blocks(d)
    if not blocks:
        return
    nu = data.draw(st.sampled_from(sorted(blocks)))
    block, vectors = singular_search.singular_block(m, d, nu)
    assert block == blocks[nu]
    ref_block, ref_vectors = full_singular_block(m, d, nu)
    assert block == ref_block and vectors == ref_vectors
    assert [list(v) for v in vectors] == [list(v) for v in ref_vectors]


# every rep matrix of the four known kernels has denominator 1, so these
# classify --budget 2 blocks with a kernel are added, whose x5d45 rows use
# matrices with denominators above 1
@pytest.mark.parametrize("cls, mu, d, nu", KNOWN_KERNELS + [
    (VermaModule, (0, 0, 1, 1), 1, (0, 0, 0, 1)),
    (VermaModule, (1, 0, 0, 1), 2, (2, 1, 0, 0)),
    (VermaModule, (0, 0, 2, 0), 1, (0, 0, 1, 0)),
])
def test_singular_block_keeps_the_known_kernels(cls, mu, d, nu):
    # the blocks that test_singular_block_is_the_kernel_of_the_full_rows
    # rarely draws: a kernel of dimension 1, the kernel of every row over
    # every column, key order included, and the kernel of the rows of the
    # one-term elements through int_conditions
    m = cls(mu)
    block, vectors = singular_search.singular_block(m, d, nu)
    ref_block, ref_vectors = full_singular_block(m, d, nu)
    assert len(vectors) == 1
    assert block == ref_block and vectors == ref_vectors
    assert [list(v.items()) for v in vectors] \
        == [list(v.items()) for v in ref_vectors]
    kern = kernel_refs.row_kernel_basis(
        list(ref_condition_rows(m, block).values()),
        list(range(len(block))))
    assert vectors == [{block[j]: c for j, c in k.items()} for k in kern]


def calls_by_block(calls):
    """The spied calls grouped by block, in order: (block, [(label,
    columns, rows)])."""
    groups = {}
    for block, label, columns, rows in calls:
        groups.setdefault(id(block), (block, []))[1].append(
            (label, columns, rows))
    return list(groups.values())


@pytest.mark.parametrize("cls, mus, degrees", [
    (VermaModule, dominant_weights_up_to(1), range(1, 4)),
    (S5Verma, dominant_weights_up_to(1), (2, 4)),
])
def test_builders_get_exactly_the_live_columns(monkeypatch, cls, mus,
                                               degrees):
    # labels in search order; each builder gets the columns that the
    # forced-zero cascade of the rows of the earlier labels of its block
    # leaves live, so no forced column and no fewer; and the builders stop
    # once no column is live
    order = [label for label, _ in cls.POSITIVE] + ["e4", "e3", "e2", "e1"]
    calls = spy_builders(monkeypatch, cls)
    for mu in mus:
        for d in degrees:
            singular_search.search_blocks(cls(mu), d)
    groups = calls_by_block(calls)
    assert len(groups) > 20
    stopped = 0
    for block, seq in groups:
        assert [label for label, _, _ in seq] == order[:len(seq)]
        rows = []
        for label, columns, built in seq:
            forced = forced_columns(rows)
            assert columns, label
            assert columns == [j for j in range(len(block))
                               if j not in forced], label
            rows += built.values()
        if len(seq) < len(order):
            assert len(forced_columns(rows)) == len(block)
            stopped += 1
    assert stopped


def test_lazy_assembly_builds_under_half_the_column_images(monkeypatch):
    # search --mu 0,0,0,1 --degree 11: 30 blocks, 4333 columns, so the
    # full system would build 5 x 4333 = 21665 column images
    calls = spy_builders(monkeypatch, VermaModule)
    certs = search_module((0, 0, 0, 1), 11)
    groups = calls_by_block(calls)
    assert len(groups) == 30
    assert sum(len(block) for block, _ in groups) == 4333
    built = sum(len(columns) for _, _, columns, _ in calls)
    assert built < 21665 / 2
    assert [c["kernel_dim"] for c in certs] == [1]


def test_a_block_forced_by_x5d45_never_builds_an_e_row(monkeypatch):
    # the x5d45 rows of M(1,0,0,0), degree 3, weight (0,0,1,1) force all
    # 10 columns, though the e_i rows are not empty
    m = VermaModule((1, 0, 0, 0))
    block = m.weight_space(3, (0, 0, 1, 1))
    full = full_condition_rows(m, block)
    x_rows = [row for (label, _), row in full.items() if label == "x5d45"]
    assert len(forced_columns(x_rows)) == len(block) == 10
    assert len(x_rows) < len(full)
    calls = spy_builders(monkeypatch, VermaModule)
    assert singular_search.singular_block(m, 3, (0, 0, 1, 1)) == (block, [])
    assert [(label, columns) for _, label, columns, _ in calls] \
        == [("x5d45", list(range(10)))]


# One peel per block: singular_block hands kernel_basis only the core, the
# rows its own peels leave on the live columns, and checks the entry cap on
# the rows it assembled.

def spy_kernel_basis(monkeypatch):
    """Record every (rows, column_order) that singular_block hands to
    kernel_basis, in call order."""
    handed = []
    kb = singular_search.kernel_basis

    def spied(rows, column_order, entry_cap=None):
        handed.append((rows, column_order))
        return kb(rows, column_order, entry_cap=entry_cap)

    monkeypatch.setattr(singular_search, "kernel_basis", spied)
    return handed


def test_singular_block_hands_kernel_basis_only_the_core(monkeypatch):
    # every candidate block of classify --budget 2 --max-degree 4 and of
    # the S5 baseline gives the (block, vectors) of the kernel of every row
    # over every column, key order included; kernel_basis gets each block
    # once, with rows of two or more entries in its column order, so no row
    # of what it gets forces a column
    cells = [(VermaModule, mu, d) for mu in dominant_weights_up_to(2)
             for d in range(1, 5)]
    cells += [(S5Verma, lam, d) for lam in dominant_weights_up_to(1)
              for d in (2, 4)]
    blocks = [(cls(mu), d, nu) for cls, mu, d in cells
              for nu in candidate_weights(cls(mu), d)]
    refs = [full_singular_block(*b) for b in blocks]
    handed = spy_kernel_basis(monkeypatch)
    cores = 0
    for (m, d, nu), (ref_block, ref_vectors) in zip(blocks, refs):
        handed.clear()
        block, vectors = singular_search.singular_block(m, d, nu)
        assert block == ref_block and vectors == ref_vectors, (m.mu, d, nu)
        assert [list(v) for v in vectors] == [list(v) for v in ref_vectors]
        [(rows, column_order)] = handed
        assert all(len(r) >= 2 and set(r) <= set(column_order)
                   for r in rows), (m.mu, d, nu)
        cores += bool(rows)
    assert len(blocks) > 500 and cores > 50


def test_every_core_gets_the_row_kernel(monkeypatch):
    # five modules of classify --budget 2 --max-degree 4: on each core that
    # singular_block hands over, the column kernel equals the reference
    # that eliminated rows and back-substituted, key order included
    handed = spy_kernel_basis(monkeypatch)
    for mu in ((0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1),
               (2, 0, 0, 0)):
        for d in range(1, 5):
            singular_search.search_blocks(VermaModule(mu), d)
    kernels = [(kernel_basis(rows, columns),
                kernel_refs.row_kernel_basis(rows, columns))
               for rows, columns in handed]
    for got, want in kernels:
        assert got == want
        assert [list(v.items()) for v in got] \
            == [list(v.items()) for v in want]
    assert sum(bool(rows) for rows, _ in handed) > 50
    assert sum(len(got) for got, _ in kernels) >= 5


def test_entry_cap_counts_the_assembled_rows_not_the_core(monkeypatch):
    # M(0,0,0,1), degree 11, weight (1,0,0,0): the block with a kernel;
    # the cap is met by the N entries the builders return, not by the
    # fewer entries of the core
    m = VermaModule((0, 0, 0, 1))
    nu = (1, 0, 0, 0)
    calls = spy_builders(monkeypatch, VermaModule)
    handed = spy_kernel_basis(monkeypatch)
    block, vectors = singular_search.singular_block(m, 11, nu)
    assert len(vectors) == 1
    n = sum(len(r) for _, _, _, rows in calls for r in rows.values())
    [(core, _)] = handed
    assert 0 < sum(map(len, core)) < n
    assert singular_search.singular_block(m, 11, nu, entry_cap=n) \
        == (block, vectors)
    with pytest.raises(MatrixTooLargeError,
                       match="has %d stored entries \\(cap %d\\)"
                       % (n, n - 1)):
        singular_search.singular_block(m, 11, nu, entry_cap=n - 1)
