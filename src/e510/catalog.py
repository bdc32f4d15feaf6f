"""The classification catalog: known singular vectors and their morphisms.

Thirteen families of singular vectors cover every degenerate finite Verma
module.  The formulas here are transcribed data.  Each family's builder
takes the module M(mu) for the mu that FAMILIES states and writes its
element there as one list of (u, factors) terms, u in U(g_-) and factors
an ambient monomial of F(mu), summed by InducedModule.tensor_sum; 5EA is
d12 times the 4E element of the same module.  The three largest term
tables live in vector_tables.  Verification (exact singularity checks,
weight and degree agreement, composition identities, and the
classification sweep diff) is what the tests run.
"""

from .linalg import DEFAULT_ENTRY_CAP
from .sl5_reps import parse_weight, weight_str
from .uminus import PAIRS, d_elem, forms_elem, pbw_product
from .verma import VermaModule, proportional, tensor_from_terms

_PREFIX = ((1, 2), (1, 3), (1, 4), (1, 5))


def _table_u(sign, partials, forms):
    """sign * p^partials * d_forms, the U(g_-) part of a table row."""
    return pbw_product({(partials, ()): sign}, forms_elem(forms))


def _prefixed(rows):
    """(d12 d13 d14 d15 times the U(g_-) part, last entry) of each row of a
    degree-7 or degree-11 table."""
    pre = forms_elem(_PREFIX)
    return [(pbw_product(pre, _table_u(sign, partials, forms)), last)
            for sign, partials, forms, last in rows]


def _w_1a(mod, m, n):
    return mod.tensor_sum([(d_elem(1, 2), dict(x=(1,) * m, w=((1, 2),) * n))])


def _w_1b(mod, m, n):
    return mod.tensor_sum([(d_elem(1, j), dict(x=(1,) * m, dx=(j,) + (5,) * n))
                           for j in (2, 3, 4, 5)])


def _w_1c(mod, m, n):
    return mod.tensor_sum([(d_elem(i, j), dict(dw=((i, j),) + ((4, 5),) * m,
                                               dx=(5,) * n))
                           for i, j in PAIRS])


def _w_2ba(mod, m, n):
    return mod.tensor_sum([(forms_elem(((1, 2), (1, j))),
                            dict(x=(1,) * m, dx=(j,))) for j in (2, 3, 4, 5)])


def _w_2cb(mod, m, n):
    return mod.tensor_sum([(forms_elem(((1, j), (h, k))),
                            dict(dw=((h, k),), dx=(j,) + (5,) * n))
                           for j in (2, 3, 4, 5) for h, k in PAIRS])


def _w_2ca(mod, m, n):
    return mod.tensor_sum([(forms_elem(((1, 2), (i, j))), dict(dw=((i, j),)))
                           for i, j in PAIRS])


def _w_3cba(mod, m, n):
    return mod.tensor_sum([(forms_elem(((1, 2), (1, j), (k, l))),
                            dict(dx=(j,), dw=((k, l),)))
                           for j in (2, 3, 4, 5) for k, l in PAIRS])


def _w_4d(mod, m, n):
    return mod.tensor_sum([(forms_elem(_PREFIX), dict(x=(1,) * m))])


def _w_4e(mod, m, n):
    from .vector_tables import W4E_TERMS
    # fexp = (e1, .., e4, k) stands for f1^e1 .. f4^e4 f5^(k + n)
    return mod.tensor_sum([
        (_table_u(sign, partials, forms),
         dict(dx=sum(((i,) * e for i, e in enumerate(fexp, 1)), (5,) * n)))
        for sign, partials, forms, fexp in W4E_TERMS])


def _w_5cd(mod, m, n):
    # the sum runs over every pair avoiding index 1; the factors through
    # the degree-1 and degree-4 vectors confirm this normalization
    pre = forms_elem(_PREFIX)
    return mod.tensor_sum([(pbw_product(pre, d_elem(i, j)), dict(dw=((i, j),)))
                           for i, j in PAIRS])


def _w_5ea(mod, m, n):
    return mod.mult(d_elem(1, 2), _w_4e(mod, 0, 0))


def _w_7(mod, m, n):
    from .vector_tables import W7_TERMS
    return mod.tensor_sum([(u, dict(dx=pair))
                           for u, pair in _prefixed(W7_TERMS)])


def _w_11(mod, m, n):
    from .vector_tables import W11_TERMS
    return mod.tensor_sum([(u, dict(dx=(i,)))
                           for u, i in _prefixed(W11_TERMS)])


# family -> (parameters used, builder, (mu, lam, degree) as functions of m, n)
FAMILIES = {
    "1A": (("m", "n"), _w_1a,
           lambda m, n: ((m, n, 0, 0), (m, n + 1, 0, 0), 1)),
    "1B": (("m", "n"), _w_1b,
           lambda m, n: ((m, 0, 0, n + 1), (m + 1, 0, 0, n), 1)),
    "1C": (("m", "n"), _w_1c,
           lambda m, n: ((0, 0, m + 1, n), (0, 0, m, n), 1)),
    "2BA": (("m",), _w_2ba,
            lambda m, n: ((m, 0, 0, 1), (m + 1, 1, 0, 0), 2)),
    "2CB": (("n",), _w_2cb,
            lambda m, n: ((0, 0, 1, n + 1), (1, 0, 0, n), 2)),
    "2CA": ((), _w_2ca,
            lambda m, n: ((0, 0, 1, 0), (0, 1, 0, 0), 2)),
    "3CBA": ((), _w_3cba,
             lambda m, n: ((0, 0, 1, 1), (1, 1, 0, 0), 3)),
    "4D": (("m",), _w_4d,
           lambda m, n: ((m, 0, 0, 0), (m + 3, 0, 0, 0), 4)),
    "4E": (("n",), _w_4e,
           lambda m, n: ((0, 0, 0, n + 3), (0, 0, 0, n), 4)),
    "5CD": ((), _w_5cd,
            lambda m, n: ((0, 0, 1, 0), (3, 0, 0, 0), 5)),
    "5EA": ((), _w_5ea,
            lambda m, n: ((0, 0, 0, 3), (0, 1, 0, 0), 5)),
    "7": ((), _w_7,
          lambda m, n: ((0, 0, 0, 2), (2, 0, 0, 0), 7)),
    "11": ((), _w_11,
           lambda m, n: ((0, 0, 0, 1), (1, 0, 0, 0), 11)),
}

FAMILY_NAMES = tuple(FAMILIES)


def family_data(family, m=0, n=0):
    """Expected (mu, lam, degree) for a family instance."""
    return FAMILIES[family][2](m, n)


def known_vector(family, m=0, n=0):
    """The catalog singular vector; returns (module, element).

    The module is M(mu) for the mu of family_data, and the builder writes
    the element in it; a parameter the family does not take is ignored.
    """
    mod = VermaModule(family_data(family, m, n)[0])
    return mod, FAMILIES[family][1](mod, m, n)


def verify_family(family, m=0, n=0, full_g1=True):
    """Check one catalog instance: nonzero, right labels, singular."""
    mu, lam, deg = family_data(family, m, n)
    mod, w = known_vector(family, m, n)
    rec = {
        "family": family,
        "m": m,
        "n": n,
        "mu": weight_str(mu),
        "weight": weight_str(lam),
        "degree": deg,
    }
    ok = (bool(w) and mod.element_degree(w) == deg
          and tuple(mod.element_coords(w)) == tuple(lam))
    if ok:
        rec["height"] = max(len(mono[1]) for mono, _ in w)
        ok = mod.is_singular(w, full_g1=full_g1)
    rec["ok"] = bool(ok)
    return rec


def _param_grid(params, m_values, n_values):
    ms = m_values if "m" in params else (0,)
    ns = n_values if "n" in params else (0,)
    for m in ms:
        for n in ns:
            yield m, n


def verify_catalog(families=FAMILY_NAMES, m_values=(0, 1, 2),
                   n_values=(0, 1, 2), full_g1=True):
    """Verify every requested family over its parameter grid."""
    out = []
    for fam in families:
        params = FAMILIES[fam][0]
        for m, n in _param_grid(params, m_values, n_values):
            out.append(verify_family(fam, m, n, full_g1=full_g1))
    return out


class VermaMorphism:
    """A module map M(source) -> M(target) fixed by a singular vector.

    images[j] is the value on 1 (x) v_j for the j-th basis vector of the
    source coefficient module; the map extends by left multiplication.
    """

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = images

    def apply(self, elem):
        """Sum over j of u_j * images[j], u_j the part of elem along v_j."""
        parts = {}
        for (mono, j), c in elem.items():
            parts.setdefault(j, {})[mono] = c
        return self.target.mult_sum(
            [(u, self.images[j]) for j, u in parts.items()])

    def singular_vector(self):
        return self.images[0]


def morphism_from_singular(module, w, check=True):
    """Build the morphism evaluator for a singular vector.

    The image table applies to w the same lowering words that build the
    source basis from its highest weight vector; equivariance and
    annihilation by the whole degree +1 part are verified on every image.
    """
    from .omega_basis import equivariant_family
    rep_in, images = equivariant_family(module, w, check=check)
    if check and any(map(module.g1_failure, images)):
        raise ValueError("image not annihilated by degree +1 part")
    return VermaMorphism(VermaModule(rep_in.weight), module, images)


def _check_composable(factors):
    for outer, inner in zip(factors, factors[1:]):
        if outer.source.mu != inner.target.mu:
            raise ValueError("morphisms are not composable")


def compose(outer, inner):
    """outer o inner; defined when inner's target is outer's source.

    Applies outer to every image of inner, one product per source basis
    vector; MorphismTable.composite computes only the singular vector.
    """
    _check_composable((outer, inner))
    return VermaMorphism(inner.source, outer.target,
                         [outer.apply(im) for im in inner.images])


def family_morphism(family, m=0, n=0, check=True, vector=None):
    """The morphism of a catalog instance.

    vector(family, m, n) gives its (module, singular vector): known_vector
    by default, a MorphismTable's stored vectors when the table builds it.
    """
    mod, w = (vector or known_vector)(family, m, n)
    return morphism_from_singular(mod, w, check=check)


class MorphismTable:
    """One run's catalog objects, each built once and shared, not copied.

    table(family, m, n) is the morphism of an instance (checked when check
    is set, as morphism_from_singular checks), table.vector(family, m, n)
    its (module, singular vector), and table.composite(*keys) the singular
    vector of a composite, keys the instances (family, m, n) of its
    factors, outermost first.  A composite is its outer factor applied to
    the composite of the other factors, so each composite step is taken
    once however many chains end in it.  Callers only read what the table
    returns.
    """

    def __init__(self, check=False):
        self.check = check
        self._morphisms, self._vectors, self._composites = {}, {}, {}

    def __call__(self, fam, m=0, n=0):
        key = (fam, m, n)
        got = self._morphisms.get(key)
        if got is None:
            got = self._morphisms[key] = family_morphism(
                fam, m, n, check=self.check, vector=self.vector)
        return got

    def vector(self, fam, m=0, n=0):
        key = (fam, m, n)
        got = self._vectors.get(key)
        if got is None:
            got = self._vectors[key] = known_vector(fam, m, n)
        return got

    def composite(self, *keys):
        """The singular vector of the composite of the morphisms at keys.

        Equal to the nested compose(...).singular_vector(), with the same
        composability checks, but each factor is applied to one vector
        only: the innermost factor's singular vector, carried outwards.
        """
        got = self._composites.get(keys)
        if got is None:
            outer = self(*keys[0])
            if len(keys) == 1:
                got = outer.singular_vector()
            else:
                _check_composable((outer, self(*keys[1])))
                got = outer.apply(self.composite(*keys[1:]))
            self._composites[keys] = got
        return got


# composition identities: target instance and its factors, outermost first
COMPOSITION_IDENTITIES = (
    ("2BA", {"m": 0}, (("1B", {"m": 0, "n": 0}), ("1A", {"m": 1, "n": 0}))),
    ("2CB", {"n": 0}, (("1C", {"m": 0, "n": 1}), ("1B", {"m": 0, "n": 0}))),
    ("2CA", {}, (("1C", {"m": 0, "n": 0}), ("1A", {"m": 0, "n": 0}))),
    ("3CBA", {}, (("1C", {"m": 0, "n": 1}), ("1B", {"m": 0, "n": 0}),
                  ("1A", {"m": 1, "n": 0}))),
    ("5CD", {}, (("1C", {"m": 0, "n": 0}), ("4D", {"m": 0}))),
    ("5EA", {}, (("4E", {"n": 0}), ("1A", {"m": 0, "n": 0}))),
)


def composition_identity_reports(table=None):
    """Each named composition equals its target vector up to a scalar.

    table is a MorphismTable (a fresh unchecked one by default); targets,
    morphisms and composites are read from it.
    """
    table = table or MorphismTable()
    out = []
    for target, targs, factors in COMPOSITION_IDENTITIES:
        got = table.composite(*((fam, args.get("m", 0), args.get("n", 0))
                                for fam, args in factors))
        _, want = table.vector(target, **targs)
        c = proportional(want, got) if got else None
        out.append({
            "target": target,
            "args": dict(targs),
            "factors": [f for f, _ in factors],
            "scalar": None if c is None else str(c),
            "ok": c is not None,
        })
    return out


def _instances(m_values, n_values):
    """(family, m, n, mu, lambda, degree) over each family's parameter grid."""
    for fam, (params, _, data) in FAMILIES.items():
        for m, n in _param_grid(params, m_values, n_values):
            mu, lam, deg = data(m, n)
            yield fam, m, n, tuple(mu), tuple(lam), deg


def _morphism_instances():
    """A small grid of catalog morphisms for the composability sweep."""
    return list(_instances((0, 1), (0, 1)))


def composition_sweep(table=None):
    """Compose every composable ordered pair of catalog instances.

    Each record reports whether the composite's singular vector vanishes
    and, when it does not, which catalog instance it matches up to a
    scalar.  Composites, morphisms and the instances matched against come
    from table, a MorphismTable (a fresh unchecked one by default), so a
    pair the composition identities already composed is not composed
    again, and no instance is built twice.  Note that no
    family provides a degree-1 arrow out of the trivial-weight module into
    M(1,0,0,0): degree-1 singular vectors sit at weight mu + eps_i + eps_j,
    never at mu itself shifted to (0,0,0,0).  Chains through the trivial
    module are therefore reported as found, not matched against any
    preconceived sequence of arrows.
    """
    table = table or MorphismTable()
    insts = _morphism_instances()
    records = []
    for of, om, on, omu, olam, odeg in insts:
        for inf, im, inn, imu, ilam, ideg in insts:
            if olam != imu:
                continue
            vec = table.composite((of, om, on), (inf, im, inn))
            rec = {
                "outer": [of, om, on],
                "inner": [inf, im, inn],
                "source": weight_str(ilam),
                "target": weight_str(omu),
                "degree": odeg + ideg,
                "zero": not vec,
            }
            if vec:
                match = None
                for tf, tm, tn, tmu, tlam, tdeg in insts:
                    if (tmu, tlam, tdeg) != (omu, ilam, odeg + ideg):
                        continue
                    _, want = table.vector(tf, tm, tn)
                    if proportional(vec, want):
                        match = [tf, tm, tn]
                        break
                rec["matches"] = match
            records.append(rec)
    return records


def expected_instances(weight_budget, degree_max):
    """Catalog instances with mu coordinate sum and degree within budget."""
    grid = range(weight_budget + 4)
    return [inst for inst in _instances(grid, grid)
            if sum(inst[3]) <= weight_budget and inst[5] <= degree_max]


def classification_sweep(weight_budget, degree_max,
                         entry_cap=DEFAULT_ENTRY_CAP, full_g1=False,
                         checkpoint=None):
    """Search every module in budget and diff against the catalog.

    Returns a report whose "unexplained" and "missing" lists must both be
    empty: every certificate matches exactly one catalog instance (with a
    one-dimensional kernel and a matching vector up to scalar) and every
    in-range instance is found.
    """
    from .singular_search import dominant_weights_up_to, sweep
    expected = {(mu, lam, deg): (fam, m, n)
                for fam, m, n, mu, lam, deg in
                expected_instances(weight_budget, degree_max)}
    found = {}
    unexplained = []
    for cert in sweep(dominant_weights_up_to(weight_budget),
                      range(1, degree_max + 1), checkpoint, entry_cap,
                      full_g1):
        d = cert["degree"]
        sig = (parse_weight(cert["mu"]), parse_weight(cert["weight"]), d)
        entry = {
            "mu": cert["mu"],
            "degree": d,
            "weight": cert["weight"],
            "kernel_dim": cert["kernel_dim"],
        }
        if sig in expected and cert["kernel_dim"] == 1:
            fam, m, n = expected[sig]
            _, want = known_vector(fam, m, n)
            got = tensor_from_terms(cert["vectors"][0])
            if proportional(got, want):
                entry["family"] = [fam, m, n]
                found[sig] = entry
                continue
        unexplained.append(entry)
    missing = [{"family": list(expected[sig]), "mu": weight_str(sig[0]),
                "weight": weight_str(sig[1]), "degree": sig[2]}
               for sig in expected if sig not in found]
    return {
        "weight_budget": weight_budget,
        "degree_max": degree_max,
        "certificates": sorted(found.values(),
                               key=lambda e: (e["degree"], e["mu"], e["weight"])),
        "unexplained": unexplained,
        "missing": missing,
        "ok": not unexplained and not missing,
    }
