"""The classification catalog: known singular vectors and their morphisms.

Thirteen families of singular vectors cover every degenerate finite Verma
module.  The formulas here are transcribed data; verification (exact
singularity checks, weight and degree agreement, composition identities,
and the classification sweep diff) is what the tests run.
"""

from .omega_basis import equivariant_family
from .scalars import Q
from .singular_search import dominant_weights_up_to, search_cells
from .sl5_reps import ambient_monomial, weight_str
from .uminus import PAIRS, add_scaled, d_elem, forms_elem, pbw_product
from .verma import VermaModule, proportional, tensor_from_terms
from .vector_tables import W11_TERMS, W4E_TERMS

# degree-7 vector: inner terms behind the common prefix d12 d13 d14 d15,
# each row (sign, partial exponents, form pairs, dual index pair)
W7_TERMS = (
    (1, (0, 0, 0, 0, 0), ((2, 3), (2, 4), (2, 5)), (2, 2)),
    (-1, (0, 0, 0, 0, 0), ((2, 3), (2, 5), (3, 4)), (2, 3)),
    (-1, (0, 0, 0, 0, 0), ((2, 4), (2, 5), (3, 4)), (2, 4)),
    (1, (0, 0, 0, 0, 0), ((2, 3), (2, 4), (3, 5)), (2, 3)),
    (-1, (0, 0, 0, 0, 0), ((2, 4), (2, 5), (3, 5)), (2, 5)),
    (1, (0, 0, 0, 0, 0), ((2, 3), (3, 4), (3, 5)), (3, 3)),
    (1, (0, 0, 0, 0, 0), ((2, 4), (3, 4), (3, 5)), (3, 4)),
    (1, (0, 0, 0, 0, 0), ((2, 5), (3, 4), (3, 5)), (3, 5)),
    (1, (0, 0, 0, 0, 0), ((2, 3), (2, 4), (4, 5)), (2, 4)),
    (1, (0, 0, 0, 0, 0), ((2, 3), (2, 5), (4, 5)), (2, 5)),
    (1, (0, 0, 0, 0, 0), ((2, 3), (3, 4), (4, 5)), (3, 4)),
    (1, (0, 0, 0, 0, 0), ((2, 4), (3, 4), (4, 5)), (4, 4)),
    (1, (0, 0, 0, 0, 0), ((2, 5), (3, 4), (4, 5)), (4, 5)),
    (1, (0, 0, 0, 0, 0), ((2, 3), (3, 5), (4, 5)), (3, 5)),
    (1, (0, 0, 0, 0, 0), ((2, 4), (3, 5), (4, 5)), (4, 5)),
    (1, (0, 0, 0, 0, 0), ((2, 5), (3, 5), (4, 5)), (5, 5)),
    (1, (1, 0, 0, 0, 0), ((2, 3),), (2, 3)),
    (1, (1, 0, 0, 0, 0), ((2, 4),), (2, 4)),
    (1, (1, 0, 0, 0, 0), ((2, 5),), (2, 5)),
    (-1, (0, 1, 0, 0, 0), ((2, 3),), (1, 3)),
    (-1, (0, 1, 0, 0, 0), ((2, 4),), (1, 4)),
    (-1, (0, 1, 0, 0, 0), ((2, 5),), (1, 5)),
    (1, (0, 0, 1, 0, 0), ((2, 3),), (1, 2)),
    (-1, (0, 0, 1, 0, 0), ((3, 4),), (1, 4)),
    (-1, (0, 0, 1, 0, 0), ((3, 5),), (1, 5)),
    (1, (0, 0, 0, 1, 0), ((2, 4),), (1, 2)),
    (1, (0, 0, 0, 1, 0), ((3, 4),), (1, 3)),
    (-1, (0, 0, 0, 1, 0), ((4, 5),), (1, 5)),
    (1, (0, 0, 0, 0, 1), ((2, 5),), (1, 2)),
    (1, (0, 0, 0, 0, 1), ((3, 5),), (1, 3)),
    (1, (0, 0, 0, 0, 1), ((4, 5),), (1, 4)),
)

_PREFIX = ((1, 2), (1, 3), (1, 4), (1, 5))


def _tensor(module, u, **factors):
    """u (x) (ambient monomial) as a module element."""
    amb = ambient_monomial(**factors)
    return module.tensor(u, module.rep.project({amb: Q(1)}))


def _w_1a(m, n):
    mod = VermaModule((m, n, 0, 0))
    return mod, _tensor(mod, d_elem(1, 2), x=(1,) * m, w=((1, 2),) * n)


def _w_1b(m, n):
    mod = VermaModule((m, 0, 0, n + 1))
    out = _tensor(mod, d_elem(1, 5), x=(1,) * m, dx=(5,) * (n + 1))
    for j in (2, 3, 4):
        add_scaled(out, _tensor(mod, d_elem(1, j), x=(1,) * m,
                                dx=(j,) + (5,) * n), Q(1))
    return mod, out


def _w_1c(m, n):
    mod = VermaModule((0, 0, m + 1, n))
    out = {}
    for i, j in PAIRS:
        add_scaled(out, _tensor(mod, d_elem(i, j),
                                dw=((i, j),) + ((4, 5),) * m, dx=(5,) * n),
                   Q(1))
    return mod, out


def _w_2ba(m):
    mod = VermaModule((m, 0, 0, 1))
    out = {}
    for j in (2, 3, 4, 5):
        u = forms_elem(((1, 2), (1, j)))
        if u:
            add_scaled(out, _tensor(mod, u, x=(1,) * m, dx=(j,)), Q(1))
    return mod, out


def _w_2cb(n):
    mod = VermaModule((0, 0, 1, n + 1))
    out = {}
    for j in (2, 3, 4, 5):
        for h, k in PAIRS:
            u = forms_elem(((1, j), (h, k)))
            if u:
                add_scaled(out, _tensor(mod, u, dw=((h, k),),
                                        dx=(j,) + (5,) * n), Q(1))
    return mod, out


def _w_2ca():
    mod = VermaModule((0, 0, 1, 0))
    out = {}
    for i, j in PAIRS:
        u = forms_elem(((1, 2), (i, j)))
        if u:
            add_scaled(out, _tensor(mod, u, dw=((i, j),)), Q(1))
    return mod, out


def _w_3cba():
    mod = VermaModule((0, 0, 1, 1))
    out = {}
    for j in (2, 3, 4, 5):
        for k, l in PAIRS:
            u = forms_elem(((1, 2), (1, j), (k, l)))
            if u:
                add_scaled(out, _tensor(mod, u, dx=(j,), dw=((k, l),)), Q(1))
    return mod, out


def _w_4d(m):
    mod = VermaModule((m, 0, 0, 0))
    return mod, _tensor(mod, forms_elem(_PREFIX), x=(1,) * m)


def _w_4e(n):
    mod = VermaModule((0, 0, 0, n + 3))
    out = {}
    for sign, partials, forms, fexp in W4E_TERMS:
        u = pbw_product({(partials, ()): sign}, forms_elem(forms))
        dx = []
        for i in range(4):
            dx.extend([i + 1] * fexp[i])
        dx.extend([5] * (fexp[4] + n))
        add_scaled(out, _tensor(mod, u, dx=tuple(dx)), Q(1))
    return mod, out


def _w_5cd():
    # the sum runs over every pair avoiding index 1; the factors through
    # the degree-1 and degree-4 vectors confirm this normalization
    mod = VermaModule((0, 0, 1, 0))
    pre = forms_elem(_PREFIX)
    out = {}
    for i, j in PAIRS:
        u = pbw_product(pre, d_elem(i, j))
        if u:
            add_scaled(out, _tensor(mod, u, dw=((i, j),)), Q(1))
    return mod, out


def _w_5ea():
    mod, w4 = _w_4e(0)
    return mod, mod.mult(d_elem(1, 2), w4)


def _w_7():
    mod = VermaModule((0, 0, 0, 2))
    pre = forms_elem(_PREFIX)
    out = {}
    for sign, partials, forms, (da, db) in W7_TERMS:
        u = pbw_product(pre, pbw_product({(partials, ()): sign},
                                         forms_elem(forms)))
        add_scaled(out, _tensor(mod, u, dx=(da, db)), Q(1))
    return mod, out


def _w_11():
    mod = VermaModule((0, 0, 0, 1))
    pre = forms_elem(_PREFIX)
    out = {}
    for sign, partials, forms, di in W11_TERMS:
        u = pbw_product(pre, pbw_product({(partials, ()): sign},
                                         forms_elem(forms)))
        add_scaled(out, _tensor(mod, u, dx=(di,)), Q(1))
    return mod, out


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
    """The catalog singular vector; returns (module, element)."""
    params, build, _ = FAMILIES[family]
    args = tuple({"m": m, "n": n}[p] for p in params)
    return build(*args)


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
    ok = bool(w) and mod.mu == tuple(mu)
    if ok:
        ok = (mod.element_degree(w) == deg
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

    def is_zero(self):
        return not any(self.images)


def morphism_from_singular(module, w, check=True):
    """Build the morphism evaluator for a singular vector.

    The image table applies to w the same lowering words that build the
    source basis from its highest weight vector; equivariance and
    annihilation by the whole degree +1 part are verified on every image.
    """
    rep_in, images = equivariant_family(module, w, check=check)
    if check and not all(map(module.kills_g1, images)):
        raise ValueError("image not annihilated by degree +1 part")
    return VermaMorphism(VermaModule(rep_in.weight), module, images)


def _check_composable(factors):
    for outer, inner in zip(factors, factors[1:]):
        if outer.source.mu != inner.target.mu:
            raise ValueError("morphisms are not composable")


def compose(outer, inner):
    """outer o inner; defined when inner's target is outer's source.

    Applies outer to every image of inner, one product per source basis
    vector; compose_vector computes only the singular vector.
    """
    _check_composable((outer, inner))
    return VermaMorphism(inner.source, outer.target,
                         [outer.apply(im) for im in inner.images])


def compose_vector(*factors):
    """The singular vector of the composite of factors, outermost first.

    Equal to the nested compose(...).singular_vector(), with the same
    composability checks, but it applies each factor to one vector only:
    the innermost factor's singular vector, carried outwards.
    """
    _check_composable(factors)
    v = factors[-1].singular_vector()
    for f in reversed(factors[:-1]):
        v = f.apply(v)
    return v


def family_morphism(family, m=0, n=0, check=True):
    mod, w = known_vector(family, m, n)
    return morphism_from_singular(mod, w, check=check)


def morphism_table(check=False):
    """get(family, m=0, n=0): one run's catalog morphisms, each built once."""
    built = {}

    def get(fam, m=0, n=0):
        key = (fam, m, n)
        if key not in built:
            built[key] = family_morphism(fam, m, n, check=check)
        return built[key]

    return get


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


def composition_identity_reports(get=None):
    """Each named composition equals its target vector up to a scalar.

    get is a morphism_table (a fresh unchecked one by default).
    """
    get = get or morphism_table()
    out = []
    for target, targs, factors in COMPOSITION_IDENTITIES:
        _, want = known_vector(target, **targs)
        got = compose_vector(*(get(fam, **args) for fam, args in factors))
        c = proportional(want, got) if got else None
        out.append({
            "target": target,
            "args": dict(targs),
            "factors": [f for f, _ in factors],
            "scalar": None if c is None else str(c),
            "ok": c is not None,
        })
    return out


def _morphism_instances():
    """A small grid of catalog morphisms for the composability sweep."""
    grid = {"m": (0, 1), "n": (0, 1)}
    out = []
    for fam, (params, _, data) in FAMILIES.items():
        for m, n in _param_grid(params, grid["m"], grid["n"]):
            mu, lam, deg = data(m, n)
            out.append((fam, m, n, tuple(mu), tuple(lam), deg))
    return out


def composition_sweep(get=None):
    """Compose every composable ordered pair of catalog instances.

    Each record reports whether the composite's singular vector (computed
    by compose_vector; morphisms come from get, a morphism_table, a fresh
    unchecked one by default) vanishes and, when it does not, which
    catalog instance it matches up to a scalar.  Note that no
    family provides a degree-1 arrow out of the trivial-weight module into
    M(1,0,0,0): degree-1 singular vectors sit at weight mu + eps_i + eps_j,
    never at mu itself shifted to (0,0,0,0).  Chains through the trivial
    module are therefore reported as found, not matched against any
    preconceived sequence of arrows.
    """
    get = get or morphism_table()
    insts = _morphism_instances()
    records = []
    for of, om, on, omu, olam, odeg in insts:
        for inf, im, inn, imu, ilam, ideg in insts:
            if olam != imu:
                continue
            vec = compose_vector(get(of, om, on), get(inf, im, inn))
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
                    _, want = known_vector(tf, tm, tn)
                    if proportional(vec, want):
                        match = [tf, tm, tn]
                        break
                rec["matches"] = match
            records.append(rec)
    return records


def expected_instances(weight_budget, degree_max):
    """Catalog instances with mu coordinate sum and degree within budget."""
    out = []
    bound = weight_budget + 4
    for fam, (params, _, data) in FAMILIES.items():
        ms = range(bound) if "m" in params else (0,)
        for m in ms:
            ns = range(bound) if "n" in params else (0,)
            for n in ns:
                mu, lam, deg = data(m, n)
                if sum(mu) <= weight_budget and deg <= degree_max:
                    out.append((fam, m, n, tuple(mu), tuple(lam), deg))
    return out


def classification_sweep(weight_budget, degree_max, entry_cap=200000,
                         full_g1=False, checkpoint=None):
    """Search every module in budget and diff against the catalog.

    Returns a report whose "unexplained" and "missing" lists must both be
    empty: every certificate matches exactly one catalog instance (with a
    one-dimensional kernel and a matching vector up to scalar) and every
    in-range instance is found.
    """
    expected = {(mu, lam, deg): (fam, m, n)
                for fam, m, n, mu, lam, deg in
                expected_instances(weight_budget, degree_max)}
    found = {}
    unexplained = []
    cells = [(mu, d) for mu in dominant_weights_up_to(weight_budget)
             for d in range(1, degree_max + 1)]
    results = search_cells(cells, checkpoint, entry_cap, full_g1)
    for (mu, d), certs in zip(cells, results):
        for cert in certs:
            nu = tuple(int(t) for t in cert["weight"].split(","))
            sig = (tuple(mu), nu, d)
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
