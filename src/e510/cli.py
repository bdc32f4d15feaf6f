"""Command line front end: catalog checks, searches and identity sweeps.

Exit codes: 0 success, 1 mathematical failure (the offending witness is in
the report), 2 configuration or resource errors.  JSON output is sorted and
indented, so equal configurations produce byte-identical reports.
"""

import argparse
import json
import random
import sys
from itertools import combinations, permutations, product

from .errors import ConfigError, VerificationError
from .linalg import DEFAULT_ENTRY_CAP, MatrixTooLargeError
from .scalars import Q
from .sl5_reps import parse_weight, weight_str


def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError("not an integer: %r" % text)


def _parse_range(text):
    """"3" -> [3]; "1..4" -> [1, 2, 3, 4]."""
    lo, sep, hi = text.partition("..")
    lo = _parse_int(lo)
    hi = _parse_int(hi) if sep else lo
    if hi < lo:
        raise ConfigError("empty range %r" % text)
    return list(range(lo, hi + 1))


def _check_degrees(degrees):
    """The degrees, if all are positive integers: degree 0 holds only
    1 (x) v_mu, which is never singular."""
    for d in degrees:
        if isinstance(d, bool) or not isinstance(d, int) or d < 1:
            raise ConfigError("degrees must be positive integers: %r" % (d,))
    return degrees


def _positive(flag, n):
    """n, if it is at least 1."""
    if n < 1:
        raise ConfigError("%s must be positive: %d" % (flag, n))
    return n


def _check_budget(budget):
    """A negative weight budget selects no module, so nothing is checked."""
    if budget < 0:
        raise ConfigError("--budget must be nonnegative: %d" % budget)
    return budget


def _parse_mu(text):
    try:
        mu = parse_weight(text)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if min(mu) < 0:
        raise ConfigError("weight coordinates must be nonnegative: %r" % text)
    return mu


def _emit(report, fmt, output, render):
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = render(report)
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- verify

def cmd_verify_catalog(args):
    from .catalog import FAMILIES, FAMILY_NAMES, verify_catalog
    if args.family == "all":
        fams = FAMILY_NAMES
    elif args.family in FAMILY_NAMES:
        fams = (args.family,)
    else:
        raise ConfigError("unknown family %r (choose from %s or all)"
                          % (args.family, ", ".join(FAMILY_NAMES)))
    taken = {p for fam in fams for p in FAMILIES[fam][0]}
    for name in ("m", "n"):
        if getattr(args, name) is None:
            setattr(args, name, "0..2")
        elif name not in taken:
            raise ConfigError("family %s takes no parameter --%s"
                              % (args.family, name))
    ms, ns = tuple(_parse_range(args.m)), tuple(_parse_range(args.n))
    if min(ms + ns) < 0:
        raise ConfigError("family parameters must be nonnegative: --m %s "
                          "--n %s" % (args.m, args.n))
    recs = verify_catalog(fams, ms, ns, full_g1=not args.skip_g1)
    report = {
        "command": "verify-catalog",
        "records": recs,
        "checked": len(recs),
        "failures": [r for r in recs if not r["ok"]],
        "ok": all(r["ok"] for r in recs),
    }

    def render(rep):
        out = []
        for r in rep["records"]:
            out.append("%-4s m=%d n=%d  M(%s) degree %d weight (%s)  %s"
                       % (r["family"], r["m"], r["n"], r["mu"], r["degree"],
                          r["weight"], "ok" if r["ok"] else "FAIL"))
        out.append("verified %d instances, %d failures"
                   % (rep["checked"], len(rep["failures"])))
        return "\n".join(out) + "\n"

    return (0 if report["ok"] else 1), report, render


# ---------------------------------------------------------------- search

def cmd_search(args):
    from .singular_search import search_module, sweep
    mu = _parse_mu(args.mu)
    degrees = _check_degrees(_parse_range(args.degree))
    if args.weight is not None:
        if args.checkpoint is not None:
            raise ConfigError("--checkpoint does not apply with --weight")
        nu = _parse_mu(args.weight)
        certs = []
        for d in degrees:
            certs.extend(search_module(mu, d, nu=nu, entry_cap=args.entry_cap,
                                       full_g1=args.full_g1))
    else:
        certs = sweep([mu], degrees, checkpoint=args.checkpoint,
                      entry_cap=args.entry_cap, full_g1=args.full_g1)
    report = {
        "command": "search",
        "mu": weight_str(mu),
        "degrees": degrees,
        "certificates": certs,
        "count": len(certs),
        "ok": True,
    }

    def render(rep):
        out = []
        for c in rep["certificates"]:
            out.append("M(%s) degree %d: weight (%s), block %d, kernel %d"
                       % (c["mu"], c["degree"], c["weight"], c["block_dim"],
                          c["kernel_dim"]))
        out.append("%d certificate(s)" % rep["count"])
        return "\n".join(out) + "\n"

    return 0, report, render


# ---------------------------------------------------------------- sweep

def cmd_sweep(args):
    from .singular_search import dominant_weights_up_to, sweep
    mus = [_parse_mu(t) for t in args.mu] if args.mu else None
    if args.budget is None:
        args.budget = 3
    elif mus:
        # the listed modules are swept whatever the budget says
        raise ConfigError("--budget does not apply with --mu")
    if mus and len(set(mus)) < len(mus):
        # each module would be searched and reported once per listing
        raise ConfigError("--mu lists a module twice")
    degrees = _check_degrees(_parse_range(args.degree))
    if not mus:
        mus = dominant_weights_up_to(_check_budget(args.budget))
    certs = sweep(mus, degrees, checkpoint=args.checkpoint,
                  entry_cap=args.entry_cap, full_g1=args.full_g1)
    report = {
        "command": "sweep",
        "budget": args.budget,
        "degrees": degrees,
        "certificates": certs,
        "count": len(certs),
        "ok": True,
    }

    def render(rep):
        out = ["M(%s) degree %d: weight (%s), kernel %d"
               % (c["mu"], c["degree"], c["weight"], c["kernel_dim"])
               for c in rep["certificates"]]
        out.append("%d certificate(s)" % rep["count"])
        return "\n".join(out) + "\n"

    return 0, report, render


# ---------------------------------------------------------------- classify

def cmd_classify(args):
    from .catalog import classification_sweep
    _check_degrees([args.max_degree])
    report = classification_sweep(_check_budget(args.budget), args.max_degree,
                                  entry_cap=args.entry_cap,
                                  full_g1=args.full_g1,
                                  checkpoint=args.checkpoint)
    report["command"] = "classify"

    def render(rep):
        out = ["M(%s) degree %d -> weight (%s)  %s m=%d n=%d"
               % (e["mu"], e["degree"], e["weight"], *e["family"])
               for e in rep["certificates"]]
        out.append("%d certificates, %d unexplained, %d missing"
                   % (len(rep["certificates"]), len(rep["unexplained"]),
                      len(rep["missing"])))
        return "\n".join(out) + "\n"

    return (0 if report["ok"] else 1), report, render


# ---------------------------------------------------------------- identities

def _omega_suite(max_d, samples, seed):
    from .omega_basis import (
        _LITERAL_LIMIT, commutator_identity_residual, dw_product_residual,
        equivariance_residual, omega, omega_direct, omega_recursive,
        omega_symmetrized, ricomega_residual)
    from .uminus import PAIRS
    from .verma import VermaModule
    failures = []

    keys = []
    for k in range(1, max_d + 1):
        keys.extend(combinations(range(10), k))
    tuples = [tuple(PAIRS[i] for i in key) for key in keys]

    def routes_differ(tp):
        """Whether omega_direct differs from omega, omega_recursive or,
        up to _LITERAL_LIMIT (5) factors, the literal omega_symmetrized."""
        a = omega_direct(tp)
        return (a != omega(tp) or a != omega_recursive(tp)
                or (len(tp) <= _LITERAL_LIMIT and a != omega_symmetrized(tp)))

    for tp in tuples:
        if routes_differ(tp):
            failures.append({"check": "routes", "pairs": list(tp)})

    rng = random.Random(seed)
    for _ in range(samples):
        d = rng.randrange(5, 9)
        sel = rng.sample(range(10), d)
        tp = tuple(PAIRS[i] for i in sel)
        if routes_differ(tp):
            failures.append({"check": "routes", "pairs": list(tp)})

    for tp in tuples:
        if ricomega_residual(tp):
            failures.append({"check": "removal", "pairs": list(tp)})

    for i, j in product(range(1, 6), repeat=2):
        for tp in tuples:
            if dw_product_residual(i, j, tp):
                failures.append({"check": "product",
                                 "pair": [i, j], "pairs": list(tp)})

    # the ordered pairs (a, b) with a != b, a-major
    ops = list(permutations(range(1, 6), 2))
    for a, b in ops:
        for tp in tuples:
            if equivariance_residual(a, b, tp):
                failures.append({"check": "equivariance",
                                 "op": [a, b], "pairs": list(tp)})

    testmod = VermaModule((1, 0, 0, 0))
    for p, q in ops:
        for tp in tuples:
            if commutator_identity_residual(p, q, tp, testmod):
                failures.append({"check": "commutator",
                                 "op": [p, q], "pairs": list(tp)})

    # each count is the size of what its loop swept
    counts = {"routes_exhaustive": len(tuples), "routes_random": samples,
              "removal": len(tuples), "product": 25 * len(tuples),
              "equivariance": len(ops) * len(tuples),
              "commutator": len(ops) * len(tuples)}
    return counts, failures


def _structure_suite():
    from .e510_algebra import (
        cartan_gen, d_gen, e_gen, g1_basis, jacobi_residual, p_gen)
    from .sl5_reps import build_irrep, gt_pattern_count, weyl_dim
    from .uminus import dim_u_minus, enumerate_monomials
    failures = []

    # genuine elements only: traceless diagonals, closed linear forms
    pool = ([p_gen(i) for i in range(1, 6)]
            + [d_gen(i, j) for i in range(1, 5) for j in range(i + 1, 6)]
            + [e_gen(a, b) for a, b in permutations(range(1, 6), 2)]
            + [cartan_gen(i) for i in range(1, 5)])
    g1 = g1_basis()
    for x in pool:
        for y in pool:
            for z in pool + g1:
                if jacobi_residual(x, y, z):
                    failures.append({"check": "jacobi"})

    if len(g1) != 40:
        failures.append({"check": "dim_g1", "got": len(g1)})

    table = [1, 10, 50, 170, 450, 1002, 1970, 3530]
    for d, want in enumerate(table):
        got = len(list(enumerate_monomials(d)))
        if got != want or dim_u_minus(d) != want:
            failures.append({"check": "dim_uminus", "degree": d, "got": got})

    weights = list(product(range(4), repeat=4))
    for w in weights:
        wd = weyl_dim(w)
        if wd != gt_pattern_count(w):
            failures.append({"check": "weyl_vs_patterns", "weight": list(w)})
        if sum(w) <= 3 and build_irrep(w).dim != wd:
            failures.append({"check": "closure_dim", "weight": list(w)})
    counts = {"jacobi": len(pool) ** 2 * (len(pool) + len(g1)), "dim_g1": 1,
              "dim_uminus": len(table), "dims": len(weights)}
    return counts, failures


def _fundamental_suite():
    from .catalog import known_vector
    from .omega_basis import fundamental_equation_residuals, reconstruct_theta
    failures = []
    counts = {}
    thetas = {}
    # 1A at m = 1: at m = n = 0 its target M(F(0,0,0,0)) reads no theta
    for fam, m in (("1A", 1), ("4D", 0), ("7", 0), ("11", 0)):
        mod, w = known_vector(fam, m)
        theta = thetas[fam] = reconstruct_theta(mod, w)
        bad = fundamental_equation_residuals(theta)
        counts["equations_" + fam] = 1
        if bad:
            failures.append({"check": "equations", "family": fam,
                             "first": repr(bad[0])})
    counts["chain_7"], chain_bad = _theta_chain_seven(thetas["7"])
    failures.extend(chain_bad)
    return counts, failures


# the degree-7 coefficient chain, evaluated on the source highest weight
# vector: theta_{I0} equals the stated multiple of each partial theta^R_I
CHAIN7 = (
    ((), (12, 13, 14, 15, 25, 35, 45), 1),
    ((2,), (12, 14, 15, 25, 35), -2),
    ((2,), (12, 13, 15, 25, 45), 2),
    ((3,), (13, 14, 15, 25, 35), -2),
    ((3,), (12, 13, 15, 35, 45), 2),
    ((4,), (13, 14, 15, 25, 45), -2),
    ((4,), (12, 14, 15, 35, 45), 2),
    ((2, 2), (12, 15, 25), -4),
    ((2, 3), (13, 15, 25), -4),
    ((2, 3), (12, 15, 35), -4),
    ((3, 3), (13, 15, 35), -4),
    ((2, 4), (14, 15, 25), -4),
    ((2, 4), (12, 15, 45), -4),
    ((3, 4), (14, 15, 35), -4),
    ((3, 4), (13, 15, 45), -4),
    ((4, 4), (14, 15, 45), -4),
)


def _theta_chain_seven(theta):
    from .omega_basis import canonical_index

    def value(rs, codes):
        """theta^rs on the source highest weight vector, column 0."""
        res = {}
        theta.add_to(res, 1, rs,
                     canonical_index(tuple(divmod(t, 10) for t in codes)))
        return res.get(0, {})

    base = value(*CHAIN7[0][:2])
    failures = []
    for rs, codes, c in CHAIN7:
        want = {i: v / Q(c) for i, v in base.items()}
        if value(rs, codes) != want:
            failures.append({"check": "chain", "rs": list(rs),
                             "pairs": list(codes)})
    return len(CHAIN7), failures


def cmd_identities(args):
    for name, default in (("max_d", 4), ("samples", 1000), ("seed", 0)):
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif args.suite != "omega":
            raise ConfigError("--%s applies to --suite omega only"
                              % name.replace("_", "-"))
    if args.suite == "omega":
        # with no form word every count would be 0 and the suite pass
        _positive("--max-d", args.max_d)
        if args.samples < 0:
            raise ConfigError("--samples must be nonnegative: %d"
                              % args.samples)
        counts, failures = _omega_suite(args.max_d, args.samples, args.seed)
    elif args.suite == "structure":
        counts, failures = _structure_suite()
    else:  # argparse admits no other suite
        counts, failures = _fundamental_suite()
    report = {
        "command": "identities",
        "suite": args.suite,
        "checks": counts,
        "failures": failures,
        "ok": not failures,
    }

    def render(rep):
        out = ["%s: %d" % kv for kv in sorted(rep["checks"].items())]
        out.append("failures: %d" % len(rep["failures"]))
        return "\n".join(out) + "\n"

    return (0 if report["ok"] else 1), report, render


# ---------------------------------------------------------------- complexes

def cmd_complexes(args):
    from .catalog import (MorphismTable, composition_identity_reports,
                          composition_sweep)
    table = MorphismTable(check=args.check)
    idents = composition_identity_reports(table)
    # a morphism of Verma modules is zero when its singular vector is
    square_zero = not table.composite(("1A", 0, 0), ("1A", 0, 1))
    records = composition_sweep(table)
    unmatched = [r for r in records if not r["zero"] and not r["matches"]]
    report = {
        "command": "complexes",
        "identities": idents,
        "degree_one_square_zero": square_zero,
        "pairs": records,
        "nonzero_pairs": sum(1 for r in records if not r["zero"]),
        "unmatched_pairs": unmatched,
        "trivial_module_note": (
            "no family provides a degree-1 arrow into M(1,0,0,0) from the "
            "trivial weight; chains through M(0,0,0,0) are reported above "
            "as found, not matched against a preset sequence"),
        "ok": (all(r["ok"] for r in idents) and square_zero
               and not unmatched),
    }

    def render(rep):
        out = []
        for r in rep["identities"]:
            out.append("%s = %s  scalar %s  %s"
                       % (r["target"], " o ".join(r["factors"]), r["scalar"],
                          "ok" if r["ok"] else "FAIL"))
        out.append("degree-1 square zero: %s" % rep["degree_one_square_zero"])
        out.append("composable pairs: %d, nonzero: %d, unmatched: %d"
                   % (len(rep["pairs"]), rep["nonzero_pairs"],
                      len(rep["unmatched_pairs"])))
        return "\n".join(out) + "\n"

    return (0 if report["ok"] else 1), report, render


# ---------------------------------------------------------------- dual

def _cert_triples(path):
    """(mu, degree, weight) of each E(5,10) certificate in a JSON file."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ConfigError("unreadable certificate file %s: %s"
                              % (path, exc))
    if isinstance(data, dict):
        data = data.get("certificates")
    try:
        triples = [(_parse_mu(c["mu"]), c["degree"], _parse_mu(c["weight"]))
                   for c in data if c.get("algebra") in (None, "E(5,10)")]
    except (AttributeError, KeyError, TypeError) as exc:
        raise ConfigError("%s is not a list of certificates: %s: %s"
                          % (path, type(exc).__name__, exc))
    if data and not triples:
        raise ConfigError("%s holds no E(5,10) certificate" % path)
    return triples


def cmd_dual(args):
    from .singular_search import dual_pair_check
    if args.from_certs:
        for name in ("mu", "degree", "weight"):
            if getattr(args, name) is not None:
                # the file's cells would be checked and the flag ignored
                raise ConfigError("--%s does not apply with --from-certs"
                                  % name)
        triples = _cert_triples(args.from_certs)
    elif args.mu and args.degree and args.weight:
        triples = [(_parse_mu(args.mu), _parse_int(args.degree),
                    _parse_mu(args.weight))]
    else:
        raise ConfigError("provide --from-certs or all of --mu/--degree/--weight")
    _check_degrees([d for _, d, _ in triples])
    checks = [dual_pair_check(mu, d, nu, entry_cap=args.entry_cap)
              for mu, d, nu in triples]
    report = {
        "command": "dual",
        "checks": checks,
        "ok": all(c["consistent"] for c in checks),
    }

    def render(rep):
        out = ["M(%s) degree %d weight (%s): kernel %d, dual kernel %d  %s"
               % (c["mu"], c["degree"], c["weight"], c["kernel_dim"],
                  c["dual_kernel_dim"], "ok" if c["consistent"] else "FAIL")
               for c in rep["checks"]]
        out.append("%d dual pair(s) checked" % len(rep["checks"]))
        return "\n".join(out) + "\n"

    return (0 if report["ok"] else 1), report, render


# ---------------------------------------------------------------- s5

def cmd_s5_baseline(args):
    from .s5_verma import rudakov_vectors, search_s5
    from .verma import proportional, tensor_from_terms
    lams = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
            (0, 0, 0, 1)]
    found = []
    for lam in lams:
        for d in (2, 4):
            for cert in search_s5(lam, d, entry_cap=args.entry_cap):
                found.append(cert)
    by_cell = {(tuple(lam), deg): (name, w)
               for name, (lam, deg, w) in rudakov_vectors().items()}
    labeled = []
    problems = []
    for cert in found:
        lam = parse_weight(cert["mu"])
        cell = (lam, cert["degree"])
        name_w = by_cell.get(cell)
        if name_w is None or cert["kernel_dim"] != 1:
            problems.append(cert)
            continue
        name, w = name_w
        if not proportional(tensor_from_terms(cert["vectors"][0]), w):
            problems.append(cert)
            continue
        labeled.append({"label": name, "mu": cert["mu"],
                        "degree": cert["degree"], "weight": cert["weight"]})
    report = {
        "command": "s5-baseline",
        "found": sorted(labeled, key=lambda e: e["label"]),
        "unexpected": problems,
        "ok": len(labeled) == 6 and not problems,
    }

    def render(rep):
        out = ["%s: M(%s) degree %d -> weight (%s)"
               % (e["label"], e["mu"], e["degree"], e["weight"])
               for e in rep["found"]]
        out.append("found %d of 6, unexpected %d"
                   % (len(rep["found"]), len(rep["unexpected"])))
        return "\n".join(out) + "\n"

    return (0 if report["ok"] else 1), report, render


# ---------------------------------------------------------------- driver

def _add_common(p):
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None, help="write the report here")


def _add_entry_cap(p):
    p.add_argument("--entry-cap", type=int, default=DEFAULT_ENTRY_CAP,
                   help="most stored entries of one search block's rows, "
                        "counted as assembled: a condition's rows are built "
                        "only on the columns the earlier conditions leave "
                        "unforced (positive; default %(default)d)")


def _add_search_flags(p):
    _add_entry_cap(p)
    p.add_argument("--full-g1", action="store_true",
                   help="check all 40 degree +1 operators, not a spanning set")
    p.add_argument("--checkpoint", default=None)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="e510",
        description="Exact singular vector machinery for finite Verma "
                    "modules over E(5,10)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-catalog", help="check the known families")
    p.add_argument("--family", default="all")
    p.add_argument("--m", help="parameter range, e.g. 0..1 (default 0..2)")
    p.add_argument("--n", help="parameter range (default 0..2)")
    p.add_argument("--skip-g1", action="store_true",
                   help="only check a spanning subset of the raising action")
    _add_common(p)
    p.set_defaults(func=cmd_verify_catalog)

    p = sub.add_parser("search", help="singular vectors in one module")
    p.add_argument("--mu", required=True, help="highest weight a,b,c,d")
    p.add_argument("--degree", required=True, help="degree N or range a..b")
    p.add_argument("--weight", default=None,
                   help="restrict to one candidate weight a,b,c,d "
                        "(not with --checkpoint)")
    _add_search_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sweep", help="search a grid of modules")
    p.add_argument("--mu", action="append", default=None,
                   help="repeatable; default all weights within --budget")
    p.add_argument("--budget", type=int,
                   help="max coordinate sum of swept highest weights "
                        "(default 3; not with --mu)")
    p.add_argument("--degree", default="1..4")
    _add_search_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("classify",
                       help="diff swept certificates against the catalog")
    p.add_argument("--budget", type=int, default=3)
    p.add_argument("--max-degree", type=int, default=4)
    _add_search_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("identities", help="identity and self-test sweeps")
    p.add_argument("--suite", choices=("omega", "structure", "fundamental"),
                   default="omega")
    p.add_argument("--max-d", type=int,
                   help="longest exhaustive form tuple (omega; default 4)")
    p.add_argument("--samples", type=int,
                   help="random tuples for the long-form route comparison "
                        "(omega; default 1000)")
    p.add_argument("--seed", type=int,
                   help="seed of the random tuples (omega; default 0)")
    _add_common(p)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("complexes",
                       help="composition identities and pair sweep")
    p.add_argument("--check", action="store_true",
                   help="re-verify singularity of every morphism table")
    _add_common(p)
    p.set_defaults(func=cmd_complexes)

    p = sub.add_parser("dual", help="kernel dimensions match under duality")
    p.add_argument("--from-certs", default=None,
                   help="JSON file with a certificate list "
                        "(not with --mu/--degree/--weight)")
    p.add_argument("--mu", default=None)
    p.add_argument("--degree", default=None)
    p.add_argument("--weight", default=None)
    _add_entry_cap(p)
    _add_common(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("s5-baseline",
                       help="exhaustive search in the vector field model")
    _add_entry_cap(p)
    _add_common(p)
    p.set_defaults(func=cmd_s5_baseline)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if "entry_cap" in args:  # a command that searches, before it does
            _positive("--entry-cap", args.entry_cap)
        code, report, render = args.func(args)
        _emit(report, args.format, args.output, render)
    except VerificationError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except (ConfigError, MatrixTooLargeError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
