"""Exact search for singular vectors in finite Verma modules.

A singular vector is a nonzero homogeneous vector of positive degree killed
by the four simple raisings and by the whole degree +1 part.  The degree +1
conditions reduce to the single lowest weight operator x_5 d_45: the
annihilator of a raising-invariant vector is closed under bracketing with
raisings, and the degree +1 part is generated from x_5 d_45 by them.

For a fixed (degree, weight) block the conditions are one sparse linear
system; its kernel is computed exactly over the rationals.  The rows are
integer: each condition image comes as integer numerators over a
denominator (InducedModule.int_conditions), the rows of one condition
share the lcm of its denominators, and a row's scale does not change its
kernel.  Any vector in the kernel is re-verified through the module
action before being reported in a certificate.  The driver reads only the
protocol of verma.InducedModule, so the S5 baseline of s5_verma runs
through it too.
"""

import json
import os
from math import lcm

from .errors import ConfigError, VerificationError
from .sl5_reps import parse_weight, weight_str, dual_weight
from .linalg import kernel_basis
from .verma import VermaModule, tensor_from_terms

TOOL_VERSION = "0.1.0"


def candidate_weights(module, d):
    """Dominant weights with a nonempty (degree d) weight space, sorted."""
    return sorted(module.weight_blocks(d))


def condition_rows(module, block):
    """Integer condition rows of a block, keyed by (label, image key).

    Column j is the basis pair block[j], and its condition images
    (module.int_conditions) give the entries of column j.  All rows of a
    label share one denominator, the lcm of its images' denominators so
    far: when an image's denominator does not divide it, the label's rows
    are rescaled to the new lcm.  So each row is its rational row times the
    label's final lcm.
    """
    rows = {}
    dens = {}
    for j, pair in enumerate(block):
        for label, (acc, den) in module.int_conditions({pair: 1}):
            common = dens.setdefault(label, den)
            if common % den:
                grown = lcm(common, den)
                for (lab, _), row in rows.items():
                    if lab == label:
                        for k in row:
                            row[k] *= grown // common
                common = dens[label] = grown
            s = common // den
            for key, n in acc.items():
                if n:
                    rows.setdefault((label, key), {})[j] = n * s
    return rows


def singular_block(module, d, nu, entry_cap=200000):
    """Block basis and exact kernel of the module's singularity conditions."""
    block = module.weight_space(d, tuple(nu))
    rows = condition_rows(module, block)
    kern = kernel_basis(list(rows.values()), list(range(len(block))),
                        entry_cap=entry_cap)
    vectors = [{block[j]: c for j, c in k.items()} for k in kern]
    return block, vectors


def search_blocks(module, d, nu=None, entry_cap=200000, **checks):
    """Certificates for singular vectors of degree d in an induced module.

    One certificate per weight with a nonzero kernel; candidates are all
    dominant block weights unless nu pins one (dominant) weight down.  Every
    kernel vector is re-verified through module.is_singular(vector,
    **checks), and the certificate records those re-check options.
    """
    cands = [tuple(nu)] if nu is not None else candidate_weights(module, d)
    certs = []
    for cand in cands:
        block, vectors = singular_block(module, d, cand, entry_cap=entry_cap)
        if not vectors:
            continue
        for v in vectors:
            if not module.is_singular(v, **checks):
                raise VerificationError(weight_str(module.mu), d,
                                        weight_str(cand), checks)
        certs.append(dict(
            algebra=module.algebra,
            mu=weight_str(module.mu),
            degree=d,
            weight=weight_str(cand),
            block_dim=len(block),
            kernel_dim=len(vectors),
            vectors=[module.terms(v) for v in vectors],
            tool_version=TOOL_VERSION,
            **checks))
    return certs


def search_module(mu, d, nu=None, entry_cap=200000, full_g1=False):
    """Certificates for singular vectors of degree d in M(F(mu)).

    The x_5 d_45 re-check of every kernel vector becomes the 40-element
    degree +1 sweep when full_g1 is set.
    """
    return search_blocks(VermaModule(mu), d, nu=nu,
                         entry_cap=entry_cap, full_g1=bool(full_g1))


def dominant_weights_up_to(coord_sum):
    """All dominant weights with coordinate sum <= coord_sum, sorted."""
    out = []
    for a in range(coord_sum + 1):
        for b in range(coord_sum + 1 - a):
            for c in range(coord_sum + 1 - a - b):
                for d in range(coord_sum + 1 - a - b - c):
                    out.append((a, b, c, d))
    return sorted(out)


def _is_cert_of(cert, key):
    """Whether cert is a well-formed E(5,10) certificate of the cell key."""
    try:
        parse_weight(cert["mu"])
        parse_weight(cert["weight"])
        vectors = cert["vectors"]
        if not (isinstance(vectors, list)
                and all(isinstance(terms, list) for terms in vectors)):
            return False
        for terms in vectors:
            tensor_from_terms(terms)
        return (all(type(cert[n]) is int
                    for n in ("degree", "block_dim", "kernel_dim"))
                and key == "%s|%d" % (cert["mu"], cert["degree"])
                and cert["algebra"] == VermaModule.algebra
                and cert["kernel_dim"] == len(vectors)
                and type(cert["full_g1"]) is bool)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            ZeroDivisionError):
        return False


def _vectors_hold(cert):
    """Whether every vector of a saved certificate lies in the weight space
    of its degree and weight and passes is_singular under its full_g1."""
    module = VermaModule(parse_weight(cert["mu"]))
    block = set(module.weight_space(cert["degree"],
                                    parse_weight(cert["weight"])))
    for terms in cert["vectors"]:
        v = tensor_from_terms(terms)
        if not (all(type(i) is int for _, i in v) and block.issuperset(v)
                and module.is_singular(v, full_g1=cert["full_g1"])):
            return False
    return True


def _load_checkpoint(path):
    """The saved "mu|degree" -> certificate list map, or {} when absent.

    Every saved certificate must be a well-formed certificate of its cell;
    anything else raises ConfigError.
    """
    if not (path and os.path.exists(path)):
        return {}
    with open(path) as fh:
        try:
            state = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ConfigError("unreadable checkpoint %s: %s" % (path, exc))
    if not (isinstance(state, dict) and all(
            isinstance(certs, list) and all(_is_cert_of(c, key) for c in certs)
            for key, certs in state.items())):
        raise ConfigError("checkpoint %s is not a map of cells to their "
                          "certificate lists" % path)
    return state


def _save_checkpoint(path, state):
    if not path:
        return
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(state, fh, sort_keys=True, indent=1)
    os.replace(tmp, path)


def search_cells(cells, checkpoint=None, entry_cap=200000, full_g1=False):
    """Certificate lists of (mu, degree) cells, resumable through a checkpoint.

    The checkpoint file maps "mu|degree" cells to their certificate lists.
    A saved cell is reused only when each of its certificates was checked
    with the requested full_g1 (an empty cell does not depend on it); any
    other cell is searched again and overwritten.  So interrupting and
    restarting yields byte-identical results, and a resumed run never mixes
    in results computed under the other setting.  Each vector of a reused
    certificate is checked again as _vectors_hold says; a saved vector that
    fails raises ConfigError naming the cell.
    """
    state = _load_checkpoint(checkpoint)
    out = []
    for mu, d in cells:
        key = "%s|%d" % (weight_str(mu), d)
        certs = state.get(key)
        if certs is None or any(c.get("full_g1") != bool(full_g1)
                                for c in certs):
            certs = state[key] = search_module(
                mu, d, entry_cap=entry_cap, full_g1=full_g1)
            _save_checkpoint(checkpoint, state)
        elif not all(map(_vectors_hold, certs)):
            raise ConfigError("checkpoint %s: a saved vector of cell %s is "
                              "not a singular vector of its degree and "
                              "weight" % (checkpoint, key))
        out.append(certs)
    return out


def sweep(mus=None, coord_sum=None, degrees=(1, 2, 3, 4), checkpoint=None,
          entry_cap=200000, full_g1=False):
    """Search a grid of modules and degrees; see search_cells for resuming."""
    if mus is None:
        mus = dominant_weights_up_to(coord_sum if coord_sum is not None else 3)
    cells = [(tuple(mu), d) for mu in mus for d in degrees]
    return [cert for certs in search_cells(cells, checkpoint, entry_cap,
                                           full_g1)
            for cert in certs]


def dual_pair_check(mu, d, nu, entry_cap=200000):
    """Compare a singular kernel with its dual-module counterpart.

    A morphism M(F(nu)) -> M(F(mu)) of degree d dualizes to a morphism
    M(F(mu*)) -> M(F(nu*)) of the same degree, so the kernel dimensions at
    (mu, d, nu) and (nu*, d, mu*) must agree.
    """
    mu, nu = tuple(mu), tuple(nu)
    direct = search_module(mu, d, nu=nu, entry_cap=entry_cap)
    mirrored = search_module(dual_weight(nu), d, nu=dual_weight(mu),
                             entry_cap=entry_cap)
    kd = direct[0]["kernel_dim"] if direct else 0
    kdd = mirrored[0]["kernel_dim"] if mirrored else 0
    return {
        "mu": weight_str(mu),
        "degree": d,
        "weight": weight_str(nu),
        "kernel_dim": kd,
        "dual_mu": weight_str(dual_weight(nu)),
        "dual_weight": weight_str(dual_weight(mu)),
        "dual_kernel_dim": kdd,
        "consistent": kd == kdd,
    }
