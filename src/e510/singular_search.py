"""Exact search for singular vectors in finite Verma modules.

A singular vector is a nonzero homogeneous vector of positive degree killed
by the four simple raisings and by the whole degree +1 part.  The degree +1
conditions reduce to the single lowest weight operator x_5 d_45: the
annihilator of a raising-invariant vector is closed under bracketing with
raisings, and the degree +1 part is generated from x_5 d_45 by them.

For a fixed (degree, weight) block the conditions are one sparse linear
system; its kernel is computed exactly over the rationals.  The rows are
integers, and the rows of one condition built in one call share one
denominator; a row's positive scale and the order of the rows do not
change the kernel.  Many rows of the e_i and x_5 d_45 conditions have one
entry, and each forces its column to zero (_peel).  So singular_block
assembles the rows one condition label at a time, in the order of
InducedModule.condition_rows (x_5 d_45, then e_4, e_3, e_2, e_1): after
each label it peels the rows built so far, builds the next label's images
only on the columns still live, and stops once no column is live.  This
keeps the kernel of the full system: by induction the unit vector of
every forced column lies in the span of the rows built before it, so a
later label's row on the live columns differs from its full row by a
combination of those unit vectors, and, as _peel argues, the last peel's
core over the live columns in block order gives the kernel of the full
system, each vector's normalization and key order included.  So
linalg.kernel_basis gets only that core.  The entry cap counts the
entries assembled, checked before the elimination.  Any vector in the
kernel is re-verified through the module action (InducedModule.is_singular,
on the independent per-element path int_conditions) before being reported
in a certificate; a vector that fails raises VerificationError naming the
first condition it fails.  The search reads only the protocol of
verma.InducedModule, so the S5 baseline of s5_verma runs through it too.
"""

import json
import os

from .errors import ConfigError, VerificationError
from .sl5_reps import parse_weight, weight_str, dual_weight
from .linalg import DEFAULT_ENTRY_CAP, check_entry_cap, kernel_basis
from .verma import VermaModule, tensor_from_terms, tensor_terms

TOOL_VERSION = "0.1.0"


def candidate_weights(module, d):
    """Dominant weights with a nonempty (degree d) weight space, sorted."""
    return sorted(module.weight_blocks(d))


def _peel(rows, ncols):
    """(forced columns, the other rows restricted to the live columns).

    rows are nonempty dicts over column positions 0..ncols-1.  Each row
    keeps a count of its live entries; while some row has one, its live
    column is forced to zero and every row through that column loses one.
    The rows returned are those left with two or more live entries,
    restricted to the live columns; a row that lost none is not copied.

    This is the first step of structured Gaussian elimination (LaMacchia
    and Odlyzko, CRYPTO 1990).  By induction the unit vector of each forced
    column lies in the row space, so the forced columns lead rows of every
    echelon of it and every kernel vector vanishes on them, and the rows
    returned span the projection of the row space onto the live columns.
    So the rows returned, over the live columns in their order, give the
    same free columns and the same normalized kernel vectors.
    """
    live = [len(r) for r in rows]
    stack = [i for i, n in enumerate(live) if n == 1]
    if not stack:
        return (), rows
    through = [[] for _ in range(ncols)]
    for i, r in enumerate(rows):
        for c in r:
            through[c].append(i)
    forced = set()
    while stack:
        i = stack.pop()
        if live[i] != 1:  # its last live column was forced meanwhile
            continue
        for c in rows[i]:
            if c not in forced:
                break
        forced.add(c)
        for j in through[c]:
            n = live[j] = live[j] - 1
            if n == 1:
                stack.append(j)
    return forced, [r if n == len(r) else
                    {c: v for c, v in r.items() if c not in forced}
                    for r, n in zip(rows, live) if n > 1]


def singular_block(module, d, nu, entry_cap=DEFAULT_ENTRY_CAP):
    """Block basis and exact kernel of the module's singularity conditions.

    The rows are assembled one condition label at a time, in the order of
    module.condition_rows, and only on the columns that the rows so far
    leave live (module docstring).  Each peel runs over the last peel's
    core and the new rows, which force all that the rows so far force.
    The entry cap is checked on the entries assembled, and kernel_basis
    gets the last peel's core over the live columns.
    """
    block = module.weight_space(d, tuple(nu))
    ncols = len(block)
    entries, core, live = 0, [], range(ncols)
    for _, build in module.condition_rows(block):
        if not live:
            break
        new = list(build(live).values())
        entries += sum(map(len, new))
        forced, core = _peel(core + new, ncols)
        live = [j for j in live if j not in forced]
    check_entry_cap(entries, entry_cap)
    kern = kernel_basis(core, list(live))
    vectors = [{block[j]: c for j, c in k.items()} for k in kern]
    return block, vectors


def search_blocks(module, d, nu=None, entry_cap=DEFAULT_ENTRY_CAP, **checks):
    """Certificates for singular vectors of degree d in an induced module.

    One certificate per weight with a nonzero kernel; candidates are all
    dominant block weights unless nu pins one (dominant) weight down.  Every
    kernel vector is re-verified through module.is_singular(vector,
    **checks), and the certificate records those re-check options.  A
    vector that fails raises VerificationError with the label that
    module.failed_condition gives.
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
                                        weight_str(cand), checks,
                                        module.failed_condition(v, **checks))
        certs.append(dict(
            algebra=module.algebra,
            mu=weight_str(module.mu),
            degree=d,
            weight=weight_str(cand),
            block_dim=len(block),
            kernel_dim=len(vectors),
            vectors=[tensor_terms(v) for v in vectors],
            tool_version=TOOL_VERSION,
            **checks))
    return certs


def search_module(mu, d, nu=None, entry_cap=DEFAULT_ENTRY_CAP, full_g1=False):
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
                and cert["kernel_dim"] == len(vectors) > 0
                and type(cert["full_g1"]) is bool)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            ZeroDivisionError):
        return False


def _is_cell(certs, key):
    """Whether certs are well-formed certificates of the cell key at
    strictly increasing weights, as search_blocks lists them."""
    return (isinstance(certs, list)
            and all(_is_cert_of(c, key) for c in certs)
            and all(parse_weight(a["weight"]) < parse_weight(b["weight"])
                    for a, b in zip(certs, certs[1:])))


def _cert_holds(cert):
    """Whether a saved certificate's block_dim is the dimension of the
    weight space of its degree and weight, and every vector lies in that
    space and passes is_singular under its full_g1."""
    module = VermaModule(parse_weight(cert["mu"]))
    block = module.weight_space(cert["degree"], parse_weight(cert["weight"]))
    if cert["block_dim"] != len(block):
        return False
    block = set(block)
    for terms in cert["vectors"]:
        v = tensor_from_terms(terms)
        if not (all(type(i) is int for _, i in v) and block.issuperset(v)
                and module.is_singular(v, full_g1=cert["full_g1"])):
            return False
    return True


def _load_checkpoint(path):
    """The saved "mu|degree" -> certificate list map, or {} when absent.

    Every saved cell must be a list of well-formed certificates of that
    cell at strictly increasing weights (_is_cell); anything else raises
    ConfigError.
    """
    if not (path and os.path.exists(path)):
        return {}
    with open(path) as fh:
        try:
            state = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ConfigError("unreadable checkpoint %s: %s" % (path, exc))
    if not (isinstance(state, dict) and all(
            _is_cell(certs, key) for key, certs in state.items())):
        raise ConfigError("checkpoint %s is not a map of cells to their "
                          "certificate lists" % path)
    return state


def _save_checkpoint(path, state, encoded):
    """Write state as json.dump(state, fh, sort_keys=True, indent=1) would.

    encoded caches the text of each cell, "key": certificate list, at the
    indent it has in the file; cells of state missing from it are encoded
    and added, so a caller that changes a cell drops it from encoded first.
    The file is the sorted join of the cells, and each cell is encoded once
    while it stays unchanged.  JSON strings hold no raw newline, so
    indenting every line of a cell's own encoding by one space gives the
    nested encoding.
    """
    if not path:
        return
    for key in state.keys() - encoded.keys():
        encoded[key] = "%s: %s" % (json.dumps(key), json.dumps(
            state[key], sort_keys=True, indent=1).replace("\n", "\n "))
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        if encoded:
            fh.write("{\n %s\n}" % ",\n ".join(
                encoded[key] for key in sorted(encoded)))
        else:
            fh.write("{}")
    os.replace(tmp, path)


def search_cells(cells, checkpoint=None, entry_cap=DEFAULT_ENTRY_CAP,
                 full_g1=False):
    """Certificate lists of (mu, degree) cells, resumable through a checkpoint.

    The checkpoint file maps "mu|degree" cells to their certificate lists.
    A saved cell is reused only when each of its certificates was checked
    with the requested full_g1 (an empty cell does not depend on it); any
    other cell is searched again and overwritten.  So interrupting and
    restarting yields byte-identical results, and a resumed run never mixes
    in results computed under the other setting.  Each reused certificate
    is checked again as _cert_holds says; one that fails raises
    ConfigError naming the cell.
    """
    state = _load_checkpoint(checkpoint)
    encoded = {}  # the checkpoint text of each unchanged cell
    out = []
    for mu, d in cells:
        key = "%s|%d" % (weight_str(mu), d)
        certs = state.get(key)
        if certs is None or any(c.get("full_g1") != bool(full_g1)
                                for c in certs):
            certs = state[key] = search_module(
                mu, d, entry_cap=entry_cap, full_g1=full_g1)
            encoded.pop(key, None)
            _save_checkpoint(checkpoint, state, encoded)
        elif not all(map(_cert_holds, certs)):
            raise ConfigError("checkpoint %s: a saved certificate of cell %s "
                              "has a block_dim or a vector that its degree "
                              "and weight do not give" % (checkpoint, key))
        out.append(certs)
    return out


def sweep(mus=None, coord_sum=None, degrees=(1, 2, 3, 4), checkpoint=None,
          entry_cap=DEFAULT_ENTRY_CAP, full_g1=False):
    """Search a grid of modules and degrees; see search_cells for resuming."""
    if mus is None:
        mus = dominant_weights_up_to(coord_sum if coord_sum is not None else 3)
    cells = [(tuple(mu), d) for mu in mus for d in degrees]
    return [cert for certs in search_cells(cells, checkpoint, entry_cap,
                                           full_g1)
            for cert in certs]


def dual_pair_check(mu, d, nu, entry_cap=DEFAULT_ENTRY_CAP):
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
