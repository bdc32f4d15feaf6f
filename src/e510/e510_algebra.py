"""The exceptional linearly compact Lie superalgebra E(5,10), graded part.

Supported graded pieces and their basis symbols:

    g_-2  ("p", i)          coordinate vector fields p1..p5        (even)
    g_-1  ("d", f)          constant 2-forms dij, f indexing PAIRS (odd)
    g_0   ("e", a, b)       gl5 matrix units x_a p_b               (even)
    g_1   ("xd", k, f)      linear 2-forms x_k dij                 (odd)

Elements are dicts symbol -> scalar.  g_0 proper is sl5 (traceless), and
g_1 proper consists of the closed linear 2-forms; single ("e",a,a) or
non-closed ("xd") symbols occur only as intermediate terms.  Brackets with
both arguments in g_1 land in g_2, which is outside the supported range and
raises DegreeError.
"""

from functools import lru_cache

from .scalars import Q
from .uminus import (PAIRS, EPS, TMATE, add_scaled, form_step, oriented,
                     perm_sign)
from .linalg import Echelon

GRADE = {"p": -2, "d": -1, "e": 0, "xd": 1}
PARITY = {"p": 0, "d": 1, "e": 0, "xd": 1}


class DegreeError(ValueError):
    """Bracket lands outside the supported grading range g_-2..g_1."""


def parity_of(elem):
    ps = {PARITY[s[0]] for s in elem}
    if len(ps) > 1:
        raise ValueError("element has mixed parity")
    return ps.pop() if ps else 0


def _sym_bracket(x, y):
    """Bracket of two basis symbols as a dict symbol -> int coefficient."""
    kx, ky = x[0], y[0]
    if GRADE[kx] > GRADE[ky]:
        # odd-odd brackets are symmetric, even ones antisymmetric
        return {s: (c if PARITY[kx] & PARITY[ky] else -c)
                for s, c in _sym_bracket(y, x).items()}
    if GRADE[kx] + GRADE[ky] > 1:
        raise DegreeError("bracket of %s and %s lands in g_2" % (x, y))
    out = {}
    if kx == "p":
        if ky in ("p", "d"):
            return out
        if ky == "e":
            # [p_c, x_a p_b] = delta_ca p_b
            _, c = x
            _, a, b = y
            if c == a:
                out[("p", b)] = 1
            return out
        if ky == "xd":
            # [p_i, x_k dq] = delta_ik dq
            _, i = x
            _, k, f = y
            if i == k:
                out[("d", f)] = 1
            return out
    if kx == "d":
        if ky == "d":
            _, p = x
            _, q = y
            e = EPS[p][q]
            if e:
                out[("p", TMATE[p][q])] = e
            return out
        if ky == "e":
            # -[x_a p_b, d_lm] with Lie derivative action on the form
            _, f = x
            _, a, b = y
            step = form_step(a, b, f)
            if step:
                out[("d", step[0])] = -step[1]
            return out
        if ky == "xd":
            # [d_p, x_k d_q] = eps(p,q) x_k p_t  (symmetric in the two forms)
            _, p = x
            _, k, q = y
            e = EPS[p][q]
            if e:
                out[("e", k, TMATE[p][q])] = e
            return out
    if kx == "e":
        if ky == "e":
            _, a, b = x
            _, c, d = y
            if b == c:
                out[("e", a, d)] = out.get(("e", a, d), 0) + 1
            if d == a:
                out[("e", c, b)] = out.get(("e", c, b), 0) - 1
            return {s: v for s, v in out.items() if v}
        if ky == "xd":
            # [x_a p_b, x_k d_p] = delta_bk x_a d_p + x_k (L_ab d_p)
            _, a, b = x
            _, k, f = y
            if b == k:
                out[("xd", a, f)] = out.get(("xd", a, f), 0) + 1
            step = form_step(a, b, f)
            if step:
                key = ("xd", k, step[0])
                out[key] = out.get(key, 0) + step[1]
            return {s: v for s, v in out.items() if v}
    raise DegreeError("bracket of %s and %s is unsupported" % (x, y))


def bracket(x, y):
    """Super bracket of two elements (dicts symbol -> scalar)."""
    out = {}
    for sx, cx in x.items():
        for sy, cy in y.items():
            add_scaled(out, _sym_bracket(sx, sy), cx * cy)
    return out


def jacobi_residual(x, y, z):
    """[x,[y,z]] - [[x,y],z] - (-1)^(|x||y|) [y,[x,z]]."""
    px, py = parity_of(x), parity_of(y)
    out = bracket(x, bracket(y, z))
    add_scaled(out, bracket(bracket(x, y), z), -1)
    add_scaled(out, bracket(y, bracket(x, z)), 1 if (px and py) else -1)
    return out


def p_gen(i):
    return {("p", i): Q(1)}


def d_gen(i, j):
    o = oriented(i, j)
    if o is None:
        return {}
    return {("d", o[0]): Q(o[1])}


def xd_gen(k, i, j):
    o = oriented(i, j)
    if o is None:
        return {}
    return {("xd", k, o[0]): Q(o[1])}


def e_gen(a, b):
    return {("e", a, b): Q(1)}


def cartan_gen(i):
    return {("e", i, i): Q(1), ("e", i + 1, i + 1): Q(-1)}


@lru_cache(maxsize=None)
def g1_basis():
    """The 40 closed linear 2-forms, generated from x5 d45 by raisings.

    Deterministic order: breadth-first closure applying ad(e_1)..ad(e_4).
    Cached: every call returns the same list.
    """
    basis = [xd_gen(5, 4, 5)]
    ech = Echelon()
    ech.insert(basis[0], 0)
    i = 0
    while i < len(basis):
        for r in range(1, 5):
            img = bracket(e_gen(r, r + 1), basis[i])
            if img and ech.insert(img, len(basis)):
                basis.append(img)
        i += 1
    return basis


def closed_two_form_space():
    """Kernel of the de Rham differential on linear 2-forms (dim 40).

    Independent route to g_1: a direct closedness kernel instead of the
    raising closure.
    """
    from .linalg import kernel_basis
    cols = [("xd", k, f) for k in range(1, 6) for f in range(10)]
    rows = {}
    # d(x_k dx_i ^ dx_j) = dx_k ^ dx_i ^ dx_j: coefficient on each 3-subset
    for k in range(1, 6):
        for f in range(10):
            i, j = PAIRS[f]
            if k in (i, j):
                continue
            tri = tuple(sorted((k, i, j)))
            sgn = perm_sign((k, i, j))
            rows.setdefault(tri, {})[("xd", k, f)] = Q(sgn)
    return kernel_basis(rows.values(), cols)
