"""
A first walk through the graded Lie superalgebra
================================================

The algebra lives in graded pieces g_-2, g_-1, g_0, g_1: polynomial
vector fields p_i, constant 2-forms d_ij, the matrix algebra gl5, and
linear 2-forms x_k d_ij.  Everything below is exact rational arithmetic.
"""

from e510.e510_algebra import (
    bracket, p_gen, d_gen, e_gen, cartan_gen, g1_basis,
    jacobi_residual, closed_two_form_space,
)

# two constant 2-forms multiply into a vector field: d12 wedge d34 spans
# the volume form with p5 left over
print("[d12, d34] =", bracket(d_gen(1, 2), d_gen(3, 4)))

# overlapping forms annihilate each other
print("[d12, d13] =", bracket(d_gen(1, 2), d_gen(1, 3)))

# gl5 rotates indices; e_12 = x1 p2 sends d23 to d13
print("[e12, d23] =", bracket(e_gen(1, 2), d_gen(2, 3)))

# the degree +1 part consists of the closed linear 2-forms; x5 d45 is the
# lowest weight one, and raising it generates all 40.  A direct kernel of
# the de Rham differential gives the same space
print("dim g1 =", len(g1_basis()))
print("closedness kernel dim =", len(closed_two_form_space()))

# the super Jacobi identity holds on genuine elements of every grade
probes = [
    (p_gen(2), d_gen(1, 3), d_gen(2, 4)),
    (e_gen(2, 1), d_gen(1, 5), g1_basis()[0]),
    (cartan_gen(1), e_gen(1, 2), d_gen(2, 3)),
]
for x, y, z in probes:
    assert jacobi_residual(x, y, z) == {}
print("jacobi residuals vanish on", len(probes), "probe triples")
