"""
The classification catalog and its morphisms
============================================

Thirteen families of singular vectors, each turning into a module map by
sending the source highest weight vector to the singular vector and
extending with lowering words.  Compositions reproduce the higher families.
"""

from e510.catalog import (
    FAMILY_NAMES, MorphismTable, family_data, verify_family,
    composition_identity_reports,
)

# every family instance carries its module, degree and singular weight
for fam in FAMILY_NAMES:
    mu, lam, deg = family_data(fam, m=0, n=0)
    print("%-4s M%s <- M%s at degree %d" % (fam, mu, lam, deg))

# exhaustive checks: nonzero, right weight and degree, killed by raisings
# and by all 40 degree +1 operators
rec = verify_family("4E", n=1)
print("4E at n=1 verifies:", rec["ok"], "height", rec["height"])
assert rec["ok"], rec

# morphisms compose; the two degree-1 maps through M(0,0,1,0) hit the
# degree-2 family on the nose (MorphismTable.composite carries only the
# singular vector through the chain, which is all this reads)
table = MorphismTable()
print("1C o 1A lands at",
      [k for k in table.composite(("1C", 0, 0), ("1A", 0, 0))][:2], "...")

# all six stacked identities hold with scalar one
for r in composition_identity_reports(table):
    print("%-5s = %s, scalar %s" % (r["target"], " o ".join(r["factors"]),
                                    r["scalar"]))
    assert r["ok"], r

# odd generators square to zero, so the degree-1 chain is a complex; a
# morphism of Verma modules is zero exactly when its singular vector is
sq = table.composite(("1A", 0, 0), ("1A", 0, 1))
print("degree-1 chain squares to zero:", not sq)
assert not sq
