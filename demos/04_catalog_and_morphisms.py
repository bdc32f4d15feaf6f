"""
The classification catalog and its morphisms
============================================

Thirteen families of singular vectors, each turning into a module map by
sending the source highest weight vector to the singular vector and
extending with lowering words.  Compositions reproduce the higher families.
"""

from e510.catalog import (
    FAMILY_NAMES, MorphismTable, family_data, verify_family, family_morphism,
    compose, composition_identity_reports,
)

# every family instance carries its module, degree and singular weight
for fam in FAMILY_NAMES:
    mu, lam, deg = family_data(fam, m=0, n=0)
    print("%-4s M%s <- M%s at degree %d" % (fam, mu, lam, deg))

# exhaustive checks: nonzero, right weight and degree, killed by raisings
# and by all 40 degree +1 operators
rec = verify_family("4E", n=1)
print("4E at n=1 verifies:", rec["ok"], "height", rec["height"])

# morphisms compose; the two degree-1 maps through M(0,0,1,0) hit the
# degree-2 family on the nose (MorphismTable.composite carries only the
# singular vector through the chain, which is all this reads)
print("1C o 1A lands at",
      [k for k in MorphismTable().composite(("1C", 0, 0), ("1A", 0, 0))][:2],
      "...")

# all six stacked identities hold with scalar one
for r in composition_identity_reports():
    print("%-5s = %s, scalar %s" % (r["target"], " o ".join(r["factors"]),
                                    r["scalar"]))

# odd generators square to zero, so the degree-1 chain is a complex
sq = compose(family_morphism("1A", m=0, n=0), family_morphism("1A", m=0, n=1))
print("degree-1 chain squares to zero:", not any(sq.images))
