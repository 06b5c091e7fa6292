"""Certifying local optimality, with exact witnesses.

Three planar lattices tell the whole story: the hexagonal lattice is a
certified isolated optimum, the square lattice is a first-order blind spot
(eutactic but not perfect), and diag(1, 2) is refuted outright with an
explicit density-improving direction.  The certificate carries the
direction; ``improvement_step`` finds a step along it that provably raises
the density.
"""

from fractions import Fraction as Fr

from periform import PQF, PeriodicForm, certify, density
from periform.certify import improvement_step

HEX = PeriodicForm.lattice(PQF.from_rows([[2, 1], [1, 2]]))
SQUARE = PeriodicForm.lattice(PQF.from_rows([[1, 0], [0, 1]]))
STRETCHED = PeriodicForm.lattice(PQF.from_rows([[1, 0], [0, 2]]))

for label, x in [("hexagonal", HEX), ("square", SQUARE), ("diag(1,2)", STRETCHED)]:
    cert = certify(x)
    print(f"{label}: {cert.verdict}")
    print(f"  minimum {cert.lam}, domain rank {cert.rank} of {cert.ambient}, "
          f"eutaxy {cert.eutaxy.tag}")
    if cert.eutaxy.witness:
        print(f"  eutaxy coefficients: {[str(a) for a in cert.eutaxy.witness]}")
    if cert.uncertainty_basis is not None:
        print(f"  uncertainty dimension: {len(cert.uncertainty_basis)}")
    if cert.improving is not None:
        n = cert.improving
        qrows = [[str(v) for v in row] for row in n.qpart.rows()]
        print(f"  improving direction Q-part: {qrows}")
        before = density(x, cert.lam)
        eps, stepped = improvement_step(x, n, before)
        after = density(stepped).center_density_squared
        print(f"  verified step eps = {eps}: center^2 {before.center_density_squared} -> {after}")
    print()

# The square lattice's uncertainty direction is the shear toward hexagonal;
# stepping along it by 1/2 lands exactly on the hexagonal form.
cert = certify(SQUARE)
shear = cert.uncertainty_basis[0]
stepped = SQUARE.add_tangent(shear.scale(Fr(1, 2) / shear.qpart.entry(0, 1)))
print("square + shear/2 ->", [[str(v) for v in row] for row in stepped.q.form.rows()])
print("certify(stepped):", certify(stepped).verdict)
