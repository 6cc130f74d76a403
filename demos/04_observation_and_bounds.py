#!/usr/bin/env python3
"""Why no coefficient criterion can handle P_k, and the classical bounds.

Expanding |P_k(iz)|^2 gives a reciprocal polynomial whose coefficients mix
even-zeta rationals with lam^2.  Its top-coefficient dominance sum evaluates
exactly: sum_j |A_4k - A_j| = 4k(k-1) |A_4k|, so the dominance margin is
|A_4k| (1 - 4k(k-1)) < 0 and the criterion fails for every k >= 2, even
though all the zeros really are on the circle.  Remarkably the lam^2 parts
cancel exactly when the sum is expanded with certified signs.

Also runs the classical |B_2n| and |E_2n| sandwiches and the Euler-product
bounds on zeta that the verification proofs lean on.
"""

from fractions import Fraction

from circlezero import check_bernoulli_bounds, check_euler_bounds, zeta_int
from circlezero.criteria import abs_square_poly, lakatos_check, observation_identity

F = Fraction

print("Lakatos dominance margin on |P_k(iz)|^2:")
for k in (2, 3, 6):
    rep = lakatos_check(abs_square_poly(k))
    print(f"  k={k}: {rep.holds}, margin midpoint {float(rep.margin.midpoint):.3e} "
          f"(= |A_4k| (1 - 4k(k-1)))")

print("\nthe exact cancellation behind it:")
for k in (2, 5, 20):
    exact_ok, residual = observation_identity(k)
    print(f"  k={k}: sum |A_4k - A_j| = 4k(k-1) |A_4k| exactly: {exact_ok} "
          f"(lam^2 parts cancel; residual radius {float(residual.radius):.1e})")

print("\nclassical bounds (certified against rational pi enclosures):")
for n in (1, 10, 100, 200):
    classical, sharper = check_bernoulli_bounds(n)
    e_ok = check_euler_bounds(n)
    print(f"  n={n:>3}: Bernoulli sandwich {classical}, sharper lower {sharper}, "
          f"Euler sandwich {e_ok}")

print("\nEuler-product sandwich 1/(1-2^-n) < zeta(n) < 1/(1-2^(1-n)):")
for n in (3, 16, 64):
    z = zeta_int(n, 96 + 2 * n)
    lo = F(2 ** n, 2 ** n - 1)
    hi = F(2 ** (n - 1), 2 ** (n - 1) - 1)
    print(f"  n={n:>2}: certified {z.gt(lo) and z.lt(hi)}")
