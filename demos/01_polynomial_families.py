#!/usr/bin/env python3
"""Tour of the six polynomial families.

Builds each family at small index, shows the exact pi-normalized
coefficients, and checks the structural identities that hold in pure
rational arithmetic: self-inversive symmetry, the closed-form vs
linear-combination agreement for Q and W, the coefficient-sum evaluations.
"""

from circlezero import build_family, build_P, build_Q, build_S, build_W, build_Y
from circlezero.families import combination_identity, s_at_one, y_coeff_sum


def show(poly, label):
    print(f"\n{label}  (degree {poly.degree}, pi power {poly.pi_power}, "
          f"epsilon {poly.epsilon:+d})")
    for j, c in enumerate(poly.coeffs):
        if not c.is_zero():
            parts = []
            if c.a:
                parts.append(f"{c.a}")
            if c.b:
                parts.append(f"{c.b} lam" if c.b != 1 else "lam")
            if c.c:
                parts.append(f"{c.c} lam^2")
            print(f"  z^{j}: {' + '.join(parts)}")


print("lam denotes zeta(2k-1)/pi^(2k-1), the only transcendental in sight.")

show(build_S(2), "S_2(z) = 5 + 6z + 5z^2")
show(build_P(2), "P_2 / pi^3   (multiply by -90: z^4 + 5z^2 + 1 - 90 lam (z^3 + z))")
show(build_Q(2), "Q_2 / pi^3   (= -z^2/2 + 7 lam (z + z^3))")
show(build_W(2), "W_2 / pi^3   (proportional to 7 - 10 z^2 + 7 z^4)")
show(build_Y(3), "Y_3 / pi^6   (= -(z + z^2)/192)")

print("\nStructural checks (exact rational arithmetic):")
for fam in "RPQYWS":
    poly = build_family(fam, 6)
    print(f"  {fam}_6 self-inversive: {poly.self_inversive_ok()} (epsilon {poly.epsilon:+d})")

q_match, w_scalar = combination_identity(9)
print(f"\n  Q_9 closed form = combination: {q_match}; "
      f"W_9 closed form / combination = {w_scalar} (exactly, every k)")

lhs, rhs = s_at_one(4)
print(f"  |S_4(1)| = {lhs} = 2^9 (2^10 - 1) |B_10| / 5 = {rhs}")

lhs, rhs = y_coeff_sum(7)
print(f"  sum of Y_7/z coefficients = {lhs} = Bernoulli closed form: {lhs == rhs}")
