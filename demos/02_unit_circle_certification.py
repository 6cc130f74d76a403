#!/usr/bin/env python3
"""The three certification engines, cross-validated by root finding.

1. Coefficient criteria (Schinzel with the explicit constants) for S_k and
   Y_k/z: a positive margin enclosure proves every zero sits on |z| = 1.
2. The oscillation method for W_k and Q_k: an explicit trigonometric
   comparison function alternates on a certified sample grid while the exact
   coefficient sum bounds the approximation error.
3. Sign counting for P_k, where no criterion applies: on |z| = 1,
   e^(-ikt) P_k(e^(it)) is a real (k even) or imaginary (k odd) trig
   polynomial whose sign changes on (0, pi) are the circle zeros.

Each certificate is then cross-checked by locating all roots in integer
discs, each proved by Rouche's theorem to hold exactly one root.
"""

import time

from circlezero import build_family
from circlezero.roots import verify_by_roots
from circlezero.signcount import verify_by_sign_count
from circlezero.verify import FAMILY_SPECS, criteria_check, oscillation_verify

print("== 1. coefficient criteria ==")
for fam in ("S", "Y"):
    # FAMILY_SPECS[fam].schinzel(k) is the paper's explicit Schinzel constant
    rep = criteria_check(build_family(fam, 20))
    print(f"  {rep.criterion.capitalize()} on {fam}_20: {rep.holds}, "
          f"margin > {float(rep.margin.lower):.3e}")

print("\n== 2. oscillation ==")
for fam, spec in FAMILY_SPECS.items():
    if spec.oscillation is not None:
        print(f"  {fam}: d = {spec.oscillation.d}, oscillation from k = {spec.oscillation.min_k}")
for k in (12, 40):
    rep = oscillation_verify(build_family("W", k))
    osc = rep.detail["oscillation"]
    print(f"  W_{k}: certified={rep.certified}, {rep.zeros_on_circle} zeros, "
          f"uniform bound {osc['bound_mid'][:8]} < 0.3, order {osc['order_achieved']}")
rep = oscillation_verify(build_family("Q", 15))
print(f"  Q_15: certified={rep.certified}, {rep.zeros_on_circle} nontrivial zeros "
      f"(plus {rep.origin_zeros} at the origin)")

print("\n== 3. sign counting ==")
for k in (2, 50, 150):
    t0 = time.time()
    rep = verify_by_sign_count(build_family("P", k))
    print(f"  P_{k}: certified={rep.certified}, {rep.zeros_on_circle} zeros, "
          f"grid {rep.detail['grid']}, {time.time() - t0:.2f}s")

print("\n== cross-validation by certified root finding ==")
for fam, k in (("P", 12), ("Q", 12), ("W", 12), ("Y", 12), ("S", 12)):
    rep = verify_by_roots(build_family(fam, k))
    print(f"  {fam}_{k}: {rep.detail['n_roots']} roots, "
          f"max | |z|-1 | < {float(rep.max_mod_dev.upper):.2e}, "
          f"min separation > {float(rep.min_root_sep.lower):.3f}")

print("\n== a family that is NOT all on the circle ==")
rep = verify_by_roots(build_family("R", 5))
print(f"  R_5 (full palindromic sum): verdict {rep.verdict}: "
      f"{rep.zeros_on_circle} of {rep.degree_nontrivial} zeros on the circle "
      f"(four real zeros lie off it)")
