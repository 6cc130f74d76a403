"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines and timings.
"""

import time
from fractions import Fraction

from circlezero.approx import (
    approx1_zeta3,
    approx2_zeta3,
    ramanujan_identity_residual,
    sech_identity_residual,
)
from circlezero.exact import check_bernoulli_bounds, check_euler_bounds
from circlezero.enclosure import zeta_int
from circlezero.families import (
    build_family,
    build_P,
    build_Q,
    build_S,
    build_W,
    build_Y,
    combination_identity,
    s_at_one,
    y_coeff_sum,
)
from circlezero.criteria import (
    observation_identity,
    schinzel_check,
    schinzel_constant_S,
    schinzel_constant_Y,
)
from circlezero.reports import CERTIFIED_TRUE
from circlezero.roots import find_roots, simplicity_check, verify_by_roots
from circlezero.signcount import verify_by_sign_count
from circlezero.verify import oscillation_verify_Q, oscillation_verify_W

F = Fraction


def report(name: str, ok: bool, t0: float, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    msg = f"ACCEPTANCE {status}: {name} ({time.time() - t0:.1f}s)"
    if extra:
        msg += f" [{extra}]"
    print(msg, flush=True)
    assert ok, name


def test_criterion_1_p_sign_count_to_200():
    """P*_k certified with 2k sign changes in [-1,1] for 2 <= k <= 200;
    simplicity via min root separation > 1e-10 for k <= 60."""
    t0 = time.time()
    ok = True
    for k in range(2, 201):
        rep = verify_by_sign_count(build_P(k))
        if not (rep.certified and rep.zeros_on_circle == 2 * k):
            ok = False
            break
    min_sep = None
    for k in range(2, 61):
        discs = find_roots(build_P(k))
        lo, _ = simplicity_check(discs)
        if not lo * 10 ** 10 > 1 << discs.prec:
            ok = False
            break
        v = lo / 2 ** discs.prec
        min_sep = v if min_sep is None or v < min_sep else min_sep
    report("P_k sign-count 2..200 + simplicity k<=60", ok, t0,
           f"min separation {min_sep:.3e}")


def test_criterion_2_schinzel_margins():
    """Schinzel criterion with the stated constants: S_k 1..50 and Y_k/z 3..50."""
    t0 = time.time()
    ok = True
    for k in range(1, 51):
        rep = schinzel_check(build_S(k), schinzel_constant_S(k))
        if rep.holds != CERTIFIED_TRUE or rep.margin.sign() <= 0:
            ok = False
            break
    for k in range(3, 51):
        rep = schinzel_check(build_Y(k), schinzel_constant_Y(k))
        if rep.holds != CERTIFIED_TRUE or rep.margin.sign() <= 0:
            ok = False
            break
    report("Schinzel margins: S_k 1..50, Y_k/z 3..50", ok, t0)


def test_criterion_3_oscillation():
    """Oscillation certification: W_k 11..60 (d=0.3), Q_k 7..60 (d=0.03);
    smaller k certified via the sign-count route."""
    t0 = time.time()
    ok = True
    for k in range(11, 61):
        rep = oscillation_verify_W(build_W(k))
        if not (rep.certified and rep.method == "oscillation" and rep.zeros_on_circle == 2 * k):
            ok = False
            break
    if ok:
        for k in range(7, 61):
            rep = oscillation_verify_Q(build_Q(k))
            if not (rep.certified and rep.method == "oscillation"
                    and rep.zeros_on_circle == 2 * k - 2):
                ok = False
                break
    if ok:
        for k in range(2, 11):
            if not oscillation_verify_W(build_W(k)).certified:
                ok = False
                break
        for k in range(2, 7):
            if not oscillation_verify_Q(build_Q(k)).certified:
                ok = False
                break
    report("oscillation: W 11..60, Q 7..60 (+ small k sign-count)", ok, t0)


def test_criterion_4_cross_method_roots():
    """find_roots cross-check for every certified (family, k), k <= 40:
    max | |z| - 1 | < 1e-20 at 128 bits, origin zeros match (Q: 1, Y: 1)."""
    t0 = time.time()
    ok = True
    worst = 0.0
    for fam in ("P", "Q", "W", "Y", "S"):
        k_lo = 1 if fam == "S" else 2
        for k in range(k_lo, 41):
            rep = verify_by_roots(build_family(fam, k))
            dev = float(rep.max_mod_dev.upper) if rep.max_mod_dev is not None else 0.0
            worst = max(worst, dev)
            want_origin = 1 if fam in ("Q", "Y") else 0
            if not rep.certified and build_family(fam, k).strip_origin().degree > 0:
                ok = False
            if dev >= 1e-20 or rep.origin_zeros != want_origin:
                ok = False
            if not ok:
                break
        if not ok:
            break
    report("cross-method roots k<=40: max | |z|-1 | < 1e-20", ok, t0,
           f"worst deviation {worst:.3e}")


def test_criterion_5_zeta3_approximations():
    """approx1 >= 6 matched decimals, approx2 >= 4 (seed 0.92 - 0.39i),
    approx2 strictly fewer than approx1 at 128 bits."""
    t0 = time.time()
    r1 = approx1_zeta3(128)
    r2 = approx2_zeta3(128)
    ok = (r1.matched_decimals >= 6 and r2.matched_decimals >= 4
          and r2.matched_decimals < r1.matched_decimals
          and abs(float(r2.root.re.midpoint) - 0.92) < 0.01
          and abs(float(r2.root.im.midpoint) + 0.39) < 0.01)
    report("zeta(3) approximations: 6 and 4 matched decimals", ok, t0,
           f"approx1={r1.matched_decimals}, approx2={r2.matched_decimals}")


def test_criterion_6_exact_identities():
    """Exact rational identities for k <= 60 (every k that criterion 3
    certifies): |S_k(1)| closed form, the Y_k/z coefficient-sum evaluation,
    Q closed = combination, W closed = 2 x combination, self-inversive
    symmetry for all six families."""
    t0 = time.time()
    ok = True
    for k in range(1, 61):
        lhs, rhs = s_at_one(k)
        ok = ok and lhs == rhs
    for k in range(2, 61):
        lhs, rhs = y_coeff_sum(k)
        ok = ok and lhs == rhs
        ok = ok and combination_identity(k) == (True, 2)
        for fam in "RPQYWS":
            ok = ok and build_family(fam, k).self_inversive_ok()
        if not ok:
            break
    report("exact identities k<=60 (S(1), Y sums, Q/W forms, symmetry)", ok, t0)


def test_criterion_7_observation():
    """4k(k-1)|A_4k| - sum |A_4k - A_j| encloses 0 with width < 1e-30 at
    256 bits for 2 <= k <= 50 (and holds exactly in Q[lam^2])."""
    t0 = time.time()
    ok = True
    for k in range(2, 51):
        exact_ok, residual = observation_identity(k, 256)
        width = 2.0 * float(residual.radius)
        if not (exact_ok and residual.contains_zero() and width < 1e-30):
            ok = False
            break
    report("observation identity 2..50: width < 1e-30 at 256 bits", ok, t0)


def test_criterion_8_identity_grids():
    """Series identity residuals enclose 0: the exponential identity for
    k in 2..10, z in {1/2, 1, 3/2, 0.3+0.7i}; the sech identity for k in 1..8,
    z in {1/2, 1, 2}; certified widths < 1e-25."""
    t0 = time.time()
    ok = True
    worst = 0.0
    zs = [(F(1, 2), F(0)), (F(1), F(0)), (F(3, 2), F(0)), (F(3, 10), F(7, 10))]
    for k in range(2, 11):
        for z in zs:
            se = ramanujan_identity_residual(k, z, None, bits=256)
            worst = max(worst, se.residual_width())
            if not se.encloses_zero() or se.residual_width() >= 1e-25:
                ok = False
                break
        if not ok:
            break
    if ok:
        for k in range(1, 9):
            for z in (F(1, 2), F(1), F(2)):
                se = sech_identity_residual(k, z, None, bits=256)
                worst = max(worst, se.residual_width())
                if not se.encloses_zero() or se.residual_width() >= 1e-25:
                    ok = False
                    break
            if not ok:
                break
    report("identity residual grids: widths < 1e-25", ok, t0,
           f"worst width {worst:.3e}")


def test_criterion_9_bound_suites():
    """Bernoulli sandwich + sharper lower bound and Euler bounds for all
    n <= 200; Euler-product zeta sandwich for 3 <= n <= 64."""
    t0 = time.time()
    ok = True
    for n in range(1, 201):
        classical, sharper = check_bernoulli_bounds(n)
        ok = ok and classical and sharper and check_euler_bounds(n)
        if not ok:
            break
    if ok:
        for n in range(3, 65):
            z = zeta_int(n, 96 + 2 * n)
            ok = ok and z.gt(F(2 ** n, 2 ** n - 1)) and z.lt(F(2 ** (n - 1), 2 ** (n - 1) - 1))
            if not ok:
                break
    report("bound suites: Bernoulli/Euler n<=200, zeta sandwich 3..64", ok, t0)
