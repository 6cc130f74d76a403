"""Ball arithmetic: enclosure soundness, zeta providers, function enclosures."""

import random
from decimal import ROUND_CEILING, Context
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import (from_int, from_man_exp, from_rational, mpf_mul, mpf_sub, to_rational,
                          to_str)

from circlezero.enclosure import (
    GUARD,
    ComplexEnclosure,
    RealEnclosure,
    ball_acos,
    ball_cos,
    ball_cos_sin,
    ball_exp,
    ball_sech,
    ball_sin,
    escalate,
    exp_complex,
    lambda_k,
    zeta_int,
    zeta_odd,
    _borwein_weights,
    _pow_bounds,
)
from circlezero import fixed
from circlezero.criteria import schinzel_constant_S, schinzel_constant_Y
from circlezero.errors import DomainError


def in_ball(value_mpf, ball: RealEnclosure) -> bool:
    return ball.lower <= value_mpf <= ball.upper


def test_pi_radius_contract():
    for bits in (64, 128, 256):
        pi = RealEnclosure.pi(bits)
        assert pi.radius <= mp.mpf(2) ** (-bits + 4) * pi.midpoint
        with mp.workprec(bits + 64):
            assert in_ball(mp.pi, pi)


def test_sin_of_pi_encloses_zero():
    assert ball_sin(RealEnclosure.pi(128)).contains_zero()


def test_cos_of_pi_encloses_minus_one():
    assert ball_cos(RealEnclosure.pi(128)).contains(Fraction(-1))


def test_exp_zero_is_one():
    e = ball_exp(RealEnclosure.exact(0, 128))
    assert e.contains(Fraction(1))
    assert float(e.radius) < 1e-35


def test_zeta3_reference_digits():
    z3 = zeta_odd(3, 128)
    with mp.workprec(256):
        ref = mp.zeta(3)
        assert in_ball(ref, z3)
    assert float(z3.radius) <= 2.0 ** (-120)


def test_zeta5_reference():
    z5 = zeta_odd(5, 128)
    with mp.workprec(256):
        assert in_ball(mp.zeta(5), z5)


def test_zeta_odd_high_s_near_one():
    # zeta(s) - 1 < 2 * 2^(1-s) for s >= 11
    for s in (11, 21, 41):
        z = zeta_odd(s, 96)
        assert (z - 1).lt(Fraction(2, 2 ** (s - 1)))


def test_zeta_nested_precisions():
    z64 = zeta_int(3, 64)
    z128 = zeta_int(3, 128)
    z256 = zeta_int(3, 256)
    # each finer ball lies inside the coarser one, endpoint by endpoint
    assert z64.lower <= z128.lower and z128.upper <= z64.upper
    assert z128.lower <= z256.lower and z256.upper <= z128.upper


def test_zeta_one_algorithm_encloses_nests_and_meets_radius_bound():
    # s = 2..64 spans the old 6,000-term direct-sum switch (s = 7 at 64 bits
    # to s = 22 at 256 bits) and the first s whose sum stops before its n
    # weights run out (s = 14 to 33); the radius is (4K + 5) 2^-(bits+GUARD)
    # for K summed terms
    coarser = {}
    for bits in (64, 128, 152, 184, 192, 256):
        n, summed = len(_borwein_weights(bits + GUARD)), set()
        for s in [*range(2, 65), *range(65, 301, 7), 899, 1999, 3997]:
            z = zeta_int(s, bits)
            with mp.workprec(2 * bits):
                assert in_ball(mp.zeta(s), z), (s, bits)
            mid, rad = (Fraction(*to_rational(x)) for x in (z.mid, z.rad))
            assert rad < Fraction(1, 2 ** (bits + 2)), (s, bits)
            summed.add((rad * 2 ** (bits + GUARD) - 5) / 4)
            if s in coarser:
                cmid, crad = coarser[s]
                assert abs(mid - cmid) + rad <= crad, (s, bits)
            coarser[s] = mid, rad
        assert n in summed and min(summed) < n, bits


def test_zeta_euler_product_sandwich():
    # 1/(1 - 2^-n) < zeta(n) < 1/(1 - 2^(1-n)) for 3 <= n <= 64; the margin
    # shrinks like 3^-n, so the working precision grows with n
    for n in range(3, 65):
        z = zeta_int(n, 96 + 2 * n)
        assert z.gt(Fraction(2 ** n, 2 ** n - 1))
        assert z.lt(Fraction(2 ** (n - 1), 2 ** (n - 1) - 1))


def test_lambda_values_and_monotonicity():
    lam2 = lambda_k(2, 128)
    with mp.workprec(192):
        assert in_ball(mp.zeta(3) / mp.pi ** 3, lam2)
    lam3 = lambda_k(3, 128)
    with mp.workprec(192):
        assert in_ball(mp.zeta(5) / mp.pi ** 5, lam3)
    prev = lam2
    for k in range(3, 22):
        cur = lambda_k(k, 128)
        assert (prev - cur).sign() > 0  # strictly decreasing
        prev = cur
    assert lambda_k(21, 128).sign() > 0


def test_alpha_arccos_example():
    # arccos(0.3/(pi^2/3 - 2))/pi = 0.42...
    pi = RealEnclosure.pi(128)
    alpha = ball_acos(RealEnclosure.exact(Fraction(3, 10), 128) / (pi * pi * Fraction(1, 3) - 2)) / pi
    assert alpha.gt(Fraction(42, 100))
    assert alpha.lt(Fraction(43, 100))


def test_arithmetic_soundness_sampled():
    # 1000 random rational inputs: the 256-bit evaluation of a composed
    # expression lies inside its 64-bit enclosure
    rng = random.Random(20110606)
    for _ in range(1000):
        num = rng.randrange(-10 ** 6, 10 ** 6)
        den = rng.randrange(1, 10 ** 6)
        q = Fraction(num, den)
        vals = {}
        for bits in (64, 256):
            x = RealEnclosure.exact(q, bits)
            pi = RealEnclosure.pi(bits)
            expr = (x * pi - Fraction(1, 3)) / (x * x + 1) + pi
            vals[bits] = expr
        hi_mid = vals[256].midpoint
        assert vals[64].lower <= hi_mid <= vals[64].upper


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=-4, max_value=4))
def test_trig_exp_soundness(q):
    coarse_c, coarse_s = ball_cos_sin(RealEnclosure.exact(q, 64))
    fine_c, fine_s = ball_cos_sin(RealEnclosure.exact(q, 192))
    assert coarse_c.lower <= fine_c.midpoint <= coarse_c.upper
    assert coarse_s.lower <= fine_s.midpoint <= coarse_s.upper
    coarse_e = ball_exp(RealEnclosure.exact(q, 64))
    fine_e = ball_exp(RealEnclosure.exact(q, 192))
    assert coarse_e.lower <= fine_e.midpoint <= coarse_e.upper


def test_division_by_zero_ball_rejected():
    x = RealEnclosure.exact(1, 128)
    zero_ish = RealEnclosure.from_endpoints(
        RealEnclosure.exact(Fraction(-1, 10), 128).mid,
        RealEnclosure.exact(Fraction(1, 10), 128).mid, 128)
    with pytest.raises(ZeroDivisionError):
        x / zero_ish


def test_sqr_nonnegative():
    x = RealEnclosure.from_endpoints(
        RealEnclosure.exact(Fraction(-1, 4), 128).mid,
        RealEnclosure.exact(Fraction(1, 8), 128).mid, 128)
    s = x.sqr()
    assert s.lower >= 0
    assert s.contains(Fraction(1, 64))


def test_complex_exp_matches_mpmath():
    z = ComplexEnclosure.exact(Fraction(3, 10), Fraction(7, 10), 128)
    w = exp_complex(z)
    with mp.workprec(192):
        ref = mp.exp(mp.mpc(mp.mpf(3) / 10, mp.mpf(7) / 10))
        assert in_ball(ref.real, w.re)
        assert in_ball(ref.imag, w.im)


def test_complex_division_round_trip():
    z = ComplexEnclosure.exact(Fraction(3, 7), Fraction(-2, 5), 128)
    w = ComplexEnclosure.exact(Fraction(1, 3), Fraction(9, 4), 128)
    back = (z / w) * w
    assert back.re.contains(Fraction(3, 7))
    assert back.im.contains(Fraction(-2, 5))


def test_sech_value():
    s = ball_sech(RealEnclosure.exact(0, 128))
    assert s.contains(Fraction(1))
    with mp.workprec(192):
        assert in_ball(mp.sech(mp.mpf(2)), ball_sech(RealEnclosure.exact(2, 128)))


def test_escalate_doubles_from_bits_to_16x():
    seen = []
    assert escalate(lambda b: (seen.append(b) or False, b), 128) == (False, 2048)
    assert seen == [128, 256, 512, 1024, 2048]
    assert escalate(lambda b: (b >= 512, b), 128) == (True, 512)
    with pytest.raises(DomainError):
        escalate(lambda b: (True, b), 32)


def test_zeta_even_rational_agrees_with_summation():
    # zeta_even_rational(n) pi^2n overlaps the summation enclosure, n <= 20
    from circlezero.exact import zeta_even_rational
    for n in range(1, 21):
        direct = zeta_int(2 * n, 128)
        scaled = RealEnclosure.pi(160).pow_int(2 * n) * zeta_even_rational(n)
        assert (direct - scaled).contains_zero(), n


@pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(2, 7), Fraction(-5, 11), Fraction(1, 10)])
def test_contains_is_exact_membership(q):
    # x is q rounded down at 128 bits and u its ulp; a 1-ulp ball at x - g u
    # ends below q for g >= 1, however close, so it must not contain q
    x = from_rational(q.numerator, q.denominator, 128, "f")
    u = from_man_exp(1, x[2] + x[3] - 128)
    assert RealEnclosure(x, u, 128).contains(q)
    for g in (1, 2):
        assert not RealEnclosure(mpf_sub(x, mpf_mul(u, from_int(g)), 256), u, 128).contains(q), g
    # endpoints belong to the ball
    assert RealEnclosure(from_int(1), from_man_exp(1, -3), 128).contains(Fraction(9, 8))


@settings(max_examples=300, deadline=None)
@given(st.integers(-(1 << 300), 1 << 300), st.integers(-400, 100),
       st.integers(0, 1 << 40), st.integers(-450, 100), st.sampled_from([64, 128, 152, 256]),
       st.sampled_from([None, 3, 12]))
def test_printed_ball_encloses_random_ball(man, exp, rman, rexp, prec, dps):
    ball = RealEnclosure(from_man_exp(man, exp), from_man_exp(rman, rexp, 32, "c"), prec)
    mid_str, rad_str = ball.str_pair(dps)
    mid, rad = (Fraction(*to_rational(x)) for x in (ball.mid, ball.rad))
    # Fraction(mid_str) +- Fraction(rad_str) contains [mid - rad, mid + rad],
    # with the radius rounded up by at most one unit of its fifth digit
    need = abs(Fraction(mid_str) - mid) + rad
    assert need <= Fraction(rad_str) <= need * (1 + Fraction(1, 10**4))


def _str_pair_reference(ball, dps=None):
    """The Fraction and Decimal formula that `str_pair` replaced: the radius
    plus the midpoint's decimal rounding error, rounded up to 5 significant
    digits by a ceiling division."""
    d = dps if dps is not None else max(8, int(ball.prec * 0.302) + 2)
    mid_str = to_str(ball.mid, d)
    mid, rad = (Fraction(*to_rational(x)) for x in (ball.mid, ball.rad))
    up = rad + abs(Fraction(mid_str) - mid)
    r = Fraction(Context(prec=5, rounding=ROUND_CEILING).divide(up.numerator, up.denominator))
    return mid_str, to_str(from_rational(r.numerator, r.denominator, 64, "c"), 5)


@settings(max_examples=500, deadline=None)
@given(st.integers(64, 288).flatmap(lambda prec: st.tuples(
           st.just(prec), st.just(0) | st.integers(-(1 << prec), 1 << prec),
           st.integers(-prec - 200, 100))),
       st.just(0) | st.integers(1, 1 << 32), st.integers(-540, 50),
       st.sampled_from([None, None, 3, 12]))
def test_str_pair_integer_form_matches_the_fraction_formula(mid, rman, rexp, dps):
    # the integer str_pair prints exactly the strings of the old formula, for
    # zero midpoints, zero (exact) radii and balls at 64-288 bits
    prec, man, exp = mid
    ball = RealEnclosure(from_man_exp(man, exp, prec), from_man_exp(rman, rexp, 32, "c"), prec)
    assert ball.str_pair(dps) == _str_pair_reference(ball, dps)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2 ** 70), st.integers(0, 2 ** 12), st.integers(1, 300), st.integers(8, 64))
def test_pow_bounds_bracket_the_exact_powers(lo, gap, n, width):
    # L 2^x <= lo^n <= hi^n <= U 2^x exactly, with U cut to `width` bits
    hi = lo + gap
    L, U, x = _pow_bounds(lo, hi, n, width)
    assert x >= 0 and L << x <= lo ** n and hi ** n <= U << x
    assert U.bit_length() <= max(width + 1, (hi ** n).bit_length())


LAMBDA_KS = [2, 3, 21, 100, 450, 2048]


@pytest.mark.parametrize("k", LAMBDA_KS)
def test_lambda_k_encloses_and_meets_its_radius_bound(k):
    # the docstring bound: radius <= lambda_k 2^-(bits + GUARD), checked
    # against the ball's own lower end, with the precision bits + GUARD
    for bits in (64, 128, 256):
        lam = lambda_k(k, bits)
        with mp.workprec(4 * bits):
            assert in_ball(mp.zeta(2 * k - 1) / mp.pi ** (2 * k - 1), lam), (k, bits)
        mid, rad = (Fraction(*to_rational(x)) for x in (lam.mid, lam.rad))
        assert rad <= (mid - rad) / 2 ** (bits + GUARD), (k, bits)
        assert lam.prec == bits + GUARD


def test_lambda_k_ends_follow_a_wider_zeta_error(monkeypatch):
    # with zeta's error taken 2^20 times wider (still a true bound), the ball
    # still holds lambda_k: its ends move out with the error
    import circlezero.enclosure as enc

    exact_sum = enc._zeta_fixed
    monkeypatch.setattr(enc, "_zeta_fixed",
                        lambda s, prec: (lambda Z, r: (Z, r << 20))(*exact_sum(s, prec)))
    for k in (2, 21, 450):
        lam = lambda_k(k, 128)
        with mp.workprec(512):
            assert in_ball(mp.zeta(2 * k - 1) / mp.pi ** (2 * k - 1), lam), k


def test_lambda_k_independent_of_call_order():
    args = [(k, bits) for k in LAMBDA_KS for bits in (64, 128, 256)]
    forward = {a: lambda_k(*a) for a in args}
    backward = {a: lambda_k(*a) for a in reversed(args)}
    assert all((forward[a].mid, forward[a].rad, forward[a].prec)
               == (backward[a].mid, backward[a].rad, backward[a].prec) for a in args)


# -- fixed.pi_multiple: the one source of q pi^n on the routes ----------------

_ROUTE_PRECS = [b + fixed.GUARD for b in (64, 100, 128, 256, 500, 1024, 2048)]
_SCHINZEL_KS = sorted({1, 2, 3, 2047, 2048, *random.Random(28).sample(range(4, 2047), 20)})


def _near(q: Fraction, n: int, prec: int, v: int, e: int) -> bool:
    """|q pi^n 2^prec - v| <= e, with q pi^n from mpmath 200 bits finer."""
    with mp.workprec(prec + 200):
        ref = mp.mpf(q.numerator) / q.denominator * mp.pi ** n * mp.mpf(2) ** prec
        return abs(ref - v) <= e


def test_pi_multiple_encloses_every_route_constant():
    # pi^2/6, pi^2/3, 1/pi^2, 2/pi, 4/pi, 16/pi^2 and rho_Q(k)/pi^2, k = 6..800,
    # each with both signs, at every precision from 64 + GUARD to 2048 + GUARD:
    # v +- e holds q pi^n, and e is the one unit the docstring proves
    from circlezero.oscillation import _q_rho

    cases = [(Fraction(1, 6), 2), (Fraction(1, 3), 2), (Fraction(1), -2), (Fraction(2), -1), (Fraction(4), -1), (Fraction(16), -2)]
    cases += [(_q_rho(k), -2) for k in range(6, 801)]
    for prec in _ROUTE_PRECS:
        for q, n in cases:
            for signed in (q, -q):
                v, e = fixed.pi_multiple(signed, n, prec)
                assert e <= 1 and _near(signed, n, prec, v, e), (signed, n, prec)


def test_pi_multiple_holds_for_a_wide_bracket(monkeypatch):
    # the enclosure rests only on L 2^s <= pi^|n| <= U 2^s, however wide: with
    # the bracket widened by 2^-20 of itself either way, q pi^n is still held,
    # for both signs of q and of n, now by an e of many units
    from circlezero import enclosure

    def wide(n, W):
        L, U, x = enclosure.pi_power_bounds(n, W)
        return L - (L >> 20), U + (U >> 20), x

    monkeypatch.setattr(fixed, "pi_power_bounds", wide)
    fixed.pi_multiple.cache_clear()
    try:
        for prec in _ROUTE_PRECS:
            for q in (Fraction(1, 3), Fraction(16), Fraction(3 ** 9, 4 * (3 ** 9 + 1))):
                for signed in (q, -q):
                    for n in (-2, -1, 1, 2):
                        v, e = fixed.pi_multiple(signed, n, prec)
                        assert e > 1 << (prec - 32) and _near(signed, n, prec, v, e), (signed, n, prec)
    finally:
        fixed.pi_multiple.cache_clear()


def test_schinzel_constants_enclose_the_papers_constants():
    # the route's S and Y constants at sampled k in 1..2048, against
    # pi / (4 (1 + 3^(-1-2k))) and pi^2 (1 - 2^(2-2k)) / (8 (1 - 2^(3-2k)))
    for prec in _ROUTE_PRECS:
        for k in _SCHINZEL_KS:
            s_scale = Fraction(3 ** (1 + 2 * k), 4 * (3 ** (1 + 2 * k) + 1))
            y_scale = (1 - Fraction(2) ** (2 - 2 * k)) / (8 * (1 - Fraction(2) ** (3 - 2 * k)))
            for constant, scale, n in ((schinzel_constant_S, s_scale, 1),
                                       (schinzel_constant_Y, y_scale, 2)):
                v, e = constant(k)(prec)
                assert e <= 1 and _near(scale, n, prec, v, e), (constant.__name__, k, prec)


def test_pi_multiple_j0_denominators():
    # the W and Q arccos denominators pi^2/3 - 2 and 2 - 16/pi^2 as the route
    # reads them, against mpmath 200 bits finer
    from circlezero.verify import FAMILY_SPECS

    refs = {"W": lambda: mp.pi ** 2 / 3 - 2, "Q": lambda: 2 - 16 / mp.pi ** 2}
    for prec in _ROUTE_PRECS:
        for family, ref in refs.items():
            v, e = FAMILY_SPECS[family].oscillation.j0_denominator(prec)
            with mp.workprec(prec + 200):
                assert abs(ref() * mp.mpf(2) ** prec - v) <= e, (family, prec)
