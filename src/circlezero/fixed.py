"""Fixed-point arithmetic of the integer routes, one copy of each primitive.

A real x is carried at a precision prec as integers (v, e) with
|x - v 2^-prec| <= e 2^-prec: a midpoint-radius ball (the convention of
Johansson's Arb) whose midpoint and radius are whole units of 2^-prec.
`from_ball` enters it, `to_ball` leaves it, and each primitive states the
bound it keeps.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from mpmath import libmp

from .enclosure import RAD_PREC, RealEnclosure, ball_cos_sin, pi_power_bounds
from .errors import PrecisionError

# Bits of fixed point kept beyond the requested precision by the sign counter
# and the oscillation comparison functions.
GUARD = 32

# Every cosine table entry is within TABLE_ERR units, whatever the table's
# size, so no result depends on which tables a process built before.
TABLE_ERR = 2


def from_ball(x: RealEnclosure, prec: int) -> tuple[int, int]:
    """(v, e) for the ball x.  `to_fixed` floors, so v is within one unit of
    the midpoint and floor(2^prec rad) > 2^prec rad - 1: the error
    e = floor(2^prec rad) + 2 covers the radius and the rounding."""
    return libmp.to_fixed(x.mid, prec), libmp.to_fixed(x.rad, prec) + 2


@lru_cache(maxsize=256)
def pi_multiple(q: Fraction, n: int, prec: int) -> tuple[int, int]:
    """(v, e) for q pi^n, n != 0, with e <= 1: `pi_multiples` of q alone,
    cached."""
    return pi_multiples((q,), n, prec)[0]


def pi_multiples(qs: Sequence[Fraction], n: int, prec: int) -> list[tuple[int, int]]:
    """[(v, e), ...] for q pi^n, one pair per q in qs, n != 0, each with
    e <= 1, all from one integer bracket of pi^|n|
    (`enclosure.pi_power_bounds`) away from mpmath's pi.

    With q = a/b, |q pi^n| < 2^m_q for m_q below (pi < 2^2); m is the
    largest m_q.  With r = bit_length(|n|) and W = prec + m + r + 8, pi^|n|
    lies in [L, U] 2^s, s = x - |n| W, with ln(U/L) < 2^(r + 4 - W).  So
    2^prec q pi^n lies between a L 2^(prec+s) / b and a U 2^(prec+s) / b
    for n > 0, and between a 2^(prec-s) / (b U) and a 2^(prec-s) / (b L)
    for n < 0, the first of each pair the lower end when a >= 0; for a < 0,
    L and U swap.  lo is the floor of the lower end, hi the ceiling of the
    upper, so v = floor((lo + hi)/2) and e = hi - v >= v - lo enclose it.
    The ends differ by the one nearer 0, at most 2^(prec+m_q), times
    U/L - 1 < 2 ln(U/L): hi - lo < 2^(prec+m_q+r+5-W) + 2 <= 2^-3 + 2, so
    hi - lo <= 2 and e <= 1.
    """
    m = max(max(0, q.numerator.bit_length() - q.denominator.bit_length() + 1 + 2 * max(n, 0))
            for q in qs)
    W = prec + m + abs(n).bit_length() + 8
    lower, upper, x = pi_power_bounds(abs(n), W)
    t = prec + x - abs(n) * W if n > 0 else prec - x + abs(n) * W
    pairs = []
    for q in qs:
        a, b = q.numerator, q.denominator
        L, U = (lower, upper) if a >= 0 else (upper, lower)
        ends = [(a * L, b), (a * U, b)] if n > 0 else [(a, b * U), (a, b * L)]
        (n0, d0), (n1, d1) = [(u << t, w) if t >= 0 else (u, w << -t) for u, w in ends]
        lo, hi = n0 // d0, -(-n1 // d1)
        v = (lo + hi) >> 1
        pairs.append((v, hi - v))
    return pairs


def rotation(x: Fraction, wp: int) -> tuple[int, int, int, int]:
    """e^(i pi x) as a Gaussian fixed-point ball (c, ec, s, es) at wp: one `ball_cos_sin`."""
    c, s = ball_cos_sin(RealEnclosure.pi(wp + 8) * x)
    return (*from_ball(c, wp), *from_ball(s, wp))


def floor_shift(q: Fraction | float, s: int) -> int:
    """floor(q 2^s), exactly, for a Fraction or a float: one floor division."""
    n, d = q.as_integer_ratio()
    return (n << s) // d if s >= 0 else n // (d << -s)


def to_ball(v: int, e: int, prec: int, bits: int) -> RealEnclosure:
    """The ball v 2^-prec +- e 2^-prec, reported at `bits`; exact midpoint,
    radius rounded up."""
    return RealEnclosure(libmp.from_man_exp(v, -prec),
                         libmp.from_man_exp(e, -prec, RAD_PREC, "c"), bits)


def mul(u: int, eu: int, v: int, ev: int, prec: int) -> tuple[int, int]:
    """The product of u +- eu and v +- ev: |u v - U V| <= |u| ev + (|v| + ev) eu
    in units of 2^-2prec, and the two shifts back to 2^-prec each round down
    by less than one unit."""
    return (u * v) >> prec, ((abs(u) * ev + (abs(v) + ev) * eu) >> prec) + 2


def div(a: int, ea: int, b: int, eb: int, prec: int) -> tuple[int, int]:
    """The quotient of a +- ea by b +- eb, |b| > eb:
    |a/b - A/B| <= (ea (|b| - eb) + (|a| + ea) eb) / (|b| (|b| - eb)); the
    quotient is floored (one unit) and its error rounded up."""
    b_abs = abs(b)
    if b_abs <= eb:
        raise PrecisionError("fixed-point divisor enclosure touches 0")
    num = (ea * (b_abs - eb) + (abs(a) + ea) * eb) << prec
    return (a << prec) // b, -(-num // (b_abs * (b_abs - eb))) + 1


def gauss_mul(z: tuple[int, int, int, int], w: tuple[int, int, int, int],
              prec: int) -> tuple[int, int, int, int]:
    """The product of two Gaussian fixed-point balls, each (x, ex, y, ey) for
    x + i y with errors ex and ey: its four real products go through `mul`,
    so each component's error is the sum of its two products' bounds."""
    x, ex, y, ey = z
    u, eu, v, ev = w
    (xu, exu), (yv, eyv) = mul(x, ex, u, eu, prec), mul(y, ey, v, ev, prec)
    (xv, exv), (yu, eyu) = mul(x, ex, v, ev, prec), mul(y, ey, u, eu, prec)
    return xu - yv, exu + eyv, xv + yu, exv + eyu


def ceil_mul(e: int, x: int, prec: int) -> int:
    """ceil(e x / 2^prec) for e, x >= 0: an error scaled by a fixed-point
    magnitude, rounded up."""
    return -((-e * x) >> prec)


def horner_pd(coeffs: list[int], xr: int, xi: int, prec: int) -> tuple[int, int, int, int]:
    """(Re p, Im p, Re p', Im p') of p(z) = sum c_k z^k, k = 0 .. n, at
    x = (xr + i xi) / 2^prec, in the units of `coeffs`, by division by the
    real quadratic (z - x)(z - conj x) = z^2 - s z + q (Knuth, TAOCP 2,
    4.6.4): four real products per coefficient.

    s = 2 Re x and q = |x|^2 are exact integers over 2^(2 prec).  With
    u_(n+1) = u_(n+2) = 0, u_k = c_k + s u_(k+1) - q u_(k+2) gives
    p(z) = (z^2 - s z + q) B(z) + u_1 (z - s) + u_0, B(z) = sum_(k>=2) u_k z^(k-2);
    at z = x, x - s = -conj x and the quadratic vanishes twice over, so
    p(x) = u_0 - conj(x) u_1 and p'(x) = u_1 + (x - conj x) B(x).  The same
    recurrence over u_n .. u_2, v_k = u_k + s v_(k+1) - q v_(k+2), gives
    B(x) = v_2 - conj(x) v_3.

    Error (`pd_budget` evaluates it).  Each step floors one exact quotient,
    so the computed u_k is c_k + s u_(k+1) - q u_(k+2) - d_k with
    0 <= d_k < 1, and d_n = 0: the computed u are the exact recurrence of
    the coefficients c_k - d_k, so the identities above hold for them
    exactly, and u_0 - conj(x) u_1 = sum (c_k - d_k) x^k.  (In u_0 alone an
    error at step k weighs G_k = sum_i x^i conj(x)^(k-i), |G_k| <= (k+1)|x|^k;
    the combination telescopes, G_k - conj(x) G_(k-1) = x^k.)  Likewise the
    computed v are exact for the u_k - g_k, 0 <= g_k < 1, g_n = 0, so
    v_2 - conj(x) v_3 = B(x) - sum_(k=2)^(n-1) g_k x^(k-2), with B read off the
    computed u, whose u_1 + (x - conj x) B(x) is sum k (c_k - d_k) x^(k-1).
    The two final combinations floor one real product per component: less
    than sqrt 2 <= 2 units in modulus.  So, if the true coefficients are
    c_k + t_k, |t_k| <= e_k, and |x| <= X, with |x - conj x| <= 2X and
    [k < n] = 1 for k < n, 0 for k = n:
      |p(x) - out_p| <= sum_(k=0)^n (e_k + [k < n]) X^k + 2,
      |p'(x) - out_p'| <= sum_(k=1)^n k (e_k + [k < n]) X^(k-1)
                          + 2 sum_(k=2)^(n-1) X^(k-1) + 2.
    """
    w = 2 * prec
    s, q = xr << (prec + 1), xr * xr + xi * xi
    u0 = u1 = v0 = v1 = 0                  # u_(k+1), u_(k+2), v_(k+2), v_(k+3)
    for c in coeffs[:0:-1]:                # k = n .. 1
        v0, v1 = u0 + ((s * v0 - q * v1) >> w), v0
        u0, u1 = c + ((s * u0 - q * u1) >> w), u0
    u0, u1 = coeffs[0] + ((s * u0 - q * u1) >> w), u0
    b_re, b_im = (v0 << prec) - xr * v1, xi * v1      # B(x) 2^prec, exact
    return (u0 + ((-xr * u1) >> prec), (xi * u1) >> prec,
            u1 - ((2 * xi * b_im) >> w), (2 * xi * b_re) >> w)


def pd_budget(errs: list[int], m: int, g: int) -> tuple[int, int]:
    """(ep, ed): the error bounds of `horner_pd`'s p and p', proved in its
    docstring, at any x with |x| <= X = m 2^-g, for the coefficient errors
    `errs`.  Both are polynomials in X with integer weights, each summed by
    Horner's rule with every product rounded up (`ceil_mul`), so each is an
    upper bound, and both grow with X."""
    n = len(errs) - 1
    ep, ed = errs[-1], 0
    for k in range(n, 0, -1):       # each adds its weight of X^(k-1)
        ed = ceil_mul(ed, m, g) + k * (errs[k] + (k < n)) + 2 * (1 < k < n)
        ep = ceil_mul(ep, m, g) + errs[k - 1] + 1
    return ep + 2, ed + 2


@lru_cache(maxsize=32)
def cos_table(prec: int, M: int) -> tuple[int, ...]:
    """(2^prec cos(pi t / M) for t = 0 .. 2M - 1), M even, each entry within
    TABLE_ERR units.  A pure function of (prec, M), cached, so no result
    depends on which tables a process built before.

    One `rotation` gives w = e^(i pi / M) at the working precision
    wp = prec + G, G = bit_length(M) + 8.  The chain z_0 = 2^wp,
    z_t = z_(t-1) w runs in Gaussian integers through `gauss_mul`, so every
    component carries an exact error bound E.
    Shifted down by G bits (floored), a component is off by less than
    E 2^-G + 1 <= (E >> G) + 2 units, and each entry is checked against
    TABLE_ERR by that.  cos(pi t / M) is Re z_t for
    t <= M/4 and sin(pi (M/2 - t) / M) = Im z_(M/2 - t) for M/4 < t <= M/2,
    whether or not 4 divides M; the rest is mirrored by exact negation and
    copying: cos(pi - x) = -cos x, cos(2 pi - x) = cos x.

    The check, not the following estimate, is what the bound rests on.  A
    step scales the carried error by at most cos(pi/M) + sin(pi/M)
    <= 1 + pi/M and adds about eight units (two products per component, each
    with w's two units and two of rounding), so over M/4 steps E stays below
    8 (M/4) e^(pi/4) < 4.4 M, far under 2^G > 256 M.
    """
    G = M.bit_length() + 8
    wp = prec + G
    w = rotation(Fraction(1, M), wp)
    chain = [(1 << wp, 0, 0, 0)]
    for _ in range(M // 4):
        chain.append(gauss_mul(chain[-1], w, wp))
    quarter = []
    for t in range(M // 2 + 1):
        v, e = chain[t][:2] if 4 * t <= M else chain[M // 2 - t][2:]
        if (e >> G) + 2 > TABLE_ERR:
            raise PrecisionError(f"cos(pi {t}/{M}) at {prec} bits is off by up to "
                                 f"{(e >> G) + 2} units, above the table bound {TABLE_ERR}")
        quarter.append(v >> G)
    half = quarter + [-v for v in quarter[M // 2 - 1::-1]]   # t = 0 .. M
    return tuple(half + half[M - 1:0:-1])
