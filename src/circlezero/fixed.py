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

from mpmath import libmp

from .enclosure import RAD_PREC, RealEnclosure, ball_cos_sin
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
    """(Re p, Im p, Re p', Im p') at x = (xr + i xi) / 2^prec by one Horner
    pass in Gaussian integers, in the units of `coeffs`; each product is
    rounded down, so every step is off by less than one unit per component
    (sqrt 2 in modulus) beyond the error the step carries in, scaled by |x|."""
    pr, pi, dr, di = coeffs[-1], 0, 0, 0
    for c in coeffs[-2::-1]:
        dr, di = ((dr * xr - di * xi) >> prec) + pr, ((dr * xi + di * xr) >> prec) + pi
        pr, pi = ((pr * xr - pi * xi) >> prec) + c, (pr * xi + pi * xr) >> prec
    return pr, pi, dr, di


@lru_cache(maxsize=32)
def cos_table(prec: int, M: int) -> tuple[int, ...]:
    """(2^prec cos(pi t / M) for t = 0 .. 2M - 1), M even, each entry within
    TABLE_ERR units.  A pure function of (prec, M), cached, so no result
    depends on which tables a process built before.

    One `ball_cos_sin`, with pi 8 bits finer than the working precision
    wp = prec + G, G = bit_length(M) + 8, gives w = e^(i pi / M) as two balls
    at wp.  The chain z_0 = 2^wp, z_t = z_(t-1) w runs in Gaussian integers
    through `gauss_mul`, so every component carries an exact error bound E.
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
    c, s = ball_cos_sin(RealEnclosure.pi(wp + 8) * Fraction(1, M))
    w = (*from_ball(c, wp), *from_ball(s, wp))
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
