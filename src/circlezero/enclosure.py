"""Midpoint-radius (ball) arithmetic with certified error bounds.

Built on mpmath.libmp primitives: add/sub/mul/div/sqrt and the pi constant are
correctly rounded there, so directed roundings give true bounds.  Elementary
transcendental functions (exp, sin, cos, acos) are evaluated at a guard
precision and inflated by SLACK_ULPS units in the last place; mpmath computes
them to ~1 ulp, so the inflated balls are sound with a wide margin.  Radii use
a short mantissa (RAD_PREC bits) and are always rounded upward.

A check that a ball cannot decide yet is retried by `escalate`, the one
precision-escalation policy: the working precision doubles ESCALATIONS times.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable, TypeVar

from mpmath import libmp, mp, mpf
from mpmath.libmp import (
    from_int,
    from_man_exp,
    from_rational,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_exp,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    to_str,
)

from .errors import DomainError

RAD_PREC = 32
GUARD = 24
SLACK_ULPS = 8
MIN_BITS = 64
ESCALATIONS = 4

T = TypeVar("T")


def escalate(attempt: Callable[[int], tuple[bool, T]], bits: int) -> tuple[bool, T]:
    """Run attempt(b) at b = bits, 2 bits, ..., 2^ESCALATIONS bits until it
    reports (True, value); otherwise return the last attempt's (False, value).
    """
    if bits < MIN_BITS:
        raise DomainError(f"precision below {MIN_BITS} bits not supported, got {bits}")
    for i in range(ESCALATIONS + 1):
        decided, value = attempt(bits << i)
        if decided:
            break
    return decided, value


def _up(x, y, op) -> tuple:
    return op(x, y, RAD_PREC, "u")


def _ulp(x, prec: int) -> tuple:
    """Upper bound on the round-to-nearest error of x at prec bits."""
    return mpf_mul(mpf_abs(x), from_man_exp(1, 1 - prec), RAD_PREC, "u")


def _pow_int(x, n: int, one):
    """x^n by binary powering from `one`, a ball of 1; 1 / x^-n for n < 0."""
    if n < 0:
        return one / _pow_int(x, -n, one)
    result = one
    while n:
        if n & 1:
            result = result * x
        x = x * x
        n >>= 1
    return result


class RealEnclosure:
    """A real number known to lie in [mid - rad, mid + rad]."""

    __slots__ = ("mid", "rad", "prec")

    def __init__(self, mid, rad, prec: int):
        self.mid = mid
        self.rad = rad
        self.prec = prec

    # -- constructors --------------------------------------------------

    @classmethod
    def exact(cls, value: int | Fraction, prec: int) -> "RealEnclosure":
        if isinstance(value, int):
            m = from_int(value, prec, "n")
            # from_int rounds if the integer needs more than prec bits
            rad = _ulp(m, prec) if value.bit_length() > prec else fzero
            return cls(m, rad, prec)
        value = Fraction(value)
        m = from_rational(value.numerator, value.denominator, prec, "n")
        den = value.denominator
        dyadic = den & (den - 1) == 0
        rad = fzero if dyadic and value.numerator.bit_length() <= prec else _ulp(m, prec)
        return cls(m, rad, prec)

    @classmethod
    def from_endpoints(cls, lo, hi, prec: int) -> "RealEnclosure":
        mid = mpf_shift(mpf_add(lo, hi, prec + 8, "n"), -1)
        r1 = mpf_sub(hi, mid, RAD_PREC, "u")
        r2 = mpf_sub(mid, lo, RAD_PREC, "u")
        rad = r1 if mpf_cmp(r1, r2) >= 0 else r2
        return cls(mid, rad, prec)

    @classmethod
    def pi(cls, prec: int) -> "RealEnclosure":
        lo = mpf_pi(prec + 8, "f")
        hi = mpf_pi(prec + 8, "c")
        pad = from_man_exp(1, -prec - 6)
        return cls.from_endpoints(mpf_sub(lo, pad, prec + 8, "f"), mpf_add(hi, pad, prec + 8, "c"), prec)

    # -- views ----------------------------------------------------------

    @property
    def midpoint(self) -> mpf:
        return mp.make_mpf(self.mid)

    @property
    def radius(self) -> mpf:
        return mp.make_mpf(self.rad)

    def lower_raw(self):
        return mpf_sub(self.mid, self.rad, self.prec + 8, "f")

    def upper_raw(self):
        return mpf_add(self.mid, self.rad, self.prec + 8, "c")

    @property
    def lower(self) -> mpf:
        return mp.make_mpf(self.lower_raw())

    @property
    def upper(self) -> mpf:
        return mp.make_mpf(self.upper_raw())

    def __repr__(self):
        return f"RealEnclosure({to_str(self.mid, 20)} +/- {to_str(self.rad, 5)})"

    def str_pair(self, dps: int | None = None) -> tuple[str, str]:
        """(midpoint, radius) as decimal strings whose ball encloses this one:
        the printed radius is the radius plus the midpoint's decimal rounding
        error, rounded up to 5 significant digits.

        In integers: the printed midpoint is D 10^t (its digits and exponent),
        the midpoint and radius are mantissas times powers of two, so that
        sum is N / (10^b 2^a) exactly, and its rounding up is
        ceil(N / (10^b 2^a 10^c)) 10^c for the c that leaves five digits."""
        d = dps if dps is not None else max(8, int(self.prec * 0.302) + 2)
        mid_str = to_str(self.mid, d)
        digits, _, e = mid_str.partition("e")
        whole, _, frac = digits.partition(".")
        D, t = int(whole + frac), (int(e) if e else 0) - len(frac)
        sign, man, exp = self.mid[:3]
        rman, rexp = self.rad[1:3]
        a, b = max(0, -exp, -rexp), max(0, -t)
        N = (abs((D * 10 ** (t + b) << a) - ((-man if sign else man) * 10 ** b << (exp + a)))
             + (rman * 10 ** b << (rexp + a)))
        if not N:
            return mid_str, to_str(fzero, 5)
        den = 10 ** b << a
        c = int((N.bit_length() - den.bit_length()) * 0.30103) - 4
        while True:
            num, dc = (N, den * 10 ** c) if c >= 0 else (N * 10 ** -c, den)
            if num < 10 ** 4 * dc:
                c -= 1
            elif num >= 10 ** 5 * dc:
                c += 1
            else:
                break
        R = -(-num // dc)
        # `to_str` floors to 8 digits and then rounds, so from 64 bits above
        # the rounded-up radius it prints its digits
        r = from_rational(R * 10 ** c, 1, 64, "c") if c >= 0 else from_rational(R, 10 ** -c, 64, "c")
        return mid_str, to_str(r, 5)

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> "RealEnclosure | None":
        if isinstance(other, RealEnclosure):
            return other
        if isinstance(other, (int, Fraction)):
            return RealEnclosure.exact(other, self.prec)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = min(self.prec, o.prec)
        mid = mpf_add(self.mid, o.mid, p, "n")
        rad = _up(_up(self.rad, o.rad, mpf_add), _ulp(mid, p), mpf_add)
        return RealEnclosure(mid, rad, p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + -o

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o + -self

    def __neg__(self):
        return RealEnclosure(mpf_neg(self.mid), self.rad, self.prec)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = min(self.prec, o.prec)
        mid = mpf_mul(self.mid, o.mid, p, "n")
        rad = _up(mpf_mul(mpf_abs(self.mid), o.rad, RAD_PREC, "u"),
                  mpf_mul(mpf_abs(o.mid), self.rad, RAD_PREC, "u"), mpf_add)
        rad = _up(rad, mpf_mul(self.rad, o.rad, RAD_PREC, "u"), mpf_add)
        rad = _up(rad, _ulp(mid, p), mpf_add)
        return RealEnclosure(mid, rad, p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = min(self.prec, o.prec)
        if o.contains_zero():
            raise ZeroDivisionError("division by an enclosure containing 0")
        cands_d, cands_u = [], []
        for x in (self.lower_raw(), self.upper_raw()):
            for y in (o.lower_raw(), o.upper_raw()):
                cands_d.append(mpf_div(x, y, p + 8, "f"))
                cands_u.append(mpf_div(x, y, p + 8, "c"))
        lo = min(cands_d, key=lambda t: mp.make_mpf(t))
        hi = max(cands_u, key=lambda t: mp.make_mpf(t))
        return RealEnclosure.from_endpoints(lo, hi, p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o / self

    def shift(self, e: int) -> "RealEnclosure":
        """Exact scaling by 2^e."""
        return RealEnclosure(mpf_shift(self.mid, e), mpf_shift(self.rad, e), self.prec)

    def abs(self) -> "RealEnclosure":
        lo, hi = self.lower_raw(), self.upper_raw()
        if mpf_cmp(lo, fzero) >= 0:
            return self
        if mpf_cmp(hi, fzero) <= 0:
            return -self
        top = mpf_abs(lo) if mpf_cmp(mpf_abs(lo), hi) >= 0 else hi
        return RealEnclosure.from_endpoints(fzero, top, self.prec)

    __abs__ = abs

    def sqrt(self) -> "RealEnclosure":
        """Square root, intersected with the domain [0, inf)."""
        lo, hi = self.lower_raw(), self.upper_raw()
        if mpf_cmp(hi, fzero) < 0:
            raise DomainError("sqrt of an enclosure entirely below 0")
        if mpf_cmp(lo, fzero) < 0:
            lo = fzero
        return RealEnclosure.from_endpoints(
            mpf_sqrt(lo, self.prec + 8, "f"), mpf_sqrt(hi, self.prec + 8, "c"), self.prec)

    def sqr(self) -> "RealEnclosure":
        """x^2 with the sign structure respected (never dips below 0)."""
        lo, hi = self.lower_raw(), self.upper_raw()
        alo, ahi = mpf_abs(lo), mpf_abs(hi)
        big = alo if mpf_cmp(alo, ahi) >= 0 else ahi
        hi2 = mpf_mul(big, big, self.prec + 8, "c")
        if mpf_cmp(lo, fzero) <= 0 <= mpf_cmp(hi, fzero):
            return RealEnclosure.from_endpoints(fzero, hi2, self.prec)
        small = alo if mpf_cmp(alo, ahi) < 0 else ahi
        lo2 = mpf_mul(small, small, self.prec + 8, "f")
        return RealEnclosure.from_endpoints(lo2, hi2, self.prec)

    def pow_int(self, n: int) -> "RealEnclosure":
        return _pow_int(self, n, RealEnclosure.exact(1, self.prec))

    # -- queries ----------------------------------------------------------

    def contains_zero(self) -> bool:
        return mpf_cmp(self.lower_raw(), fzero) <= 0 and mpf_cmp(self.upper_raw(), fzero) >= 0

    def sign(self) -> int:
        """+1/-1 when certified, 0 when the ball straddles zero."""
        if mpf_cmp(self.lower_raw(), fzero) > 0:
            return 1
        if mpf_cmp(self.upper_raw(), fzero) < 0:
            return -1
        return 0

    def gt(self, threshold: int | Fraction) -> bool:
        """Certified self > threshold (whole ball clears it)."""
        return (self - threshold).sign() > 0

    def lt(self, threshold: int | Fraction) -> bool:
        return (self - threshold).sign() < 0

    def contains(self, value: int | Fraction) -> bool:
        """Exact membership: |value - mid| <= rad, in rationals."""
        mid, rad = (Fraction(*libmp.to_rational(x)) for x in (self.mid, self.rad))
        return abs(value - mid) <= rad


def _inflate_raw(v, wp: int, rnd: str):
    """Push a directed-rounded raw value outward by SLACK_ULPS ulps."""
    pad = mpf_mul(mpf_abs(v), from_man_exp(SLACK_ULPS, -wp), RAD_PREC, "u")
    if rnd == "f":
        return mpf_sub(v, pad, wp + 8, "f")
    return mpf_add(v, pad, wp + 8, "c")


def _monotone(fn, x: RealEnclosure, increasing: bool = True) -> RealEnclosure:
    wp = x.prec + GUARD
    lo_in, hi_in = x.lower_raw(), x.upper_raw()
    if not increasing:
        lo_in, hi_in = hi_in, lo_in
    lo = _inflate_raw(fn(lo_in, wp, "f"), wp, "f")
    hi = _inflate_raw(fn(hi_in, wp, "c"), wp, "c")
    return RealEnclosure.from_endpoints(lo, hi, x.prec)


def ball_exp(x: RealEnclosure) -> RealEnclosure:
    return _monotone(mpf_exp, x)


def ball_cos_sin(x: RealEnclosure) -> tuple[RealEnclosure, RealEnclosure]:
    """cos and sin of a ball; |f'| <= 1 propagates the input radius directly."""
    wp = x.prec + GUARD
    c, s = libmp.mpf_cos_sin(x.mid, wp, "n")
    pad_c = _up(_up(x.rad, _ulp(c, wp - 4), mpf_add), from_man_exp(1, -wp + 4), mpf_add)
    pad_s = _up(_up(x.rad, _ulp(s, wp - 4), mpf_add), from_man_exp(1, -wp + 4), mpf_add)
    return (RealEnclosure(c, pad_c, x.prec), RealEnclosure(s, pad_s, x.prec))


def ball_cos(x: RealEnclosure) -> RealEnclosure:
    return ball_cos_sin(x)[0]


def ball_sin(x: RealEnclosure) -> RealEnclosure:
    return ball_cos_sin(x)[1]


def ball_acos(x: RealEnclosure) -> RealEnclosure:
    one = from_int(1)
    if mpf_cmp(x.lower_raw(), mpf_neg(one)) < 0 or mpf_cmp(x.upper_raw(), one) > 0:
        raise DomainError("acos argument enclosure leaves [-1, 1]")
    return _monotone(libmp.mpf_acos, x, increasing=False)


def ball_sech(x: RealEnclosure) -> RealEnclosure:
    """sech x = 2 / (e^x + e^-x)."""
    e = ball_exp(x)
    return RealEnclosure.exact(2, x.prec) / (e + RealEnclosure.exact(1, x.prec) / e)


class ComplexEnclosure:
    """Componentwise complex ball."""

    __slots__ = ("re", "im")

    def __init__(self, re: RealEnclosure, im: RealEnclosure):
        self.re = re
        self.im = im

    @classmethod
    def exact(cls, re, im, prec: int) -> "ComplexEnclosure":
        return cls(RealEnclosure.exact(Fraction(re), prec), RealEnclosure.exact(Fraction(im), prec))

    @classmethod
    def from_real(cls, re: RealEnclosure) -> "ComplexEnclosure":
        return cls(re, RealEnclosure.exact(0, re.prec))

    @property
    def prec(self) -> int:
        return min(self.re.prec, self.im.prec)

    def __repr__(self):
        return f"ComplexEnclosure({self.re!r}, {self.im!r})"

    def _coerce(self, other) -> "ComplexEnclosure | None":
        if isinstance(other, ComplexEnclosure):
            return other
        if isinstance(other, RealEnclosure):
            return ComplexEnclosure.from_real(other)
        if isinstance(other, (int, Fraction)):
            return ComplexEnclosure.exact(other, 0, self.prec)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexEnclosure(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + -o

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o + -self

    def __neg__(self):
        return ComplexEnclosure(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexEnclosure(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = o.re.sqr() + o.im.sqr()
        num = self * ComplexEnclosure(o.re, -o.im)
        return ComplexEnclosure(num.re / den, num.im / den)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o / self

    def abs2(self) -> RealEnclosure:
        return self.re.sqr() + self.im.sqr()

    def abs(self) -> RealEnclosure:
        return self.abs2().sqrt()

    __abs__ = abs

    def pow_int(self, n: int) -> "ComplexEnclosure":
        return _pow_int(self, n, ComplexEnclosure.exact(1, 0, self.prec))

    def contains_zero(self) -> bool:
        return self.re.sign() == 0 and self.im.sign() == 0


def exp_complex(z: ComplexEnclosure) -> ComplexEnclosure:
    """e^(x+iy) = e^x (cos y + i sin y)."""
    ex = ball_exp(z.re)
    c, s = ball_cos_sin(z.im)
    return ComplexEnclosure(ex * c, ex * s)


# ---------------------------------------------------------------------------
# zeta and lambda providers
# ---------------------------------------------------------------------------

@cache
def _borwein_weights(prec: int) -> tuple[int, ...]:
    """floor(2^prec (d_n - d_k) / d_n) for k = 0 .. n - 1: the weights of
    Borwein's Algorithm 2 with n = ceil((prec + 2) / 2.543) terms, so that
    3 (3 + sqrt 8)^-n < 2^-prec (log2(3 + sqrt 8) > 2.543).

    d_k = sum_(i <= k) t_i with t_i = n (n+i-1)! 4^i / ((n-i)! (2i)!), up to
    sign the integer coefficients of the Chebyshev polynomial T_n(1 - 2x);
    the recurrence's floor divisions are exact, and d_0 <= ... <= d_n.
    """
    n = -(-(prec + 2) * 1000 // 2543)
    t, d = 1, [1]
    for i in range(1, n + 1):
        t = t * 4 * (n + i - 1) * (n - i + 1) // (2 * i * (2 * i - 1))
        d.append(d[-1] + t)
    return tuple(((d[n] - dk) << prec) // d[n] for dk in d[:n])


def _zeta_fixed(s: int, prec: int) -> tuple[int, int]:
    """(Z, r) with |zeta(s) - Z 2^-prec| <= r 2^-prec, for integer s >= 2;
    r = 4K + 5 < 2^22 for prec < 2^21 + GUARD (see `zeta_int`)."""
    S = K = 0
    for w in _borwein_weights(prec):
        t = w // (K + 1) ** s
        if not t:
            break
        S += -t if K & 1 else t
        K += 1
    return S + S // ((1 << (s - 1)) - 1), 4 * K + 5


def zeta_int(s: int, bits: int) -> RealEnclosure:
    """Certified enclosure of zeta(s) for integer s >= 2, with an exact
    midpoint and radius below 2^-(bits+2) (for bits < 2^21).

    One algorithm for every s: Borwein's Algorithm 2 (P. Borwein, *An
    efficient algorithm for the Riemann zeta function*, CMS Conf. Proc. 27,
    2000; Cohen, Rodriguez Villegas & Zagier, *Convergence acceleration of
    alternating series*, Exp. Math. 9, 2000), cut off at the working
    precision, in fixed point at prec = bits + GUARD with u = 2^-prec
    (`_zeta_fixed`).

    With f = 1/(1 - 2^(1-s)) in (1, 2] and w_k = (d_n - d_k)/d_n in [0, 1],
    zeta(s) = f eta(s), and Borwein's theorem gives
    eta(s) = sum_(k<n) (-1)^k a_k + e with a_k = w_k (k+1)^-s and
    |e| <= 2 / ((3+sqrt 8)^n Gamma(s)) <= 3 (3+sqrt 8)^-n < u
    (`_borwein_weights`).  Each summed term is T_k = floor(W_k / (k+1)^s)
    with W_k = floor(w_k / u), within 1 + (k+1)^-s <= 2 units of a_k / u.
    The sum stops at K = n or at the first K with T_K = 0; in the latter
    case W_K < (K+1)^s, so a_K < (W_K + 1) u / (K+1)^s <= u, and since
    a_K >= a_(K+1) >= ... >= 0 (d_k does not decrease) the dropped
    alternating tail is below a_K < u.  So S = sum_(k<K) (-1)^k T_k is
    within 2K + 2 units of eta(s), the three error terms being the rounding
    of each term, the tail and Borwein's remainder.  Z = S + floor(S /
    (2^(s-1) - 1)) = floor(f S) gives |Z u - zeta(s)| < u + f (2K + 2) u
    <= (4K + 5) u.  Since K <= n < (bits + 26)/2.543 + 1, that radius is
    below 2^-(bits+2) for bits < 2^21, where 4n + 5 < 2^22.
    """
    if s < 2:
        raise DomainError(f"zeta_int needs s >= 2, got {s}")
    prec = bits + GUARD
    Z, r = _zeta_fixed(s, prec)
    return RealEnclosure(from_man_exp(Z, -prec), from_man_exp(r, -prec), bits)


def zeta_odd(s: int, bits: int) -> RealEnclosure:
    """zeta at odd integer s >= 3."""
    if s % 2 != 1 or s < 3:
        raise DomainError(f"zeta_odd needs odd s >= 3, got {s}")
    return zeta_int(s, bits)


def _pow_bounds(lo: int, hi: int, n: int, width: int) -> tuple[int, int, int]:
    """(L, U, x) with L 2^x <= lo^n and hi^n <= U 2^x, for 0 < lo <= hi and
    n >= 1, by binary powering of both ends at once.  After each product both
    ends drop the same number of bits, so that U keeps `width` bits: L is
    floored and U rounded up, so the bounds hold whatever is dropped."""
    L = U = 1
    x = bx = 0
    while True:
        if n & 1:
            L, U, x = L * lo, U * hi, x + bx
            d = U.bit_length() - width
            if d > 0:
                L, U, x = L >> d, -(-U >> d), x + d
        n >>= 1
        if not n:
            return L, U, x
        lo, hi, bx = lo * lo, hi * hi, 2 * bx
        d = hi.bit_length() - width
        if d > 0:
            lo, hi, bx = lo >> d, -(-hi >> d), bx + d


def pi_power_bounds(n: int, W: int) -> tuple[int, int, int]:
    """(L, U, x) with L 2^(x - nW) <= pi^n <= U 2^(x - nW), U of at most
    W + 1 bits, for n >= 1 and W >= bit_length(n) + 8, from integers.

    - pi: Pi = floor(2^W pi~), pi~ mpmath's correctly rounded pi at W + 8
      bits, is within 1 + 2^-7 units of 2^W pi, so 2^W pi lies in
      [Pi - 2, Pi + 2], whose ends have the ratio rho <= 1 + 2^(1-W).
    - pi^n: `_pow_bounds` raises both ends to the n-th power.  A dropping
      step moves U by less than one unit of at least 2^(W-1) and L by less
      than one of at least 2^(W-2) (L > U/2 throughout, by the bound below),
      so it raises U/L by a factor tau <= (1 + d)/(1 - d), d = 2^(2-W).
      Level i of the squaring chain has U/L <= rho^(2^i) tau^(2^i - 1), and
      the accumulator multiplies in the levels of n's set bits with one step
      each, so U/L <= (rho tau)^n and ln(U/L) <= n (2^(1-W) + 3d)
      < 2^(b + 4 - W), b = bit_length(n).
    """
    pi = libmp.to_fixed(mpf_pi(W + 8, "n"), W)
    return _pow_bounds(pi - 2, pi + 2, n, W)


def lambda_k(k: int, bits: int) -> RealEnclosure:
    """lambda_k = zeta(2k-1)/pi^(2k-1), the transcendental generator of P_k
    and Q_k, as a ball with an exact midpoint and a radius below
    2^-wp lambda_k, wp = bits + GUARD (for bits < 2^21), made once from
    integers.  A pure function of (k, bits); its precision is wp.

    With n = 2k - 1, b = bit_length(n), P = wp + 26 and W = wp + b + 7:

    - zeta: (Z, r) = `_zeta_fixed`(n, P), so zeta(n) 2^P lies in
      [Z - r, Z + r], r < 2^22 (`zeta_int`); zeta(n) > 1 gives
      Z - r > 2^P - 2r >= 2^(P-1), so (Z + r)/(Z - r) <= 1 + 2^(24-P).
    - pi^n: `pi_power_bounds`(n, W) gives pi^n in [L, U] 2^(x - nW) with
      ln(U/L) < 2^(b + 4 - W) = 2^-(wp+3).
    - the quotient: with t = W - P + wp + 3, lo = floor((Z - r) 2^t / U) and
      hi = ceil((Z + r) 2^t / L) bound lambda_k in units of
      2^(nW - P - x - t), and lo > 2^(P - 1 + t - W) - 1 >= 2^(wp+1).  The
      midpoint (lo + hi)/2 is exact.  With l = ln((Z + r) U / ((Z - r) L))
      < 2^-(wp+2) + 2^-(wp+3) < 2^-(wp+1), hi - lo <= (lo + 1)(e^l - 1) + 2
      <= (lo + 1) 0.51 2^-wp + 2, so the radius (hi - lo)/2 is below
      lo 2^-wp <= lambda_k 2^-wp.
    """
    if k < 2:
        raise DomainError(f"lambda_k needs k >= 2, got {k}")
    n, wp = 2 * k - 1, bits + GUARD
    P, W = wp + 26, wp + n.bit_length() + 7
    Z, r = _zeta_fixed(n, P)
    L, U, x = pi_power_bounds(n, W)
    t = W - P + wp + 3
    lo, hi = ((Z - r) << t) // U, -(-((Z + r) << t) // L)
    e = n * W - P - x - t - 1
    return RealEnclosure(from_man_exp(lo + hi, e), from_man_exp(hi - lo, e, RAD_PREC, "c"), wp)
