"""The oscillation lemma for W_k and Q_k: a trigonometric comparison function
certified alternating on an explicit sample grid, with |f| > d at every
point, while the coefficient-difference sum bounds the approximation error
uniformly below d.  The comparison function and the uniform bound are
fixed-point formulas (`fixed`); what each family contributes is an
`OscillationSpec` in `verify.FAMILY_SPECS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from typing import Callable, Sequence

from . import fixed
from .enclosure import RealEnclosure, ball_cos_sin, escalate, lambda_k
from .errors import DomainError, PrecisionError
from .families import FamilyPoly
from .reports import OscillationReport, VerificationReport


@dataclass(frozen=True)
class OscillationSpec:
    """What the oscillation lemma needs for one family (W or Q)."""

    d: Fraction                                   # oscillation distance
    j0_denominator: Callable[[RealEnclosure], RealEnclosure]  # pi -> arccos denominator
    min_k: int                                    # smaller k take the sign-count route
    evaluator: Callable[[int], Callable[[Fraction, int], tuple[int, int, int]]]
    uniform_bound: Callable[[FamilyPoly, int], RealEnclosure]
    drop_halves: bool                             # drop the two positive boundary halves


@lru_cache(maxsize=8)
def _fixed_x(spec: OscillationSpec, prec: int) -> tuple[int, int]:
    """x = d / denominator(pi), the cosine of pi alpha, as (value, error) at prec."""
    x = RealEnclosure.exact(spec.d, prec + 8) / spec.j0_denominator(RealEnclosure.pi(prec + 8))
    return fixed.from_ball(x, prec)


def _alpha_j0(k: int, spec: OscillationSpec, bits: int = 128) -> int:
    """j0 = floor((k-1) alpha) + 1, alpha = arccos(x) / pi.

    cos is decreasing on [0, pi], so floor((k-1) alpha) is the number of j
    in 1..k-1 with cos(pi j/(k-1)) >= x.  Those cosines are the even entries
    of `fixed.cos_table(b + GUARD, 2(k-1))`, the table the integer sample
    points read, each within TABLE_ERR; an entry is counted when its lower
    end clears x's upper end and left out when its upper end is below x's
    lower end.  While some entry is neither, the precision b escalates.
    """
    def attempt(b: int) -> tuple[bool, int]:
        prec = b + fixed.GUARD
        x, ex = _fixed_x(spec, prec)
        table, err = fixed.cos_table(prec, 2 * (k - 1)), fixed.TABLE_ERR
        above = sum(1 for j in range(1, k) if table[2 * j] - err >= x + ex)
        below = sum(1 for j in range(1, k) if table[2 * j] + err < x - ex)
        return above + below == k - 1, above + 1

    decided, j0 = escalate(attempt, bits)
    if not decided:
        raise PrecisionError(f"j0 indeterminate at k={k}")
    return j0


def sample_points(spec: OscillationSpec, k: int) -> list[Fraction]:
    """The sample angles (as multiples of pi), k >= spec.min_k, mirrored over
    0: integer points, then half-integer points from j0 on, then the last
    point just short of pi.  With `drop_halves` (Q) the two positive
    half-integer boundary points go (one point when they coincide)."""
    j0 = _alpha_j0(k, spec)
    eps = Fraction(1, 8 * k)
    halfs = [Fraction(2 * j - 1, 2 * (k - 1)) for j in range(j0, k - j0 + 1)]
    neg = ([Fraction(j, k - 1) for j in range(1, j0)] + halfs
           + [Fraction(j, k - 1) for j in range(k - j0, k - 1)] + [(k - 1 - eps) / (k - 1)])
    drop = {halfs[0], halfs[-1]} if spec.drop_halves else set()
    pos = [p for p in neg if p not in drop]
    return [-p for p in reversed(neg)] + [Fraction(0)] + pos


@lru_cache(maxsize=16)
def _rotation_powers(x: Fraction, k: int, prec: int) -> dict[int, tuple[tuple[int, int], tuple[int, int]]]:
    """m -> (cos(m pi x), sin(m pi x)) as fixed-point (value, error) pairs at
    prec, for m = 1, k-3, k-2, k-1 and k, from one `ball_cos_sin`.

    z = e^(i pi x) enters at wp = prec + G, G = 2 bit_length(k) + 8, from one
    `ball_cos_sin` with pi 8 bits finer.  z^(k-3) is z times the binary
    power z^(k-4), and the next three powers multiply by z once more, each
    product in Gaussian integers through `fixed.gauss_mul`, so every
    component carries an exact error bound E.  Shifted down by G bits
    (floored), as `fixed.cos_table` does, a component is off by less than
    E 2^-G + 1 <= (E >> G) + 2 units.  A product's component error is at
    most about sqrt(2) times the sum of its factors' plus four units, so
    over log2(k) squarings E stays below a few k^(3/2) units (about 6k
    measured for k = 11..5000), far under 2^G; were it above, f's error
    would only widen.
    """
    G = 2 * k.bit_length() + 8
    wp = prec + G
    c, s = ball_cos_sin(RealEnclosure.pi(wp + 8) * x)
    z = p = (*fixed.from_ball(c, wp), *fixed.from_ball(s, wp))
    base, n = z, k - 4
    while n:
        if n & 1:
            p = fixed.gauss_mul(p, base, wp)
        n >>= 1
        if n:
            base = fixed.gauss_mul(base, base, wp)
    powers = {1: z, k - 3: p}
    for m in (k - 2, k - 1, k):
        p = powers[m] = fixed.gauss_mul(p, z, wp)
    return {m: ((v >> G, (ev >> G) + 2), (w >> G, (ew >> G) + 2))
            for m, (v, ev, w, ew) in powers.items()}


def _comparison(k: int, x: tuple[int, int], y: tuple[int, int],
                constants: Callable[[RealEnclosure], tuple[RealEnclosure, RealEnclosure]]):
    """f(theta) = 2 trig_x(theta) + B trig_y(theta) + C sin((k-3) theta) / sin(theta)
    at theta = r pi, as f(r, bits) -> (v, e, prec) with
    |f(theta) - v 2^-prec| <= e 2^-prec; x and y are (is_sin, multiple), and
    constants(pi) gives (B, C).

    One integer formula at prec = bits + `fixed.GUARD` carries an error
    budget through `fixed.mul`/`fixed.div`.  Every sample angle but the two
    just short of +-pi is a multiple of pi / (2(k-1)), so its trig values
    are entries of `fixed.cos_table(prec, 2(k-1))` (a sine is the cosine a
    quarter period earlier); the two others share `_rotation_powers` of
    their common |theta|.  At theta = 0, +-pi the quotient is its limit
    (k-3) sgn, exactly.
    """
    n = 2 * (k - 1)

    @cache
    def fixed_constants(bits: int) -> tuple[int, tuple[int, int], tuple[int, int]]:
        prec = bits + fixed.GUARD
        return prec, *(fixed.from_ball(v, prec) for v in constants(RealEnclosure.pi(prec + 8)))

    def f(r: Fraction, bits: int) -> tuple[int, int, int]:
        prec, (b, eb), (c, ec) = fixed_constants(bits)
        t = r * n
        if t.denominator == 1:
            table, t = fixed.cos_table(prec, n), int(t)

            def trig(is_sin: int, m: int) -> tuple[int, int]:
                return table[(m * t - is_sin * (k - 1)) % (2 * n)], fixed.TABLE_ERR
        else:
            powers = _rotation_powers(abs(r), k, prec)

            def trig(is_sin: int, m: int) -> tuple[int, int]:
                v, e = powers[m][is_sin]
                return -v if is_sin and r < 0 else v, e     # cos is even, sin odd
        tx, ex = trig(*x)
        ty, ey = trig(*y)
        if t % n == 0:
            # sin((k-3) theta) / sin(theta) -> (k-3) at 0, (k-3)(-1)^k at +-pi
            q, eq = (k - 3 if t % (2 * n) == 0 or k % 2 == 0 else 3 - k) << prec, 0
        else:
            q, eq = fixed.div(*trig(1, k - 3), *trig(1, 1), prec)
        by, eby = fixed.mul(b, eb, ty, ey, prec)
        cq, ecq = fixed.mul(c, ec, q, eq, prec)
        return 2 * tx + by + cq, 2 * ex + eby + ecq, prec

    return f


def _w_rho(k: int) -> Fraction:
    return 2 / (1 - Fraction(2) ** (1 - 2 * k))


def _q_rho(k: int) -> Fraction:
    return 8 * (1 - Fraction(2) ** (3 - 2 * k)) / (1 - Fraction(2) ** (2 - 2 * k))


def _w_eval(k: int):
    """w_k(theta) = 2 cos(k theta) + (pi^2/3) cos((k-2) theta) + rho sin((k-3) theta)/sin(theta)."""
    rho = _w_rho(k)
    return _comparison(k, (0, k), (0, k - 2),
                       lambda pi: (pi * pi * Fraction(1, 3), RealEnclosure.exact(rho, pi.prec)))


def _q_eval(k: int):
    """q_k(theta) = 2 cos((k-2) theta) + (4/pi) sin((k-1) theta) + (rho/pi^2) sin((k-3) theta)/sin(theta)."""
    rho = _q_rho(k)
    return _comparison(k, (0, k - 2), (1, k - 1),
                       lambda pi: (4 / pi, RealEnclosure.exact(rho, pi.prec) / (pi * pi)))


def alternating_verify(f: Callable[[Fraction, int], tuple[int, int, int]],
                       points: Sequence[Fraction], d: Fraction,
                       bits: int = 128) -> OscillationReport:
    """Certify signs and |f| > d at each sample angle; count alternations.

    f(r, bits) is a fixed-point enclosure (v, e, prec) of the comparison
    function at r pi.  With d = num / den, a point is decided by exact
    integer comparisons: above d when (|v| - e) den > num 2^prec, below d
    when (|v| + e) den < num 2^prec.  It gets sign 0 when below d or still
    undecided after the precision escalation.  min_abs is the point above d
    with the smallest upper end (|v| + e) 2^-prec, compared across
    precisions by shifting, as a ball at the bits that decided it.
    """
    if any(points[i] >= points[i + 1] for i in range(len(points) - 1)):
        raise DomainError("sample points must be strictly increasing")
    num, den = d.numerator, d.denominator

    def attempt(r: Fraction, b: int) -> tuple[bool, tuple[bool, int, int, int, int]]:
        v, e, prec = f(r, b)
        above = (abs(v) - e) * den > num << prec
        return above or (abs(v) + e) * den < num << prec, (above, v, e, prec, b)

    signs: list[int] = []
    least = None    # (|v|, e, prec, bits) of the point above d with the smallest upper end
    for r in points:
        _, (above, v, e, prec, b) = escalate(lambda b: attempt(r, b), bits)
        signs.append((v > 0) - (v < 0) if above else 0)
        if above and (least is None or (abs(v) + e) << least[2] < (least[0] + least[1]) << prec):
            least = (abs(v), e, prec, b)
    min_abs = None if least is None else fixed.to_ball(*least)
    certified = [s for s in signs if s != 0]
    order = sum(1 for i in range(len(certified) - 1) if certified[i] != certified[i + 1])
    return OscillationReport(list(points), signs, min_abs, order, d)


def _floor_ratio(a: Fraction, b: Fraction, prec: int, q: Fraction = Fraction(0)) -> int:
    """floor(2^prec (a / b - q)): one floor division of integer
    cross-products, within one unit, with no gcd."""
    num = a.numerator * b.denominator * q.denominator - q.numerator * a.denominator * b.numerator
    return (num << prec) // (a.denominator * b.numerator * q.denominator)


def _w_uniform_bound(w: FamilyPoly, bits: int) -> RealEnclosure:
    """2 |A_1/A_0 - pi^2/6| + sum_{j=2}^{k-2} |A_j/A_0 - 2/(1-2^(1-2k))|.

    A_j = (-1)^j c_2j are the even coefficients of W_k(iz).  One fixed-point
    sum at bits + `fixed.GUARD`: each term of the inner sum is one floor
    division, within one unit; A_1/A_0 is one too, and pi^2/6 comes from
    `fixed.from_ball`, so the first term is within 1 + its error.
    """
    k, prec = w.k, bits + fixed.GUARD
    a0 = w.coeffs[0].a
    rho = _w_rho(k)
    pi = RealEnclosure.pi(prec + 8)
    c, ec = fixed.from_ball(pi * pi * Fraction(1, 6), prec)
    total = 2 * abs(_floor_ratio(-w.coeffs[2].a, a0, prec) - c)
    for j in range(2, k - 1):
        a = w.coeffs[2 * j].a
        total += abs(_floor_ratio(-a if j % 2 else a, a0, prec, rho))
    return fixed.to_ball(total, 2 * (ec + 1) + k - 3, prec, bits)


def _q_uniform_bound(q: FamilyPoly, bits: int) -> RealEnclosure:
    """sum_{j=2}^{k-2} |A_j/A_1 - (8/pi^2) r| + 2 |(-1)^k zeta(2k-1)(2^(2k-1)-1)/A_1 - 2/pi|.

    A_j = (-1)^j c_2j are the even coefficients of Q_k(iz).  One fixed-point
    sum at bits + `fixed.GUARD`: each A_j/A_1 is one floor division, within
    one unit, and the centre (8/pi^2) r and the last term come from
    `fixed.from_ball`, so each term is within 1 + the centre's error.
    """
    k, prec = q.k, bits + fixed.GUARD
    a1 = -q.coeffs[2].a  # A_1 = (-1)^1 * coeff(z^2)
    pi = RealEnclosure.pi(prec + 8)
    c, ec = fixed.from_ball(RealEnclosure.exact(_q_rho(k), prec + 8) / (pi * pi), prec)
    total = 0
    for j in range(2, k - 1):
        a = q.coeffs[2 * j].a
        total += abs(_floor_ratio(-a if j % 2 else a, a1, prec) - c)
    # odd-term ratio: A_1 unnormalized is pi^(2k-1) * a1; zeta(2k-1) = lam pi^(2k-1)
    odd = ((1 << (2 * k - 1)) - 1) / a1
    lam_term = lambda_k(k, prec + 8) * (-odd if k % 2 else odd) - 2 / pi
    t, et = fixed.from_ball(lam_term, prec)
    return fixed.to_ball(total + 2 * abs(t), (k - 3) * (ec + 1) + 2 * et, prec, bits)


def oscillation_report(poly: FamilyPoly, spec: OscillationSpec, bits: int) -> VerificationReport:
    """The oscillation certificate of W_k or Q_k, k >= spec.min_k: every
    nontrivial zero is on the unit circle when the uniform bound is below d
    and the comparison function alternates with |f| > d at every sample."""
    k = poly.k
    target = poly.strip_origin().degree
    bound = spec.uniform_bound(poly, bits)
    osc = alternating_verify(spec.evaluator(k), sample_points(spec, k), spec.d, bits)
    osc.uniform_bound = bound
    certified = bool(bound.lt(spec.d) and osc.order_achieved >= target
                     and all(s != 0 for s in osc.signs))
    return VerificationReport(poly.family, k, "oscillation", target if certified else 0, target,
                              None, None, certified, origin_zeros=poly.origin_multiplicity,
                              detail={"oscillation": {"k": k, **osc.to_doc()}})
