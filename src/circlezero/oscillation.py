"""The oscillation lemma for W_k and Q_k: a trigonometric comparison function
certified alternating on an explicit sample grid, with |f| > d at every
point, while the coefficient-difference sum bounds the approximation error
uniformly below d.  The comparison function, the uniform bound and j0 are
fixed-point formulas (`fixed`), the bound over the integer coefficients of
`FamilyPoly.fixed_coefficients`, every rational times a power of pi one
`fixed.pi_multiple`.  What each family contributes is an `OscillationSpec`
in `verify.FAMILY_SPECS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from . import fixed
from .enclosure import escalate
from .errors import DomainError, PrecisionError
from .families import FamilyPoly
from .reports import OscillationReport, VerificationReport

# points -> bits -> [(v, e, prec)] with |f(point) - v 2^-prec| <= e 2^-prec
Evaluator = Callable[[Sequence, int], list[tuple[int, int, int]]]


@dataclass(frozen=True)
class OscillationSpec:
    """What the oscillation lemma needs for one family (W or Q)."""

    d: Fraction                                   # oscillation distance
    j0_denominator: Callable[[int], tuple[int, int]]  # prec -> arccos denominator (v, e)
    min_k: int                                    # smaller k take the sign-count route
    evaluator: Callable[[int], Evaluator]
    uniform_bound: Callable[[FamilyPoly, int], tuple[int, int, int]]   # (v, e, prec)
    drop_halves: bool                             # drop the two positive boundary halves


def _alpha_j0(k: int, spec: OscillationSpec, bits: int = 128) -> int:
    """j0 = floor((k-1) alpha) + 1, alpha = arccos(x) / pi, x = d / denominator
    by one `fixed.div` of d's floor (within one unit) by the spec's pair.

    cos is decreasing on [0, pi], so floor((k-1) alpha) is the number of j
    in 1..k-1 with cos(pi j/(k-1)) >= x.  Those cosines are the even entries
    of `fixed.cos_table(b + GUARD, 2(k-1))`, the table the sample points
    read, each within TABLE_ERR; an entry is counted when its lower
    end clears x's upper end and left out when its upper end is below x's
    lower end.  While some entry is neither, the precision b escalates.
    """
    def attempt(b: int) -> tuple[bool, int]:
        prec = b + fixed.GUARD
        x, ex = fixed.div(fixed.floor_shift(spec.d, prec), 1, *spec.j0_denominator(prec), prec)
        table, err = fixed.cos_table(prec, 2 * (k - 1)), fixed.TABLE_ERR
        above = sum(1 for j in range(1, k) if table[2 * j] - err >= x + ex)
        below = sum(1 for j in range(1, k) if table[2 * j] + err < x - ex)
        return above + below == k - 1, above + 1

    decided, j0 = escalate(attempt, bits)
    if not decided:
        raise PrecisionError(f"j0 indeterminate at k={k}")
    return j0


def sample_points(spec: OscillationSpec, k: int) -> list[int | Fraction]:
    """The sample angles theta = t pi / (2(k-1)) as indices t, k >= spec.min_k,
    mirrored over 0: the even t of the integer points j/(k-1), then the odd
    t of the half-integer points from j0 on, then the point just short of
    pi, t = 2(k-1) - 1/(4k), the one index off the integer grid.  With
    `drop_halves` (Q) the two positive half-integer boundary points go (one
    point when they coincide)."""
    j0, n = _alpha_j0(k, spec), 2 * (k - 1)
    halfs = range(2 * j0 - 1, 2 * (k - j0), 2)
    neg = [*range(2, 2 * j0, 2), *halfs, *range(2 * (k - j0), n - 1, 2), n - Fraction(1, 4 * k)]
    drop = {halfs[0], halfs[-1]} if spec.drop_halves else set()
    pos = [t for t in neg if t not in drop]
    return [-t for t in reversed(neg)] + [0] + pos


@lru_cache(maxsize=16)
def _rotation_powers(x: Fraction, k: int, prec: int) -> dict[int, tuple[tuple[int, int], tuple[int, int]]]:
    """m -> (cos(m pi x), sin(m pi x)) as fixed-point (value, error) pairs at
    prec, for m = 1, k-3, k-2, k-1 and k, from one `fixed.rotation`.

    z = e^(i pi x) enters at wp = prec + G, G = 2 bit_length(k) + 8.  z^(k-3)
    is z times the binary power z^(k-4), and the next three powers multiply
    by z once more, each product in Gaussian integers through
    `fixed.gauss_mul`, so every component carries an exact error bound E.
    Shifted down by G bits (floored), as `fixed.cos_table` does, a component is off by less than
    E 2^-G + 1 <= (E >> G) + 2 units.  A product's component error is at
    most about sqrt(2) times the sum of its factors' plus four units, so
    over log2(k) squarings E stays below a few k^(3/2) units (about 6k
    measured for k = 11..5000), far under 2^G; were it above, f's error
    would only widen.
    """
    G = 2 * k.bit_length() + 8
    wp = prec + G
    z = p = fixed.rotation(x, wp)
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
                constants: Callable[[int], tuple[tuple[int, int], tuple[int, int]]]) -> Evaluator:
    """f(theta) = 2 trig_x(theta) + B trig_y(theta) + C sin((k-3) theta) / sin(theta)
    at theta = t pi / n, n = 2(k-1), for every index t of a list, as
    f(ts, bits) -> [(v, e, prec)] with |f(theta) - v 2^-prec| <= e 2^-prec;
    x and y are (is_sin, multiple), and constants(prec) gives (B, C) as
    fixed-point pairs.

    One integer formula at prec = bits + `fixed.GUARD` carries an error
    budget through `fixed.mul`/`fixed.div`.  An integer t reads its trig
    values straight from `fixed.cos_table(prec, n)` (a sine is the cosine a
    quarter period, k - 1 entries, earlier), in one loop over the points;
    the two points just short of +-pi share `_rotation_powers` of their
    common |theta|.  At theta = 0, +-pi the quotient is its limit
    (k-3) sgn, exactly.
    """
    n, h = 2 * (k - 1), k - 1
    trigs = (x, y, (1, k - 3), (1, 1))

    def f(ts: Sequence, bits: int) -> list[tuple[int, int, int]]:
        prec = bits + fixed.GUARD
        (b, eb), (c, ec) = constants(prec)
        table, E = fixed.cos_table(prec, n), fixed.TABLE_ERR
        out = []
        for t in ts:
            if t % 1:   # off the grid: cos is even, sin odd
                p = _rotation_powers(abs(t) / n, k, prec)
                trig = [(-v if s and t < 0 else v, ev) for s, m in trigs for v, ev in [p[m][s]]]
            else:
                trig = [(table[(m * t - s * h) % (2 * n)], E) for s, m in trigs]
            (tx, ex), (ty, ey), s3, s1 = trig
            if t % n == 0:
                # sin((k-3) theta) / sin(theta) -> (k-3) at 0, (k-3)(-1)^k at +-pi
                q, eq = (k - 3 if t % (2 * n) == 0 or k % 2 == 0 else 3 - k) << prec, 0
            else:
                q, eq = fixed.div(*s3, *s1, prec)
            by, eby = fixed.mul(b, eb, ty, ey, prec)
            cq, ecq = fixed.mul(c, ec, q, eq, prec)
            out.append((2 * tx + by + cq, 2 * ex + eby + ecq, prec))
        return out

    return f


def _w_rho(k: int) -> Fraction:
    return 2 / (1 - Fraction(2) ** (1 - 2 * k))


def _q_rho(k: int) -> Fraction:
    return 8 * (1 - Fraction(2) ** (3 - 2 * k)) / (1 - Fraction(2) ** (2 - 2 * k))


def _pi_plus(q: Fraction, n: int, c: int) -> Callable[[int], tuple[int, int]]:
    """prec -> q pi^n + c as a fixed-point pair: a j0 denominator."""
    def pair(prec: int) -> tuple[int, int]:
        v, e = fixed.pi_multiple(q, n, prec)
        return v + (c << prec), e
    return pair


def _w_eval(k: int) -> Evaluator:
    """w_k(theta) = 2 cos(k theta) + (pi^2/3) cos((k-2) theta) + rho sin((k-3) theta)/sin(theta)."""
    return _comparison(k, (0, k), (0, k - 2), lambda prec: (
        fixed.pi_multiple(Fraction(1, 3), 2, prec), (fixed.floor_shift(_w_rho(k), prec), 1)))


def _q_eval(k: int) -> Evaluator:
    """q_k(theta) = 2 cos((k-2) theta) + (4/pi) sin((k-1) theta) + (rho/pi^2) sin((k-3) theta)/sin(theta)."""
    rho = _q_rho(k)
    return _comparison(k, (0, k - 2), (1, k - 1), lambda prec: (
        fixed.pi_multiple(Fraction(4), -1, prec), fixed.pi_multiple(rho, -2, prec)))


def alternating_verify(f: Evaluator, points: Sequence, d: Fraction, unit: int,
                       bits: int = 128) -> OscillationReport:
    """Certify signs and |f| > d at each sample point theta = t pi / unit,
    given by its index t; count alternations.

    f(points, bits) encloses f at each point as (v, e, prec).  With
    d = num / den, a point is above d when (|v| - e) den > num 2^prec, below
    when (|v| + e) den < num 2^prec.  Each attempt of one `escalate`
    evaluates the points still undecided, the first (at `bits`) the whole
    grid; a point below d or undecided at the last gets sign 0.  min_abs is
    the point above d with the smallest upper end (|v| + e) 2^-prec, as a
    ball at the bits that decided it.
    """
    if any(points[i] >= points[i + 1] for i in range(len(points) - 1)):
        raise DomainError("sample points must be strictly increasing")
    num, den = d.numerator, d.denominator
    results: list = [None] * len(points)   # (above, below, v, e, prec, bits) per point
    pending = range(len(points))

    def attempt(b: int) -> tuple[bool, None]:
        nonlocal pending
        for i, (v, e, prec) in zip(pending, f([points[i] for i in pending], b)):
            lo, hi = (abs(v) - e) * den, (abs(v) + e) * den
            results[i] = (lo > num << prec, hi < num << prec, v, e, prec, b)
        pending = [i for i in pending if not (results[i][0] or results[i][1])]
        return not pending, None

    escalate(attempt, bits)
    signs: list[int] = []
    least = None    # (|v|, e, prec, bits) of the point above d with the smallest upper end
    for above, _, v, e, prec, b in results:
        signs.append((v > 0) - (v < 0) if above else 0)
        if above and (least is None or (abs(v) + e) << least[2] < (least[0] + least[1]) << prec):
            least = (abs(v), e, prec, b)
    min_abs = None if least is None else fixed.to_ball(*least)
    certified = [s for s in signs if s != 0]
    order = sum(1 for i in range(len(certified) - 1) if certified[i] != certified[i + 1])
    return OscillationReport(list(points), unit, signs, min_abs, order, d)


def _uniform_bound(poly: FamilyPoly, bits: int, base: int, extra: int,
                   constants: Callable[[int], tuple[tuple[int, int], tuple[int, int]]]
                   ) -> tuple[int, int, int]:
    """sum_{j=2}^{k-2} |A_j/A - r| + 2 |a_extra/A - c| as (v, e, prec), A = a_base,
    with a_i = (-1)^floor(i/2) c_i (A_j = a_2j, the even coefficients at
    iz); constants(prec) gives (r, c) as fixed-point pairs at
    prec = bits + `fixed.GUARD`.  The c_i are `fixed_coefficients`
    C_i +- e_i over one unit, so each ratio is one `fixed.div`.  One sum,
    one error: | |x| - |y| | <= |x - y|.
    """
    k, prec = poly.k, bits + fixed.GUARD
    _, C, e = poly.fixed_coefficients(prec, 2 * k - 3)
    a = [(-C[i] if i // 2 % 2 else C[i], e[i]) for i in range(2 * k - 3)]
    (r, er), (c, ec) = constants(prec)
    total = err = 0
    for j in range(2, k - 1):
        q, eq = fixed.div(*a[2 * j], *a[base], prec)
        total, err = total + abs(q - r), err + eq + er
    q, eq = fixed.div(*a[extra], *a[base], prec)
    return total + 2 * abs(q - c), err + 2 * (eq + ec), prec


def _w_uniform_bound(w: FamilyPoly, bits: int) -> tuple[int, int, int]:
    """2 |A_1/A_0 - pi^2/6| + sum_{j=2}^{k-2} |A_j/A_0 - 2/(1-2^(1-2k))|."""
    return _uniform_bound(w, bits, 0, 2, lambda prec: (
        (fixed.floor_shift(_w_rho(w.k), prec), 1), fixed.pi_multiple(Fraction(1, 6), 2, prec)))


def _q_uniform_bound(q: FamilyPoly, bits: int) -> tuple[int, int, int]:
    """sum_{j=2}^{k-2} |A_j/A_1 - rho/pi^2| + 2 |(-1)^k zeta(2k-1)(2^(2k-1)-1)/A_1 - 2/pi|;
    over pi^(2k-1), the last numerator is c_1 = eps (2^(2k-1) - 1) lambda_k,
    eps = (-1)^k, which `fixed_coefficients` carries."""
    return _uniform_bound(q, bits, 2, 1, lambda prec: (
        fixed.pi_multiple(_q_rho(q.k), -2, prec), fixed.pi_multiple(Fraction(2), -1, prec)))


def oscillation_report(poly: FamilyPoly, spec: OscillationSpec, bits: int) -> VerificationReport:
    """The oscillation certificate of W_k or Q_k, k >= spec.min_k: every
    nontrivial zero is on the unit circle when the uniform bound is below d
    and the comparison function alternates with |f| > d at every sample."""
    k = poly.k
    target = poly.strip_origin().degree
    osc = alternating_verify(spec.evaluator(k), sample_points(spec, k), spec.d, 2 * (k - 1), bits)
    v, e, prec = spec.uniform_bound(poly, bits)
    osc.uniform_bound = fixed.to_ball(v, e, prec, bits)
    below_d = (v + e) * spec.d.denominator < spec.d.numerator << prec
    certified = below_d and osc.order_achieved >= target and all(s != 0 for s in osc.signs)
    return VerificationReport(poly.family, k, "oscillation", target if certified else 0, target,
                              None, None, certified, origin_zeros=poly.origin_multiplicity,
                              detail={"oscillation": {"k": k, **osc.to_doc()}})
