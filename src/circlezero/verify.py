"""Unit-circle zero certification engines.

Three independent methods:

1. Coefficient criteria (Lakatos / Schinzel with d = 1): a margin enclosure
   |A_top| - sum |c A_j - A_top| certified positive puts every zero of a
   reciprocal/self-inversive polynomial on the unit circle.
2. Oscillation: for W_k and Q_k, a trigonometric comparison function is
   certified alternating on an explicit sample grid while the exact
   coefficient-difference sum bounds the approximation error uniformly below
   the oscillation distance.  Every sample angle but the two just short of
   +-pi is a multiple of pi / (2(k-1)), so the comparison function is one
   fixed-point integer formula with an error budget over one cosine table
   per (k, precision); the two others read their trig values from
   `ball_cos_sin`.
3. Sign counting: for a self-inversive p of even degree 2m,
   g(theta) = e^(-i m theta) p(e^(i theta)) is a real cosine sum (eps = +1)
   or i times a real sine sum (eps = -1) whose zeros in (0, pi) are the
   circle-zero angles of p; certified sign alternations of g are counted on
   power-of-two grids theta = j pi / M in exact fixed-point arithmetic.
   Each grid is one transform: g(j pi / M) for j = 0 .. M is the real
   (eps = +1) or imaginary (eps = -1) part of a pruned radix-2 DFT of length
   2M in Python integers, with one a-priori budget for the coefficient
   errors, the table error per level and the rounding per twiddle product.
   The twiddles come from one cosine table per working precision kept for
   the process (read by stride, shifted a quarter period for sin).  A
   report's `evaluations` counts the grid points whose sign was taken
   (M - 1), not arithmetic operations.  The symmetry
   c_(n-j) = eps c_j is checked exactly at the entry; an odd degree then
   divides out its forced zero z = -eps exactly in Q[lam], so every degree
   takes this one route.

A root route cross-validates every certification.  The coefficients are
turned into integers over one common power of two; float
Aberth seeds are polished one root at a time by Newton's method in
fixed-point Gaussian integers, and one more Horner pass per root, carrying an
integer error budget for p and p', gives each root the residual radius
n |p(x)| / |p'(x)|.  Only pairs that a float distance matrix puts near the
closest one get ball distances in the separation check.

What the paper proves per family lives in one table, FAMILY_SPECS: the
smallest k, the Schinzel constant (none: Lakatos, c = 1) and, for W and Q,
the oscillation data.  Every route takes the built polynomial and reads its
target count and origin zeros from `strip_origin()`; every ball check that
cannot decide yet escalates its precision through `enclosure.escalate`.
The sign and roots routes read their coefficients only through
`FamilyPoly.fixed_coefficients`, integers over one common power of two: for
P_k, integer products of a per-precision table of B_2j / (2j)!; for every
other family, its coefficient balls with lam bound once per polynomial.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from math import atan2, isqrt
from typing import Callable, Sequence

from mpmath import libmp, mp

from .enclosure import (
    RAD_PREC,
    ComplexEnclosure,
    RealEnclosure,
    ball_acos,
    ball_cos_sin,
    escalate,
    lambda_k,
)
from .errors import DomainError, NumericError, PrecisionError
from .families import (
    FamilyPoly,
    ZERO_COEFF,
    ZetaCoefficient,
    _fixed_from_ball,
    abs_square_coeffs,
    build_family,
)

CERTIFIED_TRUE = "certified-true"
CERTIFIED_FALSE = "certified-false"
INDETERMINATE = "indeterminate"


@dataclass
class CriteriaReport:
    family: str
    k: int
    criterion: str  # "lakatos" | "schinzel"
    c: RealEnclosure
    margin: RealEnclosure
    holds: str
    exact: bool = False

    def to_doc(self) -> dict:
        cm, cr = self.c.str_pair()
        mm, mr = self.margin.str_pair()
        return {"family": self.family, "k": self.k, "criterion": self.criterion,
                "c_mid": cm, "c_rad": cr, "margin_mid": mm, "margin_rad": mr,
                "holds": self.holds, "exact": self.exact}


@dataclass
class OscillationReport:
    points: list[Fraction]          # angles as multiples of pi
    signs: list[int]                # certified signs, 0 where indeterminate
    min_abs: RealEnclosure | None
    order_achieved: int
    d: Fraction
    uniform_bound: RealEnclosure | None = None

    def to_doc(self) -> dict:
        doc = {"points": [str(p) for p in self.points],
               "signs": self.signs, "order_achieved": self.order_achieved,
               "d": str(self.d)}
        if self.min_abs is not None:
            doc["min_abs_mid"], doc["min_abs_rad"] = self.min_abs.str_pair()
        if self.uniform_bound is not None:
            doc["bound_mid"], doc["bound_rad"] = self.uniform_bound.str_pair()
        return doc


@dataclass
class VerificationReport:
    family: str
    k: int
    method: str  # "criteria" | "oscillation" | "sign-count" | "roots"
    zeros_on_circle: int
    degree_nontrivial: int
    max_mod_dev: RealEnclosure | None
    min_root_sep: RealEnclosure | None
    certified: bool
    origin_zeros: int = 0
    detail: dict = field(default_factory=dict)
    verdict: str = ""

    def __post_init__(self):
        if not self.verdict:
            self.verdict = CERTIFIED_TRUE if self.certified else INDETERMINATE

    def to_doc(self) -> dict:
        doc = {"family": self.family, "k": self.k, "method": self.method,
               "zeros_on_circle": self.zeros_on_circle,
               "degree_nontrivial": self.degree_nontrivial,
               "origin_zeros": self.origin_zeros,
               "certified": self.certified, "verdict": self.verdict}
        for name, enc in (("max_mod_dev", self.max_mod_dev), ("min_root_sep", self.min_root_sep)):
            if enc is not None:
                doc[name + "_mid"], doc[name + "_rad"] = enc.str_pair()
            else:
                doc[name + "_mid"] = doc[name + "_rad"] = ""
        if self.detail:
            doc["detail"] = {k: v for k, v in self.detail.items()}
        return doc


# ---------------------------------------------------------------------------
# coefficient criteria
# ---------------------------------------------------------------------------

def _reciprocal(poly: FamilyPoly) -> FamilyPoly:
    """The origin-stripped polynomial, checked reciprocal."""
    p = poly.strip_origin()
    d = p.degree
    if any(p.coeffs[d - j] != p.coeffs[j] for j in range(d + 1)):
        raise DomainError(f"{poly.family}_{poly.k}: not reciprocal, criteria do not apply")
    return p


def _margin_exact(coeffs: list[Fraction], c: Fraction) -> Fraction:
    top = coeffs[-1]
    return abs(top) - sum(abs(c * a - top) for a in coeffs)


def _margin_ball(vals: list[RealEnclosure], c: RealEnclosure, bits: int) -> RealEnclosure:
    top = vals[-1]
    acc = RealEnclosure.exact(0, bits)
    for v in vals:
        acc = acc + (c * v - top).abs()
    return top.abs() - acc


def _criteria_verdict(margin: RealEnclosure) -> str:
    return {1: CERTIFIED_TRUE, -1: CERTIFIED_FALSE, 0: INDETERMINATE}[margin.sign()]


def lakatos_check(poly: FamilyPoly, bits: int = 128) -> CriteriaReport:
    """Lakatos condition: |A_top| >= sum |A_j - A_top| on a reciprocal polynomial."""
    return _margin_check(poly, Fraction(1), bits, "lakatos")


def schinzel_check(poly: FamilyPoly, c, bits: int = 128) -> CriteriaReport:
    """Schinzel condition with d = 1: |A_top| >= sum |c A_j - A_top|.

    `c` may be a Fraction (exact path when the polynomial is rational) or a
    callable bits -> RealEnclosure for irrational constants.
    """
    return _margin_check(poly, c, bits, "schinzel")


def _margin_check(poly: FamilyPoly, c, bits: int, criterion: str) -> CriteriaReport:
    p = _reciprocal(poly)
    n = p.degree + 1
    exact = isinstance(c, (int, Fraction)) and p.is_rational()

    def attempt(b: int) -> tuple[bool, CriteriaReport]:
        # the exact margin always decides, so it is the first and only attempt
        if exact:
            enc = RealEnclosure.exact(_margin_exact([x.a for x in p.coeffs[:n]], Fraction(c)), b)
            return True, CriteriaReport(poly.family, poly.k, criterion,
                                        RealEnclosure.exact(Fraction(c), b), enc,
                                        _criteria_verdict(enc), exact=True)
        c_ball = c(b) if callable(c) else RealEnclosure.exact(Fraction(c), b)
        margin = _margin_ball(p.coefficient_balls(b)[:n], c_ball, b)
        verdict = _criteria_verdict(margin)
        return verdict != INDETERMINATE, CriteriaReport(
            poly.family, poly.k, criterion, c_ball, margin, verdict)

    return escalate(attempt, bits)[1]


def criteria_check(poly: FamilyPoly, bits: int = 128) -> CriteriaReport:
    """The family's coefficient criterion: Schinzel with the constant from
    FAMILY_SPECS, or Lakatos where the table gives none."""
    constant = FAMILY_SPECS[poly.family].schinzel
    if constant is None:
        return lakatos_check(poly, bits)
    return schinzel_check(poly, constant(poly.k), bits)


def schinzel_constant_S(k: int) -> Callable[[int], RealEnclosure]:
    """c = pi / (4 (1 + 3^(-1-2k))) for S_k."""
    scale = Fraction(3 ** (1 + 2 * k), 4 * (3 ** (1 + 2 * k) + 1))
    return lambda bits: RealEnclosure.pi(bits) * scale


def schinzel_constant_Y(k: int) -> Callable[[int], RealEnclosure]:
    """c = pi^2 (1 - 2^(2-2k)) / (8 (1 - 2^(3-2k))) for Y_k/z."""
    scale = (1 - Fraction(2) ** (2 - 2 * k)) / (8 * (1 - Fraction(2) ** (3 - 2 * k)))
    return lambda bits: RealEnclosure.pi(bits).pow_int(2) * scale


def abs_square_poly(k: int) -> FamilyPoly:
    """|P_k(iz)|^2 packaged as a (reciprocal) FamilyPoly over Q[lam^2]."""
    return FamilyPoly("P", k, 4 * k - 2, abs_square_coeffs(k), +1, note="|P_k(iz)|^2")


def observation_identity(k: int, bits: int = 256) -> tuple[bool, RealEnclosure]:
    """Check 4k(k-1)|A_4k| = sum_j |A_4k - A_j| for |P_k(iz)|^2.

    Certifies the sign of each difference with enclosures, then cancels the
    lam^2 parts exactly in Q[lam^2]; returns (exact_identity_holds, residual
    enclosure of lhs - rhs).
    """
    coeffs = abs_square_coeffs(k)
    top = coeffs[-1]
    assert top.is_rational() and top.a > 0
    lam = lambda_k(k, bits)
    total = ZERO_COEFF
    for cj in coeffs:
        diff = top - cj
        if diff == ZERO_COEFF:
            continue
        s = diff.eval(lam).sign()
        if s == 0:
            raise PrecisionError(f"observation sign indeterminate at k={k}")
        total = total + (diff if s > 0 else -diff)
    lhs = Fraction(4 * k * (k - 1)) * top.a
    exact_ok = (total.b == 0 and total.c == 0 and total.a == lhs)
    residual = (ZetaCoefficient.rational(lhs) - total).eval(lam)
    return exact_ok, residual


# ---------------------------------------------------------------------------
# oscillation method
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OscillationSpec:
    """What the oscillation lemma needs for one family (W or Q)."""

    d: Fraction                                   # oscillation distance
    j0_denominator: Callable[[RealEnclosure], RealEnclosure]  # pi -> arccos denominator
    min_k: int                                    # smaller k take the sign-count route
    evaluator: Callable[[int], Callable[[Fraction, int], RealEnclosure]]
    uniform_bound: Callable[[FamilyPoly, int], RealEnclosure]
    drop_halves: bool                             # drop the two positive boundary halves


def _alpha_j0(k: int, spec: OscillationSpec, bits: int = 128) -> int:
    """j0 = floor((k-1) alpha) + 1 with alpha certified from its arccos formula."""
    def attempt(b: int) -> tuple[bool, int]:
        pi = RealEnclosure.pi(b)
        alpha = ball_acos(RealEnclosure.exact(spec.d, b) / spec.j0_denominator(pi)) / pi
        x = alpha * (k - 1)
        lo, hi = int(mp.floor(x.lower)), int(mp.floor(x.upper))
        return lo == hi, lo + 1

    decided, j0 = escalate(attempt, bits)
    if not decided:
        raise PrecisionError(f"j0 indeterminate at k={k}")
    return j0


def oscillation_samples(family: str, k: int) -> list[Fraction]:
    """The sample angles (as multiples of pi) of the family's comparison
    function, mirrored over 0: integer points, then half-integer points from
    j0 on, then the last point just short of pi.  Q drops the two positive
    half-integer boundary points (one point when they coincide)."""
    spec = _oscillation_spec(family)
    if k < spec.min_k:
        raise DomainError(f"{family.lower()}_k sample grid needs k >= {spec.min_k}, got {k}")
    j0 = _alpha_j0(k, spec)
    eps = Fraction(1, 8 * k)
    halfs = [Fraction(2 * j - 1, 2 * (k - 1)) for j in range(j0, k - j0 + 1)]
    neg = ([Fraction(j, k - 1) for j in range(1, j0)] + halfs
           + [Fraction(j, k - 1) for j in range(k - j0, k - 1)] + [(k - 1 - eps) / (k - 1)])
    drop = {halfs[0], halfs[-1]} if spec.drop_halves else set()
    pos = [p for p in neg if p not in drop]
    return [-p for p in reversed(neg)] + [Fraction(0)] + pos


# Bits of fixed point kept beyond the requested precision by the comparison
# functions; every oscillation table entry is within OSC_TABLE_ERR units of
# 2^-(bits + OSC_GUARD), since its angle takes pi 8 bits finer than the table.
OSC_GUARD = 32
OSC_TABLE_ERR = 2


# W_k and Q_k share a table when a sweep reaches Q_k within 32 tables of W_k
@lru_cache(maxsize=32)
def _osc_cos_table(k: int, prec: int) -> list[int]:
    """2^prec cos(pi t / (2(k-1))) for t = 0 .. 4(k-1) - 1, each entry within
    OSC_TABLE_ERR."""
    return _grow_cos_table(prec, 0, [], 2 * (k - 1), pi_extra=8, bound=OSC_TABLE_ERR)


@lru_cache(maxsize=16)
def _fixed_cos_sin(x: Fraction, prec: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """cos(pi x) and sin(pi x) as fixed-point (value, error) pairs in units of
    2^-prec, from one `ball_cos_sin` with pi taken 8 bits finer."""
    c, s = ball_cos_sin(RealEnclosure.pi(prec + 8) * x)
    return _fixed_from_ball(c, prec), _fixed_from_ball(s, prec)


def _fixed_mul(u: int, eu: int, v: int, ev: int, prec: int) -> tuple[int, int]:
    """(u v / 2^prec, error) for fixed-point u +- eu and v +- ev in units of
    2^-prec: |u v - U V| <= |u| ev + (|v| + ev) eu, and the shift rounds down."""
    return (u * v) >> prec, ((abs(u) * ev + (abs(v) + ev) * eu) >> prec) + 2


def _fixed_div(a: int, ea: int, b: int, eb: int, prec: int) -> tuple[int, int]:
    """(2^prec a / b, error) for fixed-point a +- ea and b +- eb in units of
    2^-prec: |a/b - A/B| <= (ea (|b| - eb) + (|a| + ea) eb) / (|b| (|b| - eb))."""
    b_abs = abs(b)
    if b_abs <= eb:
        raise PrecisionError("fixed-point divisor enclosure touches 0")
    num = (ea * (b_abs - eb) + (abs(a) + ea) * eb) << prec
    return (a << prec) // b, -(-num // (b_abs * (b_abs - eb))) + 1


def _comparison(k: int, x: tuple[int, int], y: tuple[int, int],
                constants: Callable[[RealEnclosure], tuple[RealEnclosure, RealEnclosure]]):
    """f(theta) = 2 trig_x(theta) + B trig_y(theta) + C sin((k-3) theta) / sin(theta)
    at theta = r pi, as f(r, bits) -> ball; x and y are (is_sin, multiple), and
    constants(pi) gives (B, C).

    One integer formula at bits + OSC_GUARD carries an error budget through
    `_fixed_mul`/`_fixed_div`.  Every sample angle but the two just short of
    +-pi is a multiple of pi / (2(k-1)), so its trig values are entries of
    `_osc_cos_table` (a sine is the cosine a quarter period earlier); the two
    others take theirs from `ball_cos_sin`.  At theta = 0, +-pi the quotient
    is its limit (k-3) sgn, exactly.
    """
    n = 2 * (k - 1)

    @cache
    def fixed_constants(bits: int) -> tuple[int, tuple[int, int], tuple[int, int]]:
        prec = bits + OSC_GUARD
        return prec, *(_fixed_from_ball(v, prec) for v in constants(RealEnclosure.pi(prec + 8)))

    def f(r: Fraction, bits: int) -> RealEnclosure:
        prec, (b, eb), (c, ec) = fixed_constants(bits)
        t = r * n
        if t.denominator == 1:
            table, t = _osc_cos_table(k, prec), int(t)

            def trig(is_sin: int, m: int) -> tuple[int, int]:
                return table[(m * t - is_sin * (k - 1)) % (2 * n)], OSC_TABLE_ERR
        else:
            def trig(is_sin: int, m: int) -> tuple[int, int]:
                v, e = _fixed_cos_sin(abs(r) * m, prec)[is_sin]
                return -v if is_sin and r < 0 else v, e     # cos is even, sin odd
        tx, ex = trig(*x)
        ty, ey = trig(*y)
        if t % n == 0:
            # sin((k-3) theta) / sin(theta) -> (k-3) at 0, (k-3)(-1)^k at +-pi
            q, eq = (k - 3 if t % (2 * n) == 0 or k % 2 == 0 else 3 - k) << prec, 0
        else:
            q, eq = _fixed_div(*trig(1, k - 3), *trig(1, 1), prec)
        by, eby = _fixed_mul(b, eb, ty, ey, prec)
        cq, ecq = _fixed_mul(c, ec, q, eq, prec)
        return RealEnclosure(libmp.from_man_exp(2 * tx + by + cq, -prec),
                             libmp.from_man_exp(2 * ex + eby + ecq, -prec, RAD_PREC, "c"), bits)

    return f


def _w_eval(k: int):
    """w_k(theta) = 2 cos(k theta) + (pi^2/3) cos((k-2) theta) + rho sin((k-3) theta)/sin(theta)."""
    rho = 2 / (1 - Fraction(2) ** (1 - 2 * k))
    return _comparison(k, (0, k), (0, k - 2),
                       lambda pi: (pi * pi * Fraction(1, 3), RealEnclosure.exact(rho, pi.prec)))


def _q_eval(k: int):
    """q_k(theta) = 2 cos((k-2) theta) + (4/pi) sin((k-1) theta) + (rho/pi^2) sin((k-3) theta)/sin(theta)."""
    rho = 8 * (1 - Fraction(2) ** (3 - 2 * k)) / (1 - Fraction(2) ** (2 - 2 * k))
    return _comparison(k, (0, k - 2), (1, k - 1),
                       lambda pi: (4 / pi, RealEnclosure.exact(rho, pi.prec) / (pi * pi)))


def _point_sign(val: RealEnclosure, d: RealEnclosure) -> tuple[bool, tuple[int, RealEnclosure]]:
    """(decided, (sign, |val|)): decided once |val| is certified above or
    below d, whatever the sign; the sign is nonzero only where |val| > d."""
    a = val.abs()
    above = a.gt(d)
    return above or a.lt(d), (val.sign() if above else 0, a)


def alternating_verify(f: Callable[[Fraction, int], RealEnclosure],
                       points: Sequence[Fraction], d: Fraction,
                       bits: int = 128) -> OscillationReport:
    """Certify signs and |f| > d at each sample angle; count alternations.

    A point gets sign 0 when |f| is certified below d or is still undecided
    after the precision escalation.
    """
    if any(points[i] >= points[i + 1] for i in range(len(points) - 1)):
        raise DomainError("sample points must be strictly increasing")
    signs: list[int] = []
    min_abs: RealEnclosure | None = None
    d_ball = cache(lambda b: RealEnclosure.exact(d, b))
    for r in points:
        _, (sign, a) = escalate(lambda b: _point_sign(f(r, b), d_ball(b)), bits)
        signs.append(sign)
        if sign != 0:
            min_abs = a if min_abs is None or a.upper < min_abs.upper else min_abs
    certified = [s for s in signs if s != 0]
    order = sum(1 for i in range(len(certified) - 1) if certified[i] != certified[i + 1])
    return OscillationReport(list(points), signs, min_abs, order, d)


def _w_uniform_bound(w: FamilyPoly, bits: int) -> RealEnclosure:
    """2 |A_1/A_0 - pi^2/6| + sum_{j=2}^{k-2} |A_j/A_0 - 2/(1-2^(1-2k))|.

    A_j are the even coefficients of W_k(iz); the inner sum is exact rational.
    """
    k = w.k
    ratios = [w.coeffs[2 * j].a * (-1) ** j / w.coeffs[0].a for j in range(k + 1)]
    rho = 2 / (1 - Fraction(2) ** (1 - 2 * k))
    exact_sum = sum(abs(ratios[j] - rho) for j in range(2, k - 1))
    pi = RealEnclosure.pi(bits)
    term1 = (RealEnclosure.exact(ratios[1], bits) - pi * pi * Fraction(1, 6)).abs()
    return term1 + term1 + RealEnclosure.exact(exact_sum, bits)


def _q_uniform_bound(q: FamilyPoly, bits: int) -> RealEnclosure:
    """sum_{j=2}^{k-2} |A_j/A_1 - (8/pi^2) r| + 2 |(-1)^k zeta(2k-1)(2^(2k-1)-1)/A_1 - 2/pi|."""
    k = q.k
    a1 = -q.coeffs[2].a  # A_1 = (-1)^1 * coeff(z^2)
    ratios = [q.coeffs[2 * j].a * (-1) ** j / a1 for j in range(k)]
    rq = 8 * (1 - Fraction(2) ** (3 - 2 * k)) / (1 - Fraction(2) ** (2 - 2 * k))
    pi = RealEnclosure.pi(bits)
    rho_ball = RealEnclosure.exact(rq, bits) / (pi * pi)
    acc = RealEnclosure.exact(0, bits)
    for j in range(2, k - 1):
        acc = acc + (RealEnclosure.exact(ratios[j], bits) - rho_ball).abs()
    # odd-term ratio: A_1 unnormalized is pi^(2k-1) * a1; zeta(2k-1) = lam pi^(2k-1)
    sign = -1 if k % 2 else 1
    lam = lambda_k(k, bits)
    tau = lam * Fraction(sign * ((1 << (2 * k - 1)) - 1)) / a1
    term = (tau - 2 / pi).abs()
    return acc + term + term


def oscillation_verify(poly: FamilyPoly, bits: int = 128) -> VerificationReport:
    """Certify every nontrivial zero of W_k or Q_k on the unit circle by the
    alternation of the family's comparison function; below the table's
    cutoff k the polynomial takes the sign-count route instead."""
    spec = _oscillation_spec(poly.family)
    k = poly.k
    if k < spec.min_k:
        rep = verify_by_sign_count(poly, bits)
        rep.detail["routed_from"] = "oscillation"
        return rep
    target = poly.strip_origin().degree
    bound = spec.uniform_bound(poly, bits)
    osc = alternating_verify(spec.evaluator(k), oscillation_samples(poly.family, k), spec.d, bits)
    osc.uniform_bound = bound
    certified = bool(bound.lt(spec.d) and osc.order_achieved >= target
                     and all(s != 0 for s in osc.signs))
    return VerificationReport(poly.family, k, "oscillation", target if certified else 0, target,
                              None, None, certified, origin_zeros=poly.origin_multiplicity,
                              detail={"oscillation": {"k": k, **osc.to_doc()}})


# W and Q share the one routine; both names stay as entry points.
oscillation_verify_W = oscillation_verify_Q = oscillation_verify


def _oscillation_spec(family: str) -> OscillationSpec:
    spec = FAMILY_SPECS[family].oscillation
    if spec is None:
        raise DomainError(f"oscillation method applies to W and Q, not {family}")
    return spec


# ---------------------------------------------------------------------------
# family registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """The coefficient theorem that certifies one family."""

    min_k: int
    # k -> Schinzel constant c (a bits -> ball callable); None: Lakatos, c = 1
    schinzel: Callable[[int], Callable[[int], RealEnclosure]] | None = None
    oscillation: OscillationSpec | None = None


FAMILY_SPECS: dict[str, FamilySpec] = {
    "R": FamilySpec(1),
    "P": FamilySpec(2),
    "Q": FamilySpec(2, oscillation=OscillationSpec(
        d=Fraction(3, 100),
        j0_denominator=lambda pi: RealEnclosure.exact(2, pi.prec) - 16 / (pi * pi),
        min_k=6, evaluator=_q_eval, uniform_bound=_q_uniform_bound, drop_halves=True)),
    "Y": FamilySpec(2, schinzel=schinzel_constant_Y),
    "W": FamilySpec(2, oscillation=OscillationSpec(
        d=Fraction(3, 10),
        j0_denominator=lambda pi: pi * pi * Fraction(1, 3) - 2,
        min_k=11, evaluator=_w_eval, uniform_bound=_w_uniform_bound, drop_halves=False)),
    "S": FamilySpec(1, schinzel=schinzel_constant_S),
}


# ---------------------------------------------------------------------------
# sign counting
# ---------------------------------------------------------------------------

# Every cosine table entry is within TABLE_ERR units of 2^-prec of the true
# value, whatever the table's size, so a count never depends on which grids
# the process built before.
TABLE_ERR = 5

# prec -> (S, [2^prec cos(pi t / S) for t = 0 .. 2S - 1]): one table per
# working precision for the process; S is a power of two and only grows.
_COS_TABLES: dict[int, tuple[int, list[int]]] = {}
_COS_TABLES_LOCK = threading.Lock()


def _first_grid(m: int) -> int:
    """The first grid of a degree-2m count: the smallest power of two >= max(3m, 32)."""
    return 1 << (max(3 * m, 32) - 1).bit_length()


def _cos_table(prec: int, M: int) -> list[int]:
    """2^prec cos(pi t / M) for t = 0 .. 2M - 1 (M a power of two >= 4), each
    entry within TABLE_ERR units: the process table read with stride S / M."""
    S, table = _COS_TABLES.get(prec, (0, []))
    if S < M:
        with _COS_TABLES_LOCK:
            S, table = _COS_TABLES.get(prec, (0, []))
            if S < M:
                S, table = M, _grow_cos_table(prec, S, table, M)
                _COS_TABLES[prec] = (S, table)
    return table[::S // M]


def _grow_cos_table(prec: int, S: int, table: list[int], M: int,
                    pi_extra: int = 0, bound: int = TABLE_ERR) -> list[int]:
    """The size-M table (M even) from the size-S one (S = 0: none).  Entries
    the old table holds are kept (t / M reduces to the same fraction, so the
    same ball), only t <= M/2 is computed, from pi taken `pi_extra` bits finer
    than the table, and the rest is mirrored by exact negation and copying:
    cos(pi - x) = -cos x, cos(2 pi - x) = cos x.  Every entry is checked
    within `bound` units."""
    pi = RealEnclosure.pi(prec + pi_extra)
    step = M // S if S else 0
    quarter = []
    for t in range(M // 2 + 1):
        if step and t % step == 0:
            quarter.append(table[t // step])
            continue
        v, e = _fixed_from_ball(ball_cos_sin(pi * Fraction(t, M))[0], prec)
        if e > bound:
            raise PrecisionError(f"cos(pi {t}/{M}) at {prec} bits is off by {e} units, "
                                 f"above the table bound {bound}")
        quarter.append(v)
    half = quarter + [-v for v in quarter[M // 2 - 1::-1]]   # t = 0 .. M
    return half + half[M - 1:0:-1]


def _half_dft(x: list[int], cos: list[int], prec: int) -> tuple[list[int], list[int]]:
    """(re, im) of X_j = sum_r x_r e^(i pi r j / M) for j = 0 .. M, from the
    real integers x and `cos` = `_cos_table(prec, M)`.

    A radix-2 decimation-in-time transform of length N = 2M, pruned and
    halved.  The node at stride d transforms the real subsequence
    x_s, x_(s+d), ... at length N / d; it is a plain copy of x_s when no entry
    after the first is nonzero, and otherwise combines its even and odd halves
    with the twiddles w^j = e^(2 pi i j d / N), read as cos[jd] and, for the
    sine, cos[jd - M/2].  A real input has a conjugate-symmetric transform, so
    each node keeps only j = 0 .. L, L = N / (2d), and one product
    t = w^j O_j gives X_j = E_j + t and X_(L-j) = conj(E_j - t).  Each
    product is floored to whole units of 2^-prec per component.
    """
    N = len(cos)
    quarter = N // 4

    def node(x: list[int], d: int) -> tuple[list[int], list[int]]:
        half = N // (2 * d)
        if not any(x[1:]):
            return [x[0] if x else 0] * (half + 1), [0] * (half + 1)
        # the even half is extended in place; going down in j, the odd half
        # is popped as it is used and every write at half - j >= j lands past
        # the even entries still to read, so a node holds ~N / d values
        re, im = node(x[0::2], 2 * d)
        o_r, oi = node(x[1::2], 2 * d)
        re += [0] * (half - half // 2)
        im += [0] * (half - half // 2)
        for j in range(half // 2, -1, -1):
            wr, wi = cos[j * d], cos[j * d - quarter]
            a, b = o_r.pop(), oi.pop()
            tr = (a * wr - b * wi) >> prec
            ti = (a * wi + b * wr) >> prec
            er, ei = re[j], im[j]
            re[j], im[j] = er + tr, ei + ti
            re[half - j], im[half - j] = er - tr, ti - ei
        return re, im

    return node(x, 1)


class _TrigEvaluator:
    """Certified fixed-point evaluation of g(theta) = sum_r q_r trig(r theta)
    on theta = j pi / M grids, for an origin-stripped self-inversive p of even
    degree n = 2m: q_0 = c_m, q_r = 2 c_(m-r) with trig = cos (eps = +1), or
    q_r = -2 c_(m-r) with trig = sin (eps = -1; c_m = 0 by the symmetry).
    p's `fixed_coefficients` give c_j = 2^(E - prec) (C_j +- e_j); with
    emax = E + 1, each doubled 2 c_(m-r) is C_(m-r) +- e_(m-r) in units of
    2^(emax - prec), and c_m is C_m / 2 floored, within e_m / 2 + 1/2 units.

    `grid_values(M)` returns g(j pi / M) for j = 0 .. M, each within `budget`,
    in units of 2^(emax - prec).  The budget bounds the error of `_half_dft`
    on the fixed-point `terms` x_r, against y_r = 2^(prec - emax) q_r with
    |x_r - y_r| <= e_r:

    - a node is a combine only if some x_r with r = s + t d, t >= 1, r <= m is
      nonzero, so its stride d <= m and s <= m - d.  A root-to-leaf path
      meets the strides 1, 2, 4, ... <= m, so at most h = bit_length(m)
      combines, and there are at most sum_(d <= m) d <= 2m - 1 combines.
    - a copy node is off by at most the sum of e_r over its subsequence: the
      terms it drops have x_r = 0, so |y_r| <= e_r.
    - a twiddle is within tau = sqrt 2 TABLE_ERR 2^-prec of w, so
      |w~| <= 1 + tau.  A combine is then off by at most
      dE + (1 + tau) dO + tau |O| + sqrt 2, with dE, dO its halves' errors,
      |O| <= sum |y_r| over its odd half and sqrt 2 for the floored
      product; the conjugate branch is off by the same.
    - by induction on the height, the root is off by at most
      (1 + tau)^h (sum e_r + h tau sum |y_r| + sqrt 2 (2m - 1)).

    With sqrt 2 <= 3/2, |y_r| <= |x_r| + e_r and (1 + tau)^h <= 1 + 2 h tau
    (h tau <= 1), `budget` is an integer upper bound of that, the same for
    every grid.
    """

    def __init__(self, p: FamilyPoly, bits: int):
        m = p.degree // 2
        self.prec = prec = bits + 32
        emax, C, E = p.fixed_coefficients(prec, m + 1)
        self.emax = emax + 1  # g(theta) = 2^(emax - prec) * (grid value +- budget)
        if p.epsilon > 0:
            fixed = [(0, C[m] >> 1, (E[m] >> 1) + 1)] + [(r, C[m - r], E[m - r])
                                                         for r in range(1, m + 1)]
        else:
            fixed = [(r, -C[m - r], E[m - r]) for r in range(1, m + 1)]
        self.terms = [0] * (m + 1)   # x_r
        for r, c, _ in fixed:
            self.terms[r] = c
        self.use_sin = p.epsilon < 0
        h, err = m.bit_length(), sum(e for _, _, e in fixed)
        tau_num = 3 * TABLE_ERR   # tau <= tau_num / 2^(prec + 1)
        inner = (err + _ceil_mul(tau_num * h, sum(abs(c) + e for _, c, e in fixed), prec + 1)
                 + 3 * m)
        self.budget = inner + _ceil_mul(tau_num * h, inner, prec)

    def grid_values(self, M: int) -> list[int]:
        """g(j pi / M) for j = 0 .. M, each within `budget`: one `_half_dft`
        of the terms against the process cosine table of the grid."""
        return _half_dft(self.terms, _cos_table(self.prec, M), self.prec)[self.use_sin]


def _factor_sign_count(p: FamilyPoly, bits: int) -> VerificationReport:
    """Sign counting for an origin-stripped self-inversive p of even degree,
    whose symmetry c_(n-j) = eps c_j the caller has checked.

    With n = 2m, e^(-i m theta) p(e^(i theta)) is g(theta) (eps = +1) or
    i g(theta) (eps = -1) for the real trig polynomial g of `_TrigEvaluator`,
    which vanishes exactly at the circle-zero angles of p; each certified sign
    change of g on (0, pi) is one conjugate pair of zeros.  Each grid
    theta = j pi / M, j = 0 .. M, is one transform (`grid_values`) with one
    budget.  For eps = -1 the symmetry forces p(1) = p(-1) = 0.  For eps = +1,
    p(1) = g(0) and p(-1) = (-1)^m g(pi) take their certified signs from the
    first grid's transform; only an undecided sign runs the exact zero test
    in Q[lam].  The grid starts at the smallest power of two M >= max(3m, 32)
    and doubles up to five times; a doubled grid is transformed whole but
    only its odd j are new.  `evaluations` counts the grid points whose sign
    was taken, M - 1, not arithmetic operations.
    """
    n = p.degree
    m = n // 2
    if n == 0:
        if p.coeffs[0].is_zero():
            raise DomainError(f"{p.family}_{p.k}: zero polynomial has no sign pattern")
        return VerificationReport(p.family, p.k, "sign-count", 0, 0, None, None,
                                  p.coefficient_balls(bits + 32)[0].sign() != 0,
                                  detail={"grid": 0, "changes": 0, "boundary_zeros": 0,
                                          "factored": True, "evaluations": 0})

    # g's coefficients come from c_0..c_m; the upper half mirrors them
    ev = _TrigEvaluator(p, bits)
    budget = ev.budget

    def signs_of(M: int) -> list[int]:   # certified signs of g(j pi / M), j = 0 .. M
        return [1 if v > budget else (-1 if v < -budget else 0) for v in ev.grid_values(M)]

    M = _first_grid(m)
    signs = signs_of(M)
    if p.epsilon < 0:
        boundary = 2   # c_(n-j) = -c_j forces p(1) = p(-1) = 0
    else:
        boundary = 0
        for point, j in ((1, 0), (-1, M)):
            if signs[j] == 0:
                if not p.eval_rational(Fraction(point)).is_zero():
                    raise PrecisionError(f"boundary value indeterminate for {p.family}_{p.k}")
                boundary += 1
    # 2 * target + boundary must reach n even when boundary is odd
    target = (n - boundary + 1) // 2
    signs = [0] + signs[1:M]   # signs[j]: g(j pi / M) on the open interval
    for grids in range(1, 7):
        seq = [s for s in signs if s]
        changes = sum(1 for a, b in zip(seq, seq[1:]) if a != b)
        if changes >= target or grids == 6:
            break
        M *= 2
        odd = signs_of(M)[1::2]
        signs = [s for pair in zip(signs, odd) for s in pair]   # old index i is now 2i
    certified = changes >= target
    return VerificationReport(p.family, p.k, "sign-count",
                              n if certified else 2 * changes + boundary, n, None, None,
                              certified,
                              detail={"grid": M, "changes": changes, "boundary_zeros": boundary,
                                      "factored": True, "evaluations": M - 1})


def deflate_forced_zero(p: FamilyPoly) -> FamilyPoly:
    """p(z) / (z + eps) for an origin-stripped self-inversive p of odd degree.

    The pairs c_j, c_(n-j) = eps c_j cancel at z = -eps, so synthetic division
    leaves no remainder and a reciprocal quotient of even degree n - 1
    (eps = +1).  The caller checks the symmetry; see `verify_by_sign_count`.
    """
    n, eps = p.degree, p.epsilon
    q = [p.coeffs[n]]
    for c in reversed(p.coeffs[1:n]):
        q.append(c - q[-1] if eps > 0 else c + q[-1])
    q.reverse()
    return FamilyPoly(p.family, p.k, p.pi_power, tuple(q), +1,
                      note=(p.note + f" /(z{eps:+d})").strip())


def verify_by_sign_count(poly: FamilyPoly, bits: int = 128) -> VerificationReport:
    """Route a family polynomial through the sign counter.

    The symmetry c_(n-j) = eps c_j of the origin-stripped polynomial is
    checked exactly first; every later step relies on it.  Odd nontrivial
    degrees then divide out their forced zero z = -eps exactly; the
    even-degree quotient is counted and the deflated zero added.
    """
    p = poly.strip_origin()
    if not p.self_inversive_ok():
        raise DomainError(f"{poly.family}_{poly.k}: c_(n-j) != {p.epsilon:+d} c_j, "
                          "not self-inversive")
    n = p.degree
    if n % 2 == 0:
        rep = _factor_sign_count(p, bits)
    else:
        rep = _factor_sign_count(deflate_forced_zero(p), bits)
        rep.zeros_on_circle += 1
        rep.degree_nontrivial = n
        rep.detail["deflated"] = str(-p.epsilon)
    rep.origin_zeros = poly.origin_multiplicity
    return rep


# ---------------------------------------------------------------------------
# root refinement and simplicity
# ---------------------------------------------------------------------------

ABERTH_SWEEPS = 200      # float Aberth sweeps that seed the polish
POLISH_SWEEPS = 8        # fixed-point Newton steps per root
ROOT_TOL = Fraction(1, 10 ** 20)  # | |z| - 1 | below which a root ball counts as on the circle
ROOT_GUARD = 48          # fixed-point bits kept beyond the requested precision
SIMPLICITY_BLOCK = 1 << 16  # float pair distances held at once by simplicity_check


def _aberth_float(coeffs: list[complex], n: int):
    import numpy as np

    c = np.array(coeffs, dtype=np.complex128)
    dc = c[1:] * np.arange(1, n + 1)
    ang = 2.0 * np.pi * np.arange(n) / n + 0.37
    z = 1.01 * np.exp(1j * ang)
    for _ in range(ABERTH_SWEEPS):
        pv = np.polyval(c[::-1], z)
        pdv = np.polyval(dc[::-1], z)
        with np.errstate(all="ignore"):
            w = pv / pdv
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            s = (1.0 / diff).sum(axis=1)
            corr = w / (1.0 - w * s)
        corr = np.where(np.isfinite(corr), corr, 0.0)
        z = z - corr
        if np.max(np.abs(corr)) < 1e-13:
            break
    return z


def _horner_pd(coeffs: list[int], xr: int, xi: int, prec: int) -> tuple[int, int, int, int]:
    """(Re p, Im p, Re p', Im p') at x = (xr + i xi) / 2^prec by one Horner
    pass in Gaussian integers, in the units of `coeffs`; each product is
    rounded down, so every step is off by less than one unit per component."""
    pr, pi, dr, di = coeffs[-1], 0, 0, 0
    for c in coeffs[-2::-1]:
        dr, di = ((dr * xr - di * xi) >> prec) + pr, ((dr * xi + di * xr) >> prec) + pi
        pr, pi = ((pr * xr - pi * xi) >> prec) + c, (pr * xi + pi * xr) >> prec
    return pr, pi, dr, di


def _newton_polish(coeffs: list[int], xr: int, xi: int, prec: int,
                   tol: int) -> tuple[int, int, int]:
    """Up to POLISH_SWEEPS Newton steps x <- x - p(x)/p'(x) in Gaussian
    integers, stopping once a step is shorter than `tol` units; returns the
    root and the squared length of its last step."""
    move2 = 0
    for _ in range(POLISH_SWEEPS):
        pr, pi, dr, di = _horner_pd(coeffs, xr, xi, prec)
        den = dr * dr + di * di
        if not den:
            break   # p'(x) = 0: the certification pass rejects x
        sr = ((pr * dr + pi * di) << prec) // den
        si = ((pi * dr - pr * di) << prec) // den
        xr, xi = xr - sr, xi - si
        move2 = sr * sr + si * si
        if move2 < tol * tol:
            break
    return xr, xi, move2


def _ceil_mul(e: int, x: int, prec: int) -> int:
    """ceil(e x / 2^prec) for e, x >= 0."""
    return -((-e * x) >> prec)


def _residual_radius(coeffs: list[int], errs: list[int], xr: int, xi: int,
                     prec: int) -> int | None:
    """ceil(2^prec n |p(x)|+ / |p'(x)|-), with x = (xr + i xi) / 2^prec: the
    radius of a disc around x that holds a root of p, in units of 2^-prec.
    One Horner pass carries the integer error budgets of p and p' through
    E <- ceil(E |x|+) + 3 + e (the rounded product is off by less than sqrt 2
    units, the coefficient by e); None when |p'(x)|- <= 0."""
    xabs = isqrt(xr * xr + xi * xi) + 1        # |x| 2^prec < xabs
    pr, pi, dr, di = coeffs[-1], 0, 0, 0
    ep, ed = errs[-1], 0
    for c, e in zip(coeffs[-2::-1], errs[-2::-1]):
        dr, di = ((dr * xr - di * xi) >> prec) + pr, ((dr * xi + di * xr) >> prec) + pi
        ed = _ceil_mul(ed, xabs, prec) + 3 + ep
        pr, pi = ((pr * xr - pi * xi) >> prec) + c, (pr * xi + pi * xr) >> prec
        ep = _ceil_mul(ep, xabs, prec) + 3 + e
    p_hi = isqrt(pr * pr + pi * pi) + 1 + ep
    d_lo = isqrt(dr * dr + di * di) - ed
    if d_lo <= 0:
        return None
    n = len(coeffs) - 1
    return -((-n * p_hi << prec) // d_lo)


def find_roots(poly: FamilyPoly, bits: int = 128) -> list[ComplexEnclosure]:
    """All roots of the origin-stripped polynomial, as certified complex
    balls sorted by argument.

    The coefficients are read once at bits + ROOT_GUARD bits as integers over
    one common power of two (`FamilyPoly.fixed_coefficients`).  Float Aberth--Ehrlich
    (deterministic start: 1.01 * roots of unity rotated by 0.37 rad) seeds a
    Newton polish of each root on its own in fixed-point Gaussian integers;
    each root then gets the residual radius n |p(x)| / |p'(x)| from one more
    Horner pass that tracks an integer error budget.  A disc of that radius
    around x holds a root of p; the ball is the square around that disc.
    """
    p = poly.strip_origin()
    n = p.degree
    if n == 0:
        return []
    prec = bits + ROOT_GUARD
    _, coeffs, errs = p.fixed_coefficients(prec, n + 1)
    one = 1 << prec
    seeds = _aberth_float([c / one for c in coeffs], n)
    tol = 1 << (prec - bits - 16)                  # 2^-(bits + 16)
    loose = 1 << (prec - bits // 2)                # 2^-(bits / 2)
    z = []
    for w in seeds:
        xr, xi, move2 = _newton_polish(coeffs, int(Fraction(w.real) * one),
                                       int(Fraction(w.imag) * one), prec, tol)
        if move2 >= loose * loose:
            last_move = libmp.to_float(libmp.from_man_exp(isqrt(move2), -prec, 53))
            raise NumericError(f"Newton polish did not converge for {poly.family}_{poly.k}",
                               family=poly.family, k=poly.k, last_move=last_move)
        z.append((xr, xi))
    z.sort(key=lambda x: (atan2(x[1] / one, x[0] / one), x[0]))

    roots = []
    for xr, xi in z:
        rad = _residual_radius(coeffs, errs, xr, xi, prec)
        if rad is None:
            raise NumericError(f"derivative enclosure touches 0 for {poly.family}_{poly.k}",
                               family=poly.family, k=poly.k)
        rad_mpf = libmp.from_man_exp(rad, -prec, RAD_PREC, "c")
        roots.append(ComplexEnclosure(
            RealEnclosure(libmp.from_man_exp(xr, -prec), rad_mpf, prec),
            RealEnclosure(libmp.from_man_exp(xi, -prec), rad_mpf, prec)))
    return roots


def simplicity_check(roots: Sequence[ComplexEnclosure]) -> RealEnclosure | None:
    """Lower-bounded enclosure of the minimum pairwise root distance: the
    distance ball with the smallest lower bound, the first in (i, j) order
    on ties, as a scan of all pairs returns it.

    A pair's lower bound lies within 2 sqrt 2 r of its centre distance, for
    r the largest ball radius, so only pairs whose float centre distance is
    within 4 r (plus the float error) of the smallest can hold the minimum;
    only those get ball distances, in the same order.  The float distances
    are taken in blocks of rows, about SIMPLICITY_BLOCK pairs each, so the
    memory stays O(n): one pass finds the smallest, a second the candidates.
    """
    import numpy as np

    n = len(roots)
    if n < 2:
        return None
    c = np.array([complex(libmp.to_float(r.re.mid), libmp.to_float(r.im.mid)) for r in roots])
    r_max = max(libmp.to_float(x.rad, rnd="u") for r in roots for x in (r.re, r.im))
    rows = max(1, SIMPLICITY_BLOCK // n)

    def blocks():
        """(i0, distances of rows i0 .. i0 + rows - 1 to every column, inf where j <= i)."""
        for i0 in range(0, n - 1, rows):
            dist = np.abs(c[i0:i0 + rows, None] - c[None, :])
            dist[np.tri(*dist.shape, i0, dtype=bool)] = np.inf
            yield i0, dist

    threshold = min(float(d.min()) for _, d in blocks())
    threshold += 4 * r_max + 2.0 ** -40 * max(1.0, float(np.abs(c).max()))
    best = None
    for i0, dist in blocks():
        for i, j in zip(*np.nonzero(dist <= threshold)):
            d = (roots[i0 + i] - roots[j]).abs()
            if best is None or d.lower < best.lower:
                best = d
    return best


def _roots_disjoint(roots: Sequence[ComplexEnclosure], sep: RealEnclosure | None) -> bool:
    """True when the separation lower bound exceeds 2 sqrt 2 times the largest
    ball radius r: the centres are then more than 2 sqrt 2 r apart, so the
    discs of radius sqrt 2 r that cover the balls are pairwise disjoint."""
    if sep is None:
        return True
    r = max(Fraction(*libmp.to_rational(x.rad)) for root in roots for x in (root.re, root.im))
    return sep.sign() > 0 and sep.sqr().gt(8 * r * r)


def verify_by_roots(poly: FamilyPoly, bits: int = 128) -> VerificationReport:
    """Cross-validation report: every certified root ball within ROOT_TOL of
    |z| = 1; max_mod_dev is the largest | |z| - 1 | (the first on ties).

    Each ball holds a disc that contains a root; `certified-true` also needs
    the discs pairwise disjoint, so that each holds exactly one of the n
    roots.  An undecided result is retried at doubled precision through
    `enclosure.escalate`; a refutation is final.
    """
    n = poly.strip_origin().degree

    def attempt(b: int) -> tuple[bool, VerificationReport]:
        roots = find_roots(poly, b)
        devs = [(r.abs() - 1).abs() for r in roots]
        dev = max(devs, key=lambda d: d.upper, default=None)
        sep = simplicity_check(roots)
        on_circle = sum(1 for d in devs if d.lt(ROOT_TOL))
        refuted = any(d.gt(ROOT_TOL) for d in devs)
        certified = on_circle == n and _roots_disjoint(roots, sep)
        verdict = CERTIFIED_TRUE if certified else (CERTIFIED_FALSE if refuted else INDETERMINATE)
        return verdict != INDETERMINATE, VerificationReport(
            poly.family, poly.k, "roots", on_circle, n, dev, sep, certified,
            origin_zeros=poly.origin_multiplicity, detail={"n_roots": len(roots)},
            verdict=verdict)

    return escalate(attempt, bits)[1]


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _criteria_route(poly: FamilyPoly, bits: int) -> VerificationReport:
    crit = criteria_check(poly, bits)
    n = poly.strip_origin().degree
    certified = crit.holds == CERTIFIED_TRUE
    return VerificationReport(poly.family, poly.k, "criteria", n if certified else 0, n,
                              None, None, certified, origin_zeros=poly.origin_multiplicity,
                              detail={"criteria": crit.to_doc()}, verdict=crit.holds)


def verify_family(family: str, k: int, method: str, bits: int = 128) -> list[VerificationReport]:
    """Build one family member and run one or all applicable verification
    methods on it; under "all", criteria runs only where the table gives a
    Schinzel constant and oscillation only where it gives oscillation data."""
    if family not in FAMILY_SPECS:
        raise DomainError(f"unknown family {family!r}")
    spec = FAMILY_SPECS[family]
    if k < spec.min_k:
        raise DomainError(f"family {family} needs k >= {spec.min_k}")
    poly = build_family(family, k)
    # looked up at call time, so rebinding a module-level route reaches here
    routes = {"criteria": _criteria_route, "oscillation": oscillation_verify,
              "sign-count": verify_by_sign_count, "roots": verify_by_roots}
    if method == "all":
        applies = {"criteria": spec.schinzel is not None,
                   "oscillation": spec.oscillation is not None}
        methods = [m for m in routes if applies.get(m, True)]
    elif method in routes:
        methods = [method]
    else:
        raise DomainError(f"unknown method {method!r}")
    return [routes[m](poly, bits) for m in methods]
