"""The roots route, which cross-validates every certification: root balls
from a fixed-point Newton polish with certified residual radii, seeded from
the sign counter's first grid, a separation check that gives ball distances
only to the near pairs, and | |z| - 1 | decided in integers.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import atan2, inf, isqrt
from typing import Callable, Sequence

from mpmath import libmp

from . import fixed
from .enclosure import ComplexEnclosure, RealEnclosure, escalate
from .errors import NumericError
from .families import FamilyPoly
from .reports import CERTIFIED_FALSE, CERTIFIED_TRUE, INDETERMINATE, VerificationReport
from .signcount import _first_grid, _TrigEvaluator

ABERTH_SWEEPS = 200      # float Aberth sweeps that seed the polish
SEED_STEPS = 8           # float Newton steps that bring a grid seed to Aberth quality
POLISH_SWEEPS = 8        # fixed-point Newton steps per root
ROOT_TOL = Fraction(1, 10 ** 20)  # | |z| - 1 | below which a root ball counts as on the circle
ROOT_GUARD = 48          # fixed-point bits kept beyond the requested precision
MIRROR_TOL = 1e-8        # |Im w| <= MIRROR_TOL max(1, |w|): a near-real seed, polished on its own


def _horner_float(rev: list[float], x: complex) -> tuple[complex, complex]:
    """(p(x), p'(x)) in floats, for the coefficients `rev` from the top down."""
    p, d = rev[0], 0j
    for a in rev[1:]:
        d = d * x + p
        p = p * x + a
    return p, d


def _aberth_float(coeffs: list[float], n: int) -> list[complex]:
    """Float Aberth--Ehrlich seeds for the n roots of sum coeffs[j] z^j.

    Every sweep takes the correction w / (1 - w s), w = p(z_i)/p'(z_i) and
    s = sum over j != i of 1/(z_i - z_j), of each moving root from the same
    iterate.  A root whose correction is below 1e-13 stops moving, but stays
    in the other roots' sums; a correction that divides by zero or is not
    finite counts as 0."""
    rev = coeffs[::-1]
    z = [1.01 * cmath.exp(1j * (2.0 * cmath.pi * j / n + 0.37)) for j in range(n)]
    moving = list(range(n))
    for _ in range(ABERTH_SWEEPS):
        corr = []
        for i in moving:
            x = z[i]
            p, d = _horner_float(rev, x)
            try:
                w = p / d
                c = w / (1 - w * sum([1 / (x - y) for y in z[:i] + z[i + 1:]]))
            except ZeroDivisionError:
                c = 0j
            corr.append(c if cmath.isfinite(c) else 0j)
        for i, c in zip(moving, corr):
            z[i] -= c
        moving = [i for i, c in zip(moving, corr) if abs(c) >= 1e-13]
        if not moving:
            break
    return z


def _grid_seeds(p: FamilyPoly, fixed_coeffs: tuple[int, list[int], list[int]], prec: int,
                floats: list[float]) -> list[complex] | None:
    """Seeds for the n roots of the origin-stripped p, whose symmetry
    c_(n-j) = eps c_j the caller has checked exactly, from the sign
    counter's first grid; None when its certified brackets do not account
    for every root.

    The counted polynomial q is p itself for even n, and for odd n the
    quotient p / (z + eps), reciprocal of degree n - 1 (see
    `signcount.deflate_forced_zero`), formed here in the fixed point of
    `fixed_coeffs`: from c_0 = eps q_0 and c_j = q_(j-1) + eps q_j,
    q_j = eps (c_j - q_(j-1)), whose error is the sum of e_0 .. e_j.  One
    `_TrigEvaluator.grid_values` transform of q's trig polynomial g on the
    first grid theta_j = j pi / M, M = `_first_grid(m)`, gives certified signs.
    Every point must have one, apart from the forced zeros g(0) = g(pi) = 0
    when q has eps = -1, and the sign changes must number m (m - 1 for
    eps = -1): with the real seeds z = -eps for odd n and +-1 for eps = -1,
    that is all n roots, one simple circle zero in each bracket.  Each
    bracket gives the angle where the straight line through its two grid
    values crosses 0; up to SEED_STEPS float Newton steps on `floats` move
    e^(i theta) until a step is below 1e-13, as Aberth's stop.  A seed whose
    argument leaves its bracket is not trusted, and the caller falls back to
    Aberth, so no two seeds can polish to the same root.  The seeds are the
    upper ones, the real ones and the conjugates of the upper ones.
    """
    n, eps = p.degree, p.epsilon
    emax, C, E = fixed_coeffs
    real = []
    if n % 2:
        real.append(float(-eps))
        m, q, e = (n - 1) // 2, 0, 0
        Q, Eq = [], []
        for c, ec in zip(C, E[:m + 1]):
            q, e = eps * (c - q), e + ec
            Q.append(q)
            Eq.append(e)
        C, E, eps = Q, Eq, 1
    else:
        m = n // 2
        C, E = C[:m + 1], E[:m + 1]
    if eps < 0:
        real += [1.0, -1.0]
    ev = _TrigEvaluator(eps, (emax, C, E), prec)
    M = _first_grid(m)
    values = ev.grid_values(M)
    first, last = (0, M) if eps > 0 else (1, M - 1)
    if any(abs(v) <= ev.budget for v in values[first:last + 1]):
        return None
    brackets = [j for j in range(first, last) if (values[j] > 0) != (values[j + 1] > 0)]
    if len(brackets) != m - (eps < 0):
        return None
    rev = floats[::-1]
    upper = []
    for j in brackets:
        v, w = values[j], values[j + 1]
        z = cmath.rect(1.0, cmath.pi * (j + v / (v - w)) / M)
        for _ in range(SEED_STEPS):
            f, d = _horner_float(rev, z)
            try:
                step = f / d
            except ZeroDivisionError:
                break
            if not cmath.isfinite(step):
                break
            z -= step
            if abs(step) < 1e-13:
                break
        if not j * cmath.pi <= M * atan2(z.imag, z.real) <= (j + 1) * cmath.pi:
            return None
        upper.append(z)
    return upper + real + [z.conjugate() for z in upper]


def _budget_memo(errs: list[int], prec: int) -> Callable[[int], tuple[int, int]]:
    """budget(xabs) -> (ep, ed): `fixed.pd_budget`'s error bounds of p and p'
    at any x with |x| 2^prec < xabs, for one `find_roots` call.

    The bound X is xabs 2^-prec rounded up to a multiple of 2^-g,
    2^g > 16 n; both bounds grow with X, so the rounded X keeps them sound.
    X - |x| is below 2^-g plus one unit of 2^-prec, so for |x| near 1, X^n
    exceeds |x|^n by a factor of about (1 + 1/(16 n))^n < 1.07.  The roots
    near the circle share one or two values of X, so each value is
    evaluated once, in a memo that lives as long as the call."""
    g = (16 * len(errs)).bit_length()
    memo: dict[int, tuple[int, int]] = {}

    def budget(xabs: int) -> tuple[int, int]:
        m = -(-xabs >> (prec - g))
        if m not in memo:
            memo[m] = fixed.pd_budget(errs, m, g)
        return memo[m]

    return budget


def _newton_ball(poly: FamilyPoly, coeffs: list[int], budget: Callable[[int], tuple[int, int]],
                 xr: int, xi: int, prec: int, bits: int) -> tuple[int, int, int]:
    """(xr, xi, rad): a Newton-polished root x = (xr + i xi) / 2^prec of p and
    the radius ceil(2^prec n |p(x)|+ / |p'(x)|-) of a disc around x that holds
    a root of p, in units of 2^-prec.

    Each pass of `fixed.horner_pd` gives p(x), p'(x) and the Newton step
    x <- x - p(x)/p'(x) in integers.  The first x whose step is shorter than
    2^-(bits + 16), or the x of the last of POLISH_SWEEPS + 1 passes, is not
    stepped: that pass's p and p' certify x itself, with the error bounds
    (ep, ed) = budget(xabs), xabs > |x| 2^prec (`_budget_memo`, proved in
    `fixed.horner_pd`): |p(x)| <= |out_p| + ep and |p'(x)| >= |out_p'| - ed.
    Raises NumericError when the certified step is not below 2^-(bits / 2)
    or |p'(x)|- <= 0."""
    tol = 1 << (prec - bits - 16)
    for sweep in range(POLISH_SWEEPS + 1):
        pr, pi, dr, di = fixed.horner_pd(coeffs, xr, xi, prec)
        den = dr * dr + di * di
        if not den:
            break   # p'(x) = 0: d_lo <= 0 below
        sr = ((pr * dr + pi * di) << prec) // den
        si = ((pi * dr - pr * di) << prec) // den
        move2 = sr * sr + si * si
        if move2 < tol * tol:
            break
        if sweep == POLISH_SWEEPS:
            loose = 1 << (prec - bits // 2)
            if move2 >= loose * loose:
                last_move = libmp.to_float(libmp.from_man_exp(isqrt(move2), -prec, 53))
                raise NumericError(f"Newton polish did not converge for {poly.family}_{poly.k}",
                                   family=poly.family, k=poly.k, last_move=last_move)
            break
        xr, xi = xr - sr, xi - si
    ep, ed = budget(isqrt(xr * xr + xi * xi) + 1)
    p_hi = isqrt(pr * pr + pi * pi) + 1 + ep
    d_lo = isqrt(dr * dr + di * di) - ed
    if d_lo <= 0:
        raise NumericError(f"derivative enclosure touches 0 for {poly.family}_{poly.k}",
                           family=poly.family, k=poly.k)
    n = len(coeffs) - 1
    return xr, xi, -((-n * p_hi << prec) // d_lo)


class RootBalls(list):
    """`find_roots`'s balls; `polished`: how many of them were
    Newton-polished (the others are mirror images of polished ones); and
    `seeds`: "grid" when the sign counter's first grid seeded every root (a
    constant has none to seed), "aberth" when float Aberth did."""

    def __init__(self, balls: list[ComplexEnclosure], polished: int, seeds: str):
        super().__init__(balls)
        self.polished = polished
        self.seeds = seeds


def find_roots(poly: FamilyPoly, bits: int = 128) -> RootBalls:
    """All roots of the origin-stripped polynomial, as certified complex
    balls sorted by argument.

    The coefficients are read once at bits + ROOT_GUARD bits as integers over
    one common power of two (`FamilyPoly.fixed_coefficients`).  When p passes
    the exact symmetry check, the seeds come from the sign counter's first
    grid on those same integers (`_grid_seeds`); when it fails the check, or
    the grid's brackets do not account for every root, float Aberth--Ehrlich
    (deterministic start: 1.01 * roots of unity rotated by 0.37 rad) seeds
    instead.  Either way each seed starts a Newton polish of its root on its
    own in fixed point, each pass one division by the real quadratic with
    roots x and conj x (`fixed.horner_pd`); the pass that finds a step too
    short to take also gives the residual radius n |p(x)| / |p'(x)| at x,
    with an integer error budget evaluated once per bound on |x| in the
    call (`_budget_memo`, `_newton_ball`).  A disc of that radius
    around x holds a root of p; the ball is the square around that disc.
    Nothing below depends on where the seeds came from.

    Every family has real coefficients (rationals and the real lam), so its
    non-real roots come in conjugate pairs.  The seeds are split into upper
    (Im w > tau), lower (Im w < -tau) and near-real ones, tau =
    MIRROR_TOL max(1, |w|).  When there are as many upper seeds as lower,
    only the upper and near-real seeds are polished, and each upper ball
    (x, r) also gives the ball (conj x, r); otherwise every seed is
    polished.  A mirrored disc holds a root as well: the disc around x holds
    a root zeta of the exact polynomial (the error budget covers the
    coefficient errors), whose coefficients are real, so conj(zeta) is a
    root and lies in the disc around conj x.  Each of the n discs thus holds
    a root whichever seeds were polished, and the separation check over all
    n balls (`simplicity_check`, `_roots_disjoint`) is what proves they hold
    n distinct roots.  So soundness does not depend on tau: a split that
    pairs the wrong seeds can put two discs around one root, which costs the
    certificate, never gives a false one.  Tau only keeps seeds near real
    roots from being taken for a pair; it sits far above the 1e-13 stop of
    either seed source.
    """
    p = poly.strip_origin()
    n = p.degree
    if n == 0:
        return RootBalls([], 0, "grid")
    prec = bits + ROOT_GUARD
    fixed_coeffs = p.fixed_coefficients(prec, n + 1)
    _, coeffs, errs = fixed_coeffs
    one = 1 << prec
    floats = [c / one for c in coeffs]
    seeds = _grid_seeds(p, fixed_coeffs, prec, floats) if p.self_inversive_ok() else None
    source = "grid"
    if seeds is None:
        seeds, source = _aberth_float(floats, n), "aberth"
    upper, lower, near_real = [], [], []
    for w in seeds:
        tau = MIRROR_TOL * max(1.0, abs(w))
        (upper if w.imag > tau else lower if w.imag < -tau else near_real).append(w)
    mirror = len(upper) == len(lower)
    if mirror:
        seeds = upper + near_real
    budget = _budget_memo(errs, prec)
    z = [_newton_ball(poly, coeffs, budget, int(Fraction(w.real) * one),
                      int(Fraction(w.imag) * one), prec, bits) for w in seeds]
    polished = len(z)
    if mirror:
        z += [(xr, -xi, rad) for xr, xi, rad in z[:len(upper)]]
    z.sort(key=lambda x: (atan2(x[1] / one, x[0] / one), x[0]))
    return RootBalls([ComplexEnclosure(fixed.to_ball(xr, rad, prec, prec),
                                       fixed.to_ball(xi, rad, prec, prec))
                      for xr, xi, rad in z], polished, source)


def simplicity_check(roots: Sequence[ComplexEnclosure]) -> RealEnclosure | None:
    """Lower-bounded enclosure of the minimum pairwise root distance: the
    distance ball with the smallest lower bound, the first in (i, j) order
    on ties, as a scan of all pairs returns it.

    A pair's lower bound lies within 2 sqrt 2 r of its centre distance, for
    r the largest ball radius, so only pairs whose float centre distance is
    within 4 r (plus the float error) of the smallest can hold the minimum;
    only those get ball distances, in (i, j) order.  Two sweeps over the
    float centres sorted by real part find the smallest distance, then the
    pairs within the threshold; each row stops at the first centre whose
    real part alone is farther than the distance sought, since a float
    distance is never below the difference of the real parts.
    """
    n = len(roots)
    if n < 2:
        return None
    c = [complex(libmp.to_float(r.re.mid), libmp.to_float(r.im.mid)) for r in roots]
    r_max = max(libmp.to_float(x.rad, rnd="u") for r in roots for x in (r.re, r.im))
    order = sorted(range(n), key=lambda i: c[i].real)
    xs = [c[i] for i in order]

    threshold = inf
    for a, x in enumerate(xs):
        for b in range(a + 1, n):
            if xs[b].real - x.real > threshold:
                break
            threshold = min(threshold, abs(x - xs[b]))
    threshold += 4 * r_max + 2.0 ** -40 * max(1.0, max(abs(x) for x in c))

    pairs = []
    for a, x in enumerate(xs):
        for b in range(a + 1, n):
            if xs[b].real - x.real > threshold:
                break
            if abs(x - xs[b]) <= threshold:
                i, j = order[a], order[b]
                pairs.append((min(i, j), max(i, j)))
    best = None
    for i, j in sorted(pairs):
        d = (roots[i] - roots[j]).abs()
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


def _modulus_deviations(roots: Sequence[ComplexEnclosure]) -> tuple[int, list[tuple[int, int]]]:
    """(s, [(lo, hi), ...]): for every x in the i-th ball, | |x| - 1 | lies in
    [lo_i, hi_i] 2^-s, in exact integers.

    s is the largest number of fractional bits among the balls' midpoints
    and radii, so each ball is exactly a +- ra, b +- rb in units of 2^-s
    (`libmp.to_fixed` is exact there).  For x = u + i v in the ball,
    max(|a| - ra, 0) <= |u| <= |a| + ra and likewise for v, so
    N <= |x|^2 2^2s <= H with N = max(|a| - ra, 0)^2 + max(|b| - rb, 0)^2 and
    H = (|a| + ra)^2 + (|b| + rb)^2.  isqrt(N) = floor(sqrt N), and
    isqrt(H - 1) + 1 = ceil(sqrt H) for H >= 1, so
    L = isqrt(N) <= |x| 2^s <= U = ceil(sqrt H).  t -> |t - 2^s| is convex,
    so on [L, U] its largest value is at an end, hi = max(2^s - L, U - 2^s),
    and its smallest is 0 when L <= 2^s <= U, else the distance from 2^s to
    the nearer end: lo = max(L - 2^s, 2^s - U, 0).
    """
    parts = [(r.re.mid, r.re.rad, r.im.mid, r.im.rad) for r in roots]
    s = max([0] + [-x[2] for q in parts for x in q if x[1]])
    one = 1 << s
    devs = []
    for q in parts:
        a, ra, b, rb = (abs(libmp.to_fixed(x, s)) for x in q)
        near = max(a - ra, 0) ** 2 + max(b - rb, 0) ** 2
        far = (a + ra) ** 2 + (b + rb) ** 2
        lo_mod, hi_mod = isqrt(near), isqrt(far - 1) + 1 if far else 0
        devs.append((max(lo_mod - one, one - hi_mod, 0), max(one - lo_mod, hi_mod - one)))
    return s, devs


def verify_by_roots(poly: FamilyPoly, bits: int = 128) -> VerificationReport:
    """Cross-validation report: every certified root ball within ROOT_TOL of
    |z| = 1; max_mod_dev is the largest | |z| - 1 | (the first on ties).

    Each ball holds a disc that contains a root; `certified-true` also needs
    the discs pairwise disjoint, so that each holds exactly one of the n
    roots.  A ball is on the circle when its upper end hi of | |z| - 1 |
    (`_modulus_deviations`) is below ROOT_TOL = num/den, hi den < num 2^s,
    and off it when its lower end is above, lo den > num 2^s: exact integer
    comparisons.  max_mod_dev is the ball [lo, hi] 2^-s of the largest hi,
    made once.  An undecided result is retried at doubled precision through
    `enclosure.escalate`; a refutation is final.  The detail counts the
    polished roots, names the seed source and gives the bits of the attempt
    that decided.
    """
    n = poly.strip_origin().degree
    num, den = ROOT_TOL.numerator, ROOT_TOL.denominator

    def attempt(b: int) -> tuple[bool, VerificationReport]:
        roots = find_roots(poly, b)
        s, devs = _modulus_deviations(roots)
        tol = num << s
        dev = None
        if roots:
            i = max(range(len(devs)), key=lambda i: devs[i][1])
            lo, hi = devs[i]
            dev = fixed.to_ball(lo + hi, hi - lo, s + 1, roots[i].prec)
        sep = simplicity_check(roots)
        on_circle = sum(1 for _, hi in devs if hi * den < tol)
        refuted = any(lo * den > tol for lo, _ in devs)
        certified = on_circle == n and _roots_disjoint(roots, sep)
        verdict = CERTIFIED_TRUE if certified else (CERTIFIED_FALSE if refuted else INDETERMINATE)
        return verdict != INDETERMINATE, VerificationReport(
            poly.family, poly.k, "roots", on_circle, n, dev, sep, certified,
            origin_zeros=poly.origin_multiplicity,
            detail={"n_roots": len(roots), "polished": roots.polished, "seeds": roots.seeds,
                    "bits": b},
            verdict=verdict)

    return escalate(attempt, bits)[1]
