"""The roots route, which cross-validates every certification: root balls
from a fixed-point Newton polish with certified residual radii, and a
separation check that gives ball distances only to the near pairs.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import atan2, inf, isqrt
from typing import Sequence

from mpmath import libmp

from . import fixed
from .enclosure import ComplexEnclosure, RealEnclosure, escalate
from .errors import NumericError
from .families import FamilyPoly
from .reports import CERTIFIED_FALSE, CERTIFIED_TRUE, INDETERMINATE, VerificationReport

ABERTH_SWEEPS = 200      # float Aberth sweeps that seed the polish
POLISH_SWEEPS = 8        # fixed-point Newton steps per root
ROOT_TOL = Fraction(1, 10 ** 20)  # | |z| - 1 | below which a root ball counts as on the circle
ROOT_GUARD = 48          # fixed-point bits kept beyond the requested precision
MIRROR_TOL = 1e-8        # |Im w| <= MIRROR_TOL max(1, |w|): a near-real seed, polished on its own


def _aberth_float(coeffs: list[complex], n: int) -> list[complex]:
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
            p, d = rev[0], 0j
            for a in rev[1:]:
                d = d * x + p
                p = p * x + a
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


def _newton_ball(poly: FamilyPoly, coeffs: list[int], errs: list[int], xr: int, xi: int,
                 prec: int, bits: int) -> tuple[int, int, int]:
    """(xr, xi, rad): a Newton-polished root x = (xr + i xi) / 2^prec of p and
    the radius ceil(2^prec n |p(x)|+ / |p'(x)|-) of a disc around x that holds
    a root of p, in units of 2^-prec.

    Each Horner pass (`fixed.horner_pd`) gives p(x), p'(x) and the Newton
    step x <- x - p(x)/p'(x) in Gaussian integers.  The first x whose step is
    shorter than 2^-(bits + 16), or the x of the last of POLISH_SWEEPS + 1
    passes, is not stepped: that pass's p and p' certify x itself.  Their
    error budgets follow the same pass, E <- ceil(E |x|+) + 3 + e (the
    rounded product is off by less than sqrt 2 units, the coefficient by
    e), and depend only on |x|.  Raises NumericError when the certified
    step is not below 2^-(bits / 2) or |p'(x)|- <= 0."""
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
    xabs = isqrt(xr * xr + xi * xi) + 1        # |x| 2^prec < xabs
    ep, ed = errs[-1], 0
    for e in errs[-2::-1]:
        ed = fixed.ceil_mul(ed, xabs, prec) + 3 + ep
        ep = fixed.ceil_mul(ep, xabs, prec) + 3 + e
    p_hi = isqrt(pr * pr + pi * pi) + 1 + ep
    d_lo = isqrt(dr * dr + di * di) - ed
    if d_lo <= 0:
        raise NumericError(f"derivative enclosure touches 0 for {poly.family}_{poly.k}",
                           family=poly.family, k=poly.k)
    n = len(coeffs) - 1
    return xr, xi, -((-n * p_hi << prec) // d_lo)


class RootBalls(list):
    """`find_roots`'s balls, and `polished`: how many of them were
    Newton-polished; the others are mirror images of polished ones."""

    def __init__(self, balls: list[ComplexEnclosure], polished: int):
        super().__init__(balls)
        self.polished = polished


def find_roots(poly: FamilyPoly, bits: int = 128) -> RootBalls:
    """All roots of the origin-stripped polynomial, as certified complex
    balls sorted by argument.

    The coefficients are read once at bits + ROOT_GUARD bits as integers over
    one common power of two (`FamilyPoly.fixed_coefficients`).  Float Aberth--Ehrlich
    (deterministic start: 1.01 * roots of unity rotated by 0.37 rad) seeds a
    Newton polish of each root on its own in fixed-point Gaussian integers;
    the Horner pass that finds a step too short to take also gives the
    residual radius n |p(x)| / |p'(x)| at x, with an integer error budget
    (`_newton_ball`).  A disc of that radius around x holds a root of p; the
    ball is the square around that disc.

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
    roots from being taken for a pair; it sits far above the 1e-13 Aberth
    stop.
    """
    p = poly.strip_origin()
    n = p.degree
    if n == 0:
        return RootBalls([], 0)
    prec = bits + ROOT_GUARD
    _, coeffs, errs = p.fixed_coefficients(prec, n + 1)
    one = 1 << prec
    seeds = _aberth_float([c / one for c in coeffs], n)
    upper, lower, near_real = [], [], []
    for w in seeds:
        tau = MIRROR_TOL * max(1.0, abs(w))
        (upper if w.imag > tau else lower if w.imag < -tau else near_real).append(w)
    mirror = len(upper) == len(lower)
    if mirror:
        seeds = upper + near_real
    z = [_newton_ball(poly, coeffs, errs, int(Fraction(w.real) * one),
                      int(Fraction(w.imag) * one), prec, bits) for w in seeds]
    polished = len(z)
    if mirror:
        z += [(xr, -xi, rad) for xr, xi, rad in z[:len(upper)]]
    z.sort(key=lambda x: (atan2(x[1] / one, x[0] / one), x[0]))
    return RootBalls([ComplexEnclosure(fixed.to_ball(xr, rad, prec, prec),
                                       fixed.to_ball(xi, rad, prec, prec))
                      for xr, xi, rad in z], polished)


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


def verify_by_roots(poly: FamilyPoly, bits: int = 128) -> VerificationReport:
    """Cross-validation report: every certified root ball within ROOT_TOL of
    |z| = 1; max_mod_dev is the largest | |z| - 1 | (the first on ties).

    Each ball holds a disc that contains a root; `certified-true` also needs
    the discs pairwise disjoint, so that each holds exactly one of the n
    roots.  A conjugate ball has the same modulus ball, so | |z| - 1 | and
    its two comparisons are computed once for the balls that share the real
    part, |Im| and both radii.  An undecided result is retried at doubled
    precision through `enclosure.escalate`; a refutation is final.  The
    detail counts the polished roots and gives the bits of the attempt that
    decided.
    """
    n = poly.strip_origin().degree

    def attempt(b: int) -> tuple[bool, VerificationReport]:
        roots = find_roots(poly, b)
        moduli, devs = {}, []
        for r in roots:
            key = (r.re.mid, r.re.rad, libmp.mpf_abs(r.im.mid), r.im.rad)
            if key not in moduli:
                d = (r.abs() - 1).abs()
                moduli[key] = d, d.lt(ROOT_TOL), d.gt(ROOT_TOL)
            devs.append(moduli[key])
        dev = max((d for d, _, _ in devs), key=lambda d: d.upper, default=None)
        sep = simplicity_check(roots)
        on_circle = sum(1 for _, on, _ in devs if on)
        refuted = any(off for _, _, off in devs)
        certified = on_circle == n and _roots_disjoint(roots, sep)
        verdict = CERTIFIED_TRUE if certified else (CERTIFIED_FALSE if refuted else INDETERMINATE)
        return verdict != INDETERMINATE, VerificationReport(
            poly.family, poly.k, "roots", on_circle, n, dev, sep, certified,
            origin_zeros=poly.origin_multiplicity,
            detail={"n_roots": len(roots), "polished": roots.polished, "bits": b},
            verdict=verdict)

    return escalate(attempt, bits)[1]
