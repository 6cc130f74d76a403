"""The roots route, which cross-validates every certification: root balls
from a fixed-point Newton polish with certified residual radii, and a
separation check that gives ball distances only to the near pairs.
"""

from __future__ import annotations

from fractions import Fraction
from math import atan2, isqrt
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


def _newton_polish(coeffs: list[int], xr: int, xi: int, prec: int,
                   tol: int) -> tuple[int, int, int]:
    """Up to POLISH_SWEEPS Newton steps x <- x - p(x)/p'(x) in Gaussian
    integers, stopping once a step is shorter than `tol` units; returns the
    root and the squared length of its last step."""
    move2 = 0
    for _ in range(POLISH_SWEEPS):
        pr, pi, dr, di = fixed.horner_pd(coeffs, xr, xi, prec)
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


def _residual_radius(coeffs: list[int], errs: list[int], xr: int, xi: int,
                     prec: int) -> int | None:
    """ceil(2^prec n |p(x)|+ / |p'(x)|-), with x = (xr + i xi) / 2^prec: the
    radius of a disc around x that holds a root of p, in units of 2^-prec.
    p and p' come from `fixed.horner_pd`; their error budgets follow the same
    pass, E <- ceil(E |x|+) + 3 + e (the rounded product is off by less than
    sqrt 2 units, the coefficient by e), and depend only on |x|; None when
    |p'(x)|- <= 0."""
    pr, pi, dr, di = fixed.horner_pd(coeffs, xr, xi, prec)
    xabs = isqrt(xr * xr + xi * xi) + 1        # |x| 2^prec < xabs
    ep, ed = errs[-1], 0
    for e in errs[-2::-1]:
        ed = fixed.ceil_mul(ed, xabs, prec) + 3 + ep
        ep = fixed.ceil_mul(ep, xabs, prec) + 3 + e
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
        roots.append(ComplexEnclosure(fixed.to_ball(xr, rad, prec, prec),
                                      fixed.to_ball(xi, rad, prec, prec)))
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
