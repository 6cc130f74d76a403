"""Coefficient criteria (Lakatos / Schinzel with d = 1): a margin enclosure
|A_top| - sum |c A_j - A_top| certified positive puts every zero of a
reciprocal/self-inversive polynomial on the unit circle.  The margin is exact
when the polynomial and c are rational, an integer sum with one integer
error otherwise, read from `FamilyPoly.fixed_coefficients`; the Schinzel
constants of S and Y are `fixed.pi_multiple` pairs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from . import fixed
from .enclosure import RealEnclosure, escalate, lambda_k
from .errors import DomainError, PrecisionError
from .families import FamilyPoly, ZERO_COEFF, ZetaCoefficient, build_P
from .reports import CERTIFIED_FALSE, CERTIFIED_TRUE, INDETERMINATE, CriteriaReport


def _reciprocal(poly: FamilyPoly) -> FamilyPoly:
    """The origin-stripped polynomial, checked reciprocal: self-inversive
    with eps = +1."""
    p = poly.strip_origin()
    if not (p.epsilon > 0 and p.self_inversive_ok()):
        raise DomainError(f"{poly.family}_{poly.k}: not reciprocal, criteria do not apply")
    return p


def _margin_exact(coeffs: list[Fraction], c: Fraction) -> Fraction:
    top = coeffs[-1]
    return abs(top) - sum(abs(c * a - top) for a in coeffs)


def _margin_fixed(poly: FamilyPoly, n: int, c: tuple[int, int],
                  prec: int) -> tuple[int, int, int]:
    """The margin of A_0 .. A_(n-1) as integers (M, E) in units of
    2^-q: |margin - M 2^-q| <= E 2^-q.

    With A_j = 2^(emax - prec) (C_j +- e_j) (`fixed_coefficients`) and
    c = (v +- ec) 2^-prec, q = 2 prec - emax and every product is exact:
    D_j = v C_j - C_top 2^prec is c A_j - A_top within
    (|v| + ec) e_j + |C_j| ec + e_top 2^prec units, and
    M = |C_top| 2^prec - sum |D_j| is the margin within the sum of those
    errors plus e_top 2^prec, since | |x| - |y| | <= |x - y|.
    """
    emax, C, e = poly.fixed_coefficients(prec, n)
    v, ec = c
    top, etop = C[-1] << prec, e[-1] << prec
    M, E = abs(top), etop
    for Cj, ej in zip(C, e):
        M -= abs(v * Cj - top)
        E += (abs(v) + ec) * ej + abs(Cj) * ec + etop
    return M, E, 2 * prec - emax


def lakatos_check(poly: FamilyPoly, bits: int = 128) -> CriteriaReport:
    """Lakatos condition: |A_top| >= sum |A_j - A_top| on a reciprocal polynomial."""
    return _margin_check(poly, Fraction(1), bits, "lakatos")


def schinzel_check(poly: FamilyPoly, c, bits: int = 128) -> CriteriaReport:
    """Schinzel condition with d = 1: |A_top| >= sum |c A_j - A_top|.

    `c` is a Fraction (exact path when the polynomial is rational) or, for
    an irrational constant, a callable prec -> `fixed` pair (v, e).
    """
    return _margin_check(poly, c, bits, "schinzel")


def _margin_check(poly: FamilyPoly, c, bits: int, criterion: str) -> CriteriaReport:
    p = _reciprocal(poly)
    n = p.degree + 1
    if isinstance(c, (int, Fraction)) and p.is_rational():
        # the exact margin always decides, so it is the first and only attempt
        exact = _margin_exact([x.a for x in p.coeffs[:n]], Fraction(c))
        _, margin = escalate(lambda b: (True, RealEnclosure.exact(exact, b)), bits)
        verdict = {1: CERTIFIED_TRUE, -1: CERTIFIED_FALSE, 0: INDETERMINATE}[margin.sign()]
        return CriteriaReport(poly.family, poly.k, criterion, RealEnclosure.exact(Fraction(c), bits),
                              margin, verdict, exact=True)

    def attempt(b: int) -> tuple[bool, tuple[tuple[int, int], int, int, int, int]]:
        prec = b + fixed.GUARD
        cv = c(prec) if callable(c) else fixed.from_ball(RealEnclosure.exact(Fraction(c), b), prec)
        M, E, q = _margin_fixed(p, n, cv, prec)
        return abs(M) > E, (cv, M, E, q, b)

    # only an undecided margin is retried; c's ball is made once, for the report
    _, (cv, M, E, q, b) = escalate(attempt, bits)
    c_ball = (fixed.to_ball(*cv, b + fixed.GUARD, b) if callable(c)
              else RealEnclosure.exact(Fraction(c), b))
    verdict = CERTIFIED_TRUE if M > E else CERTIFIED_FALSE if M < -E else INDETERMINATE
    return CriteriaReport(poly.family, poly.k, criterion, c_ball, fixed.to_ball(M, E, q, b), verdict)


def schinzel_constant_S(k: int) -> Callable[[int], tuple[int, int]]:
    """c = pi / (4 (1 + 3^(-1-2k))) for S_k, as prec -> `fixed.pi_multiple`."""
    scale = Fraction(3 ** (1 + 2 * k), 4 * (3 ** (1 + 2 * k) + 1))
    return lambda prec: fixed.pi_multiple(scale, 1, prec)


def schinzel_constant_Y(k: int) -> Callable[[int], tuple[int, int]]:
    """c = pi^2 (1 - 2^(2-2k)) / (8 (1 - 2^(3-2k))) for Y_k/z, likewise."""
    scale = (1 - Fraction(2) ** (2 - 2 * k)) / (8 * (1 - Fraction(2) ** (3 - 2 * k)))
    return lambda prec: fixed.pi_multiple(scale, 2, prec)


def abs_square_coeffs(k: int) -> tuple[ZetaCoefficient, ...]:
    """Coefficients A_0..A_4k of |P_k(iz)|^2, normalized by pi^(4k-2).

    The even part is the self-convolution of the rational vector g with
    g_j = (-1)^j t_2j (the z^2j coefficient of P_k(iz)); the odd part of P_k(iz)
    contributes lam^2 (z^(4k-2) - 2 z^2k + z^2).
    """
    p = build_P(k).coeffs
    g = [p[2 * j].a * (-1 if j % 2 else 1) for j in range(k + 1)]
    out = [ZERO_COEFF] * (4 * k + 1)
    for i in range(k + 1):
        for j in range(k + 1):
            idx = 2 * (i + j)
            out[idx] = out[idx] + ZetaCoefficient.rational(g[i] * g[j])
    lam2 = ZetaCoefficient(Fraction(0), Fraction(0), Fraction(1))
    out[4 * k - 2] = out[4 * k - 2] + lam2
    out[2 * k] = out[2 * k] - (lam2 * 2)
    out[2] = out[2] + lam2
    return tuple(out)


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
