"""Ramanujan's exponential-series identity, the sech-series identity for S_k,
the two zeta(3) approximation schemes, and the auxiliary-function zero explorer.

All identity residuals are two-sided: the polynomial side is evaluated through
the exact family coefficients with certified enclosures, the series side is
truncated with explicit geometric tail bounds folded into the enclosure radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import libmp, mp

from .enclosure import (
    ComplexEnclosure,
    RealEnclosure,
    ball_exp,
    ball_sech,
    exp_complex,
    zeta_odd,
)
from .errors import DomainError, NumericError
from .families import build_P, build_S
from .roots import find_roots


@dataclass
class SeriesEvaluation:
    k: int
    z: ComplexEnclosure
    n_terms: int
    lhs: ComplexEnclosure
    rhs: ComplexEnclosure
    tail_bound: RealEnclosure
    residual: ComplexEnclosure

    def encloses_zero(self) -> bool:
        return self.residual.contains_zero()

    def residual_width(self) -> float:
        return 2.0 * max(float(self.residual.re.radius), float(self.residual.im.radius))

    def to_doc(self) -> dict:
        rm, rr = self.residual.re.str_pair()
        im_, ir = self.residual.im.str_pair()
        return {"k": self.k, "n_terms": self.n_terms,
                "z_re": self.z.re.str_pair()[0], "z_im": self.z.im.str_pair()[0],
                "residual_re_mid": rm, "residual_re_rad": rr,
                "residual_im_mid": im_, "residual_im_rad": ir,
                "tail_bound": self.tail_bound.str_pair()[0],
                "encloses_zero": self.encloses_zero()}


@dataclass
class ApproxResult:
    scheme: str
    root: ComplexEnclosure
    zeta3_estimate: RealEnclosure
    matched_decimals: int
    constraint_residual: RealEnclosure
    newton_steps: int

    def to_doc(self) -> dict:
        em, er = self.zeta3_estimate.str_pair()
        return {"scheme": self.scheme,
                "root_re": self.root.re.str_pair()[0], "root_im": self.root.im.str_pair()[0],
                "zeta3_estimate": em, "matched_decimals": self.matched_decimals,
                "constraint_residual": self.constraint_residual.str_pair()[0],
                "newton_steps": self.newton_steps}


def ramanujan_identity_residual(k: int, z, n_terms: int | None = None,
                                bits: int = 128) -> SeriesEvaluation:
    """Residual of the exponential-series identity behind the Ramanujan family.

    lhs = P_k(z)/2 (exact coefficients, certified enclosure); rhs is the pair
    of exponential sums truncated at n_terms with certified geometric tails.
    Requires Re z > 0 so both series decay.
    """
    if k < 2:
        raise DomainError(f"need k >= 2, got {k}")
    if n_terms is not None and n_terms < 1:
        raise DomainError(f"need n_terms >= 1, got {n_terms}")
    prec = bits + 16
    zc = _as_complex(z, prec)
    if zc.re.sign() <= 0:
        raise DomainError("identity evaluation needs Re z > 0")
    pi = RealEnclosure.pi(prec)
    p = build_P(k)
    lhs = p.eval_ball(zc, prec) * ComplexEnclosure.from_real(pi.pow_int(2 * k - 1) * Fraction(1, 2))

    w_inv = 2 * pi / zc    # complex ball: 2 pi / z
    w_dir = 2 * pi * zc
    a_inv = w_inv.re
    a_dir = w_dir.re
    if a_inv.sign() <= 0 or a_dir.sign() <= 0:
        raise DomainError("identity evaluation needs Re z > 0 and Re 1/z > 0")

    z_pow = zc.pow_int(2 * k - 1)
    one = ComplexEnclosure.exact(1, 0, prec)

    if n_terms is None:
        n_terms = _terms_for_tail(lambda n: _tail_sum(a_inv, n, z_pow.abs(), 2 * k - 1, prec)
                                  + _tail_sum(a_dir, n, zc.abs(), 2 * k - 1, prec), 4, bits)

    sum1 = ComplexEnclosure.exact(0, 0, prec)
    sum2 = ComplexEnclosure.exact(0, 0, prec)
    for n in range(1, n_terms + 1):
        coeff = Fraction(1, n ** (2 * k - 1))
        sum1 = sum1 + z_pow * coeff / (exp_complex(w_inv * n) - one)
        sum2 = sum2 + zc * coeff / (exp_complex(w_dir * n) - one)
    sign = 1 if k % 2 == 1 else -1   # (-1)^(k+1)
    rhs = -sum1 + sum2 * sign

    tail = _tail_sum(a_inv, n_terms + 1, z_pow.abs(), 2 * k - 1, prec) \
        + _tail_sum(a_dir, n_terms + 1, zc.abs(), 2 * k - 1, prec)
    pad = RealEnclosure.from_endpoints((-tail.upper)._mpf_, tail.upper._mpf_, prec)
    rhs = ComplexEnclosure(rhs.re + pad, rhs.im + pad)
    residual = lhs - rhs
    return SeriesEvaluation(k, zc, n_terms, lhs, rhs, tail, residual)


def _terms_for_tail(tail, n: int, bits: int) -> int:
    """Grow n by max(2, n // 3) until tail(n) < 2^-(bits // 2) or n reaches 8192."""
    while n < 8192 and not tail(n).lt(Fraction(1, 2 ** (bits // 2))):
        n += max(2, n // 3)
    return n


def _tail_sum(rate: RealEnclosure, n_from: int, scale: RealEnclosure,
              power: int, prec: int) -> RealEnclosure:
    """Bound scale * sum_{n >= n_from} n^(-power) / (e^(n rate) - 1) from above."""
    q = ball_exp(-rate)
    if not q.lt(1):
        raise DomainError("tail rate too small to certify")
    one = RealEnclosure.exact(1, prec)
    # 1/(e^(n a) - 1) <= q^n / (1 - q)
    geo = q.pow_int(n_from) / ((one - q) * (one - q))
    return scale * geo * Fraction(1, n_from ** power)


def _as_complex(z, prec: int) -> ComplexEnclosure:
    if isinstance(z, ComplexEnclosure):
        return z
    if isinstance(z, tuple):
        return ComplexEnclosure.exact(Fraction(z[0]), Fraction(z[1]), prec)
    return ComplexEnclosure.exact(Fraction(z), Fraction(0), prec)


# ---------------------------------------------------------------------------
# sech identity for S_k
# ---------------------------------------------------------------------------

def _chi4(n: int) -> int:
    return (1, 0, -1, 0)[(n - 1) % 4] if n % 2 else 0


def sech_identity_residual(k: int, z: Fraction, n_terms: int | None = None,
                           bits: int = 128) -> SeriesEvaluation:
    """Residual of the sech-series evaluation of S_k at -z^2, z rational > 0."""
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    if n_terms is not None and n_terms < 1:
        raise DomainError(f"need n_terms >= 1, got {n_terms}")
    z = Fraction(z)
    if z <= 0:
        raise DomainError("sech identity evaluated at real z > 0 only")
    prec = bits + 16
    pi = RealEnclosure.pi(prec)
    s_poly = build_S(k)
    s_val = sum((c.a * (-z * z) ** j for j, c in enumerate(s_poly.coeffs)), Fraction(0))
    lhs_r = (pi * Fraction(1, 2)).pow_int(2 * k + 1) * Fraction(
        s_val.numerator, 2 * math.factorial(2 * k) * s_val.denominator)

    c_inv = pi / (2 * z)   # pi/(2z): rate for sech(pi n / (2 z))
    c_dir = pi * (z / 2)
    if n_terms is None:
        n_terms = _terms_for_tail(lambda n: _sech_tail(c_inv, n, 2 * k + 1, prec)
                                  + _sech_tail(c_dir, n, 2 * k + 1, prec), 8, bits)

    sum1 = RealEnclosure.exact(0, prec)
    sum2 = RealEnclosure.exact(0, prec)
    for n in range(1, n_terms + 1):
        chi = _chi4(n)
        if not chi:
            continue
        coeff = Fraction(chi, n ** (2 * k + 1))
        sum1 = sum1 + ball_sech(c_inv * n) * coeff
        sum2 = sum2 + ball_sech(c_dir * n) * coeff
    z2k = RealEnclosure.exact(z ** (2 * k), prec)
    sign = 1 if k % 2 == 0 else -1
    rhs_r = z2k * sum1 + sum2 * sign

    tail = z2k * _sech_tail(c_inv, n_terms, 2 * k + 1, prec) \
        + _sech_tail(c_dir, n_terms, 2 * k + 1, prec)
    pad = RealEnclosure.from_endpoints((-tail.upper)._mpf_, tail.upper._mpf_, prec)
    rhs_r = rhs_r + pad
    lhs = ComplexEnclosure.from_real(lhs_r)
    rhs = ComplexEnclosure.from_real(rhs_r)
    return SeriesEvaluation(k, _as_complex(z, prec), n_terms, lhs, rhs, tail, lhs - rhs)


def _sech_tail(rate: RealEnclosure, n_after: int, power: int, prec: int) -> RealEnclosure:
    """Bound |sum over n > n_after of chi_-4(n) sech(n rate)/n^power|.

    The surviving terms (odd n) alternate in sign with strictly decreasing
    magnitude, so the tail is bounded by its first term; sech x <= 2 e^(-x).
    """
    if rate.sign() <= 0:
        raise DomainError("tail bound needs a positive decay rate")
    n1 = n_after + 1
    while _chi4(n1) == 0:
        n1 += 1
    q = ball_exp(-(rate * n1))
    return q * Fraction(2, n1 ** power)


# ---------------------------------------------------------------------------
# zeta(3) approximation schemes
# ---------------------------------------------------------------------------

def _damped_newton(g, gp, z0, wp: int, tol_bits: int, max_steps: int = 100):
    """Complex Newton with step halving on non-decreasing residual."""
    with mp.workprec(wp):
        z = mp.mpc(z0)
        gz = g(z)
        for step in range(1, max_steps + 1):
            d = gp(z)
            if d == 0:
                raise NumericError("Newton derivative vanished", seed=str(z0), at=str(z))
            delta = gz / d
            damp = mp.mpf(1)
            while True:
                z_new = z - damp * delta
                g_new = g(z_new)
                if abs(g_new) < abs(gz) or damp < mp.mpf(2) ** -16:
                    break
                damp /= 2
            z, gz = z_new, g_new
            if abs(damp * delta) < mp.mpf(2) ** (-tol_bits):
                return z, step
        raise NumericError("Newton did not converge", seed=str(z0), last=str(z),
                           residual=float(abs(gz)))


def matched_leading_digits(est_raw, ref: RealEnclosure, max_digits: int = 36) -> int:
    """Number of agreeing leading significant decimal digits (literal truncation)."""
    def digits_exp(raw):
        s = libmp.to_str(raw, max_digits + 4)
        neg = s.startswith("-")
        s = s.lstrip("-")
        mant, _, e = s.partition("e")
        exp10 = int(e) if e else 0
        ip, _, fp = mant.partition(".")
        digits = (ip + fp).lstrip("0") or "0"
        lead = len(ip.lstrip("0")) if ip.strip("0") else -len(fp) + len(fp.lstrip("0"))
        return neg, digits, exp10 + lead
    n1, d1, e1 = digits_exp(est_raw)
    n2, d2, e2 = digits_exp(ref.mid)
    if n1 != n2 or e1 != e2:
        return 0
    count = 0
    for a, b in zip(d1, d2):
        if a != b:
            break
        count += 1
    return min(count, max_digits)


def _approx_result(scheme: str, root, steps: int, est_mid, g_ball, wp: int,
                   bits: int) -> ApproxResult:
    """A scheme's root as a point ball, |g| there, and its digits of zeta(3)."""
    root_ball = _point_complex(root, wp)
    est = RealEnclosure(est_mid._mpf_, libmp.fzero, wp)
    matched = matched_leading_digits(est.mid, zeta_odd(3, max(192, bits + 64)))
    return ApproxResult(scheme, root_ball, est, matched, g_ball(root_ball, wp).abs(), steps)


def approx1_zeta3(bits: int = 128, seed_convention: str = "principal") -> ApproxResult:
    """First truncation scheme: solve 0 = z/(e^(2 pi/z)-1) + (1/z)/(e^(2 pi z)-1)
    and estimate zeta(3) = pi^3 (z^4 + 5 z^2 + 1)/(90 (z^3 + z)).

    Seeded at a fourth-quadrant unit-circle root of the exact k=2 polynomial;
    `principal` takes the root with the larger real part (the truncation error
    is smallest there), `secondary` the other one.
    """
    if bits < 128:
        raise DomainError("need bits >= 128")
    if seed_convention not in ("principal", "secondary"):
        raise DomainError(f"unknown seed convention {seed_convention!r}")
    wp = bits + 16
    roots = find_roots(build_P(2), bits).balls()
    fourth = [r for r in roots if r.re.sign() > 0 and r.im.sign() < 0]
    fourth.sort(key=lambda r: r.re.midpoint, reverse=True)
    seed = fourth[0 if seed_convention == "principal" else 1]

    with mp.workprec(wp):
        pi = mp.pi

        def g(z):
            return z / (mp.exp(2 * pi / z) - 1) + (1 / z) / (mp.exp(2 * pi * z) - 1)

        def gp(z):
            e1 = mp.exp(2 * pi / z)
            e2 = mp.exp(2 * pi * z)
            t1 = 1 / (e1 - 1) + (2 * pi / z) * e1 / (e1 - 1) ** 2
            t2 = -1 / (z * z * (e2 - 1)) - (2 * pi / z) * e2 / (e2 - 1) ** 2
            return t1 + t2

        z0 = mp.mpc(seed.re.midpoint, seed.im.midpoint)
        root, steps = _damped_newton(g, gp, z0, wp, tol_bits=bits + 8)
        est_mid = (pi ** 3 * (root ** 4 + 5 * root ** 2 + 1) / (90 * (root ** 3 + root))).real

    return _approx_result("approx1", root, steps, est_mid, _g1_ball, wp, bits)


def approx2_zeta3(bits: int = 128) -> ApproxResult:
    """Second truncation scheme (from Q_2): Newton from 0.92 - 0.39i on the
    six-term exponential constraint; zeta(3) = pi^3 z / (14 (1 + z^2))."""
    if bits < 128:
        raise DomainError("need bits >= 128")
    wp = bits + 16
    with mp.workprec(wp):
        pi = mp.pi

        def g(z):
            return (2 * z / (mp.exp(4 * pi * z) - 1) + 8 * z ** 3 / (mp.exp(pi / z) - 1)
                    - 17 * z / (mp.exp(2 * pi * z) - 1) - 17 * z ** 3 / (mp.exp(2 * pi / z) - 1)
                    + 8 * z / (mp.exp(pi * z) - 1) + 2 * z ** 3 / (mp.exp(4 * pi / z) - 1))

        def gp(z):
            h = mp.mpf(2) ** (-wp // 2)
            return (g(z + h) - g(z - h)) / (2 * h)

        root, steps = _damped_newton(g, gp, mp.mpc("0.92", "-0.39"), wp, tol_bits=bits + 8)
        est_mid = (pi ** 3 * root / (14 * (1 + root ** 2))).real

    return _approx_result("approx2", root, steps, est_mid, _g2_ball, wp, bits)


def _point_complex(z, prec: int) -> ComplexEnclosure:
    return ComplexEnclosure(RealEnclosure(z.real._mpf_, libmp.fzero, prec),
                            RealEnclosure(z.imag._mpf_, libmp.fzero, prec))


def _g1_ball(z: ComplexEnclosure, prec: int) -> ComplexEnclosure:
    pi = RealEnclosure.pi(prec)
    one = ComplexEnclosure.exact(1, 0, prec)
    two_pi = ComplexEnclosure.from_real(pi + pi)
    return z / (exp_complex(two_pi / z) - one) + (one / z) / (exp_complex(two_pi * z) - one)


def _g2_ball(z: ComplexEnclosure, prec: int) -> ComplexEnclosure:
    pi = ComplexEnclosure.from_real(RealEnclosure.pi(prec))
    one = ComplexEnclosure.exact(1, 0, prec)
    z3 = z.pow_int(3)
    term = lambda num, arg: num / (exp_complex(arg) - one)
    return (term(2 * z, 4 * pi * z) + term(8 * z3, pi / z)
            - term(17 * z, 2 * pi * z) - term(17 * z3, 2 * pi / z)
            + term(8 * z, pi * z) + term(2 * z3, 4 * pi / z))


# ---------------------------------------------------------------------------
# auxiliary-function zeros (truncated-series approximants of P_k roots)
# ---------------------------------------------------------------------------

@dataclass
class AuxiliaryPairing:
    p_root: ComplexEnclosure
    aux_root: ComplexEnclosure | None
    distance: float | None
    converged: bool

    def to_doc(self) -> dict:
        doc = {"p_root_re": self.p_root.re.str_pair()[0],
               "p_root_im": self.p_root.im.str_pair()[0],
               "converged": self.converged}
        if self.converged:
            doc["aux_root_re"] = self.aux_root.re.str_pair()[0]
            doc["aux_root_im"] = self.aux_root.im.str_pair()[0]
            doc["distance"] = self.distance
        return doc


def auxiliary_zeros(k: int, bits: int = 128) -> list[AuxiliaryPairing]:
    """Pair each root of P_k with a Newton zero of the one-term truncation
    f(z) = z^(k-1)/(e^(2 pi/z)-1) + (-1)^k z^(1-k)/(e^(2 pi z)-1).

    The sign (-1)^k makes the k=2 case match the first zeta(3) constraint;
    per-root Newton divergence is recorded, not raised.
    """
    if k < 2:
        raise DomainError(f"need k >= 2, got {k}")
    wp = bits + 16
    sign = -1 if k % 2 else 1
    roots = find_roots(build_P(k), bits).balls()
    out = []
    with mp.workprec(wp):
        pi = mp.pi

        def f(z):
            return (z ** (k - 1) / (mp.exp(2 * pi / z) - 1)
                    + sign * z ** (1 - k) / (mp.exp(2 * pi * z) - 1))

        def fp(z):
            e1 = mp.exp(2 * pi / z)
            e2 = mp.exp(2 * pi * z)
            t1 = ((k - 1) * z ** (k - 2) / (e1 - 1)
                  + z ** (k - 1) * (2 * pi / z ** 2) * e1 / (e1 - 1) ** 2)
            t2 = (sign * (1 - k) * z ** (-k) / (e2 - 1)
                  - sign * z ** (1 - k) * 2 * pi * e2 / (e2 - 1) ** 2)
            return t1 + t2

        for r in roots:
            z0 = mp.mpc(r.re.midpoint, r.im.midpoint)
            try:
                zr, _ = _damped_newton(f, fp, z0, wp, tol_bits=bits, max_steps=100)
                dist = float(abs(zr - z0))
                out.append(AuxiliaryPairing(r, _point_complex(zr, wp), dist, True))
            except NumericError:
                out.append(AuxiliaryPairing(r, None, None, False))
    return out
