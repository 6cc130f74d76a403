"""The six polynomial families R, P, Q, Y, W, S and their exact structure.

Every family polynomial is stored pi-normalized: coefficients live in the ring
Q[lam] where lam = zeta(2k-1)/pi^(2k-1) is a formal generator, and `pi_power`
records the power of pi divided out.  The generator is only bound to a
certified enclosure at evaluation time, so coefficient identities stay exact.
P_k is kept in product form (`ProductFormP`): the sign and roots routes read
its coefficients as integer products of a per-precision table of
b_j = B_2j / (2j)!, and its exact coefficients are formed only when read.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from mpmath import libmp

from . import fixed
from .enclosure import ComplexEnclosure, RealEnclosure, lambda_k
from .errors import DomainError
from .exact import bernoulli, binomial, euler


@dataclass(frozen=True)
class ZetaCoefficient:
    """An element a + b*lam + c*lam^2 of Q[lam]/(lam^3 untracked).

    Products that would create a lam^3 (or higher) term raise, since no family
    construction needs them.
    """

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)
    c: Fraction = Fraction(0)

    @classmethod
    def rational(cls, a) -> "ZetaCoefficient":
        return cls(Fraction(a), Fraction(0), Fraction(0))

    @classmethod
    def lam(cls, b=1) -> "ZetaCoefficient":
        return cls(Fraction(0), Fraction(b), Fraction(0))

    def __add__(self, other: "ZetaCoefficient") -> "ZetaCoefficient":
        return ZetaCoefficient(self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other: "ZetaCoefficient") -> "ZetaCoefficient":
        return ZetaCoefficient(self.a - other.a, self.b - other.b, self.c - other.c)

    def __neg__(self) -> "ZetaCoefficient":
        return ZetaCoefficient(-self.a, -self.b, -self.c)

    def __mul__(self, other) -> "ZetaCoefficient":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return ZetaCoefficient(self.a * q, self.b * q, self.c * q)
        if self.b * other.c or self.c * other.b or self.c * other.c:
            raise DomainError("product exceeds degree 2 in the zeta generator")
        return ZetaCoefficient(
            self.a * other.a,
            self.a * other.b + self.b * other.a,
            self.a * other.c + self.c * other.a + self.b * other.b,
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c)

    def is_rational(self) -> bool:
        return not (self.b or self.c)

    def eval(self, lam: RealEnclosure) -> RealEnclosure:
        prec = lam.prec
        out = RealEnclosure.exact(self.a, prec)
        if self.b:
            out = out + RealEnclosure.exact(self.b, prec) * lam
        if self.c:
            out = out + RealEnclosure.exact(self.c, prec) * (lam * lam)
        return out

    def triple(self) -> list[str]:
        return [f"{decimal_str(q.numerator)}/{decimal_str(q.denominator)}"
                for q in (self.a, self.b, self.c)]


def decimal_str(n: int) -> str:
    """str(n), also for integers past CPython's int -> str digit limit
    (4300 digits by default), which Decimal's exact conversion does not apply;
    the process-wide limit is left as it is."""
    return str(Decimal(n))


def fraction_str(q: Fraction) -> str:
    """str(q) without the int -> str digit limit."""
    num = decimal_str(q.numerator)
    return num if q.denominator == 1 else f"{num}/{decimal_str(q.denominator)}"


ZERO_COEFF = ZetaCoefficient()


def ball_horner(coeffs: Sequence[RealEnclosure], z: ComplexEnclosure,
                bits: int) -> ComplexEnclosure:
    """sum coeffs[j] z^j by Horner's rule in ball arithmetic at `bits`."""
    acc = ComplexEnclosure.exact(0, 0, bits)
    for c in reversed(coeffs):
        acc = acc * z + ComplexEnclosure.from_real(c)
    return acc


def _magnitude(x: Fraction) -> int:
    """The least E with |x| < 2^E, for x != 0."""
    n, d = abs(x.numerator), x.denominator
    E = n.bit_length() - d.bit_length()
    # 2^(E-1) < |x| < 2^(E+1): one comparison decides between E and E + 1
    return E + 1 if (n >> E if E >= 0 else n << -E) >= d else E


def _floor_shift(q: Fraction, s: int) -> int:
    """floor(q 2^s): one floor division."""
    n, d = q.numerator, q.denominator
    return (n << s) // d if s >= 0 else n // (d << -s)


@dataclass(frozen=True)
class FamilyPoly:
    """A family polynomial: tag, index, pi normalization, coefficients, signature."""

    family: str
    k: int
    pi_power: int
    coeffs: tuple[ZetaCoefficient, ...]
    epsilon: int
    note: str = ""

    @property
    def degree(self) -> int:
        for j in range(len(self.coeffs) - 1, -1, -1):
            if not self.coeffs[j].is_zero():
                return j
        return 0

    @property
    def origin_multiplicity(self) -> int:
        for j, c in enumerate(self.coeffs):
            if not c.is_zero():
                return j
        return 0

    def strip_origin(self) -> "FamilyPoly":
        m = self.origin_multiplicity
        if m == 0:
            return self
        return FamilyPoly(self.family, self.k, self.pi_power,
                          self.coeffs[m:self.degree + 1], self.epsilon,
                          note=(self.note + f" /z^{m}").strip())

    def is_rational(self) -> bool:
        return all(c.is_rational() for c in self.coeffs)

    def self_inversive_ok(self) -> bool:
        """Exact coefficient symmetry coeffs[deg-j] = eps*coeffs[j], checked
        on the origin-stripped polynomial."""
        p = self.strip_origin()
        c, d = p.coeffs, p.degree
        # Fractions are kept in lowest terms, so == needs no gcd
        return all(c[d - j] == (c[j] if p.epsilon > 0 else -c[j]) for j in range(d // 2 + 1))

    def coefficient_balls(self, bits: int) -> list[RealEnclosure]:
        """The coefficients as balls, with lam bound once for all of them:
        the input of `eval_ball`."""
        lam = RealEnclosure.exact(0, bits) if self.is_rational() else lambda_k(self.k, bits)
        return [c.eval(lam) for c in self.coeffs]

    def fixed_coefficients(self, prec: int, count: int) -> tuple[int, list[int], list[int]]:
        """(emax, C, e) for c_0 .. c_(count-1): integers C_j, e_j with
        |c_j - 2^(emax - prec) C_j| <= 2^(emax - prec) e_j, where 2^emax
        bounds every |c_j|.  The fixed-point input of the sign, roots and
        criteria routes, formed from the exact coefficients with no ball.

        A coefficient a + b lam + c lam^2 is valued exactly at the midpoint m
        of lambda_k(k, prec), whose ball [m - r, m + r] holds lam; lam moving
        in it moves the value by at most R = |b| r + |c| (2|m| + r) r (R = 0
        for a rational coefficient).  emax is the least E with
        |value| + R < 2^E over all of them, C_j the floor of
        value 2^(prec - emax) (one floor division, within one unit) and
        e_j = ceil(R 2^(prec - emax)) + 1.
        """
        coeffs = self.coeffs[:count]
        values = [c.a for c in coeffs]
        sizes = list(values)           # |value| + R, which 2^emax must exceed
        radii = {}                     # j -> R, for the coefficients with lam
        if not all(c.is_rational() for c in coeffs):
            lam = lambda_k(self.k, prec)
            m, r = (Fraction(*libmp.to_rational(x)) for x in (lam.mid, lam.rad))
            for j, c in enumerate(coeffs):
                if c.b or c.c:
                    values[j] = c.a + (c.b + c.c * m) * m
                    radii[j] = abs(c.b) * r + abs(c.c) * (2 * abs(m) + r) * r
                    sizes[j] = abs(values[j]) + radii[j]
        mags = [_magnitude(x) for x in sizes if x]
        if not mags:
            raise DomainError(f"{self.family}_{self.k}: zero coefficients")
        emax = max(mags)
        s = prec - emax
        C = [_floor_shift(v, s) for v in values]
        e = [1] * len(values)
        for j, R in radii.items():
            e[j] -= _floor_shift(-R, s)
        return emax, C, e

    def eval_ball(self, z: ComplexEnclosure, bits: int) -> ComplexEnclosure:
        """Horner evaluation of the normalized polynomial (pi power NOT applied)."""
        return ball_horner(self.coefficient_balls(bits), z, bits)

    def eval_rational(self, z: Fraction) -> ZetaCoefficient:
        """Exact Horner evaluation at a rational point, in Q[lam]."""
        acc = ZERO_COEFF
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def to_doc(self) -> dict:
        return {
            "family": self.family,
            "k": self.k,
            "degree": self.degree,
            "pi_power": self.pi_power,
            "epsilon": self.epsilon,
            "coeffs": [c.triple() for c in self.coeffs],
            "note": self.note,
        }


def _b_product(j: int, i: int, weight: int = 1, shift: int = 0) -> Fraction:
    """b_j b_i weight 2^shift, b_j = B_2j / (2j)!, as one Fraction of
    integer products: the numerators and denominators of B_2j and B_2i, the
    two factorials and the dyadic weight, with one gcd and no intermediate
    Fraction.  The family builders form every coefficient through it."""
    bj, bi = bernoulli(2 * j), bernoulli(2 * i)
    num = bj.numerator * bi.numerator * weight
    den = bj.denominator * bi.denominator * math.factorial(2 * j) * math.factorial(2 * i)
    return Fraction(num << shift, den) if shift >= 0 else Fraction(num, den << -shift)


def _p_even_rational(k: int, j: int) -> Fraction:
    """Normalized even coefficient of P_k at z^(2j):
    (-1)^j 2^(2k-1) B_2j B_(2k-2j) C(2k, 2j) / (2k)! = (-1)^j 2^(2k-1) b_j b_(k-j)."""
    return _b_product(j, k - j, -1 if j % 2 else 1, 2 * k - 1)


# prec -> [(a_j, f_j) for j = 0, 1, ...] with b_j in [a_j, a_j + 1) 2^f_j: one
# table per working precision for the process, grown with the Bernoulli table
_B_FIXED: dict[int, list[tuple[int, int]]] = {}
_B_FIXED_LOCK = threading.Lock()


def _b_fixed(prec: int, n: int) -> list[tuple[int, int]]:
    """The table of b_j = B_2j / (2j)! at `prec`, holding at least j = 0 .. n.

    Entry j is the integer a_j = floor(b_j 2^-f_j) of prec + 8 or 9 bits, so
    b_j lies in [a_j, a_j + 1) 2^f_j: one floor division of B_2j's numerator
    by its denominator times (2j)!, with no gcd and no exact b_j formed."""
    table = _B_FIXED.setdefault(prec, [])
    if len(table) <= n:
        bernoulli(2 * n)  # grows the Bernoulli table in one step, not one per entry
        with _B_FIXED_LOCK:
            fact = math.factorial(2 * len(table))
            for j in range(len(table), n + 1):
                b = bernoulli(2 * j)
                den = b.denominator * fact
                f = abs(b.numerator).bit_length() - den.bit_length() - prec - 8
                table.append(((b.numerator << -f) // den, f))
                fact *= (2 * j + 1) * (2 * j + 2)
    return table


class ProductFormP(FamilyPoly):
    """P_k in product form, pi-normalized by pi^(2k-1): c_2j =
    (-1)^j 2^(2k-1) b_j b_(k-j) for j = 0 .. k, c_1 = eps lam, c_(2k-1) = lam
    and every other coefficient 0, with eps = (-1)^k.

    The definition fixes the degree 2k (c_2k = eps c_0 != 0, as B_2k != 0),
    the origin multiplicity 0 and the symmetry c_(2k-j) = eps c_j, so none of
    them reads a coefficient.  The exact `coeffs` in Q[lam] are formed on
    first access, for the readers of exact values; `fixed_coefficients`, the
    input of the sign and roots routes, forms none.
    """

    def __init__(self, k: int):
        bernoulli(2 * k)  # grows the Bernoulli table; raises past its cap
        for name, value in (("family", "P"), ("k", k), ("pi_power", 2 * k - 1),
                            ("epsilon", -1 if k % 2 else 1), ("note", "")):
            object.__setattr__(self, name, value)

    @cached_property
    def coeffs(self) -> tuple[ZetaCoefficient, ...]:
        k, eps = self.k, self.epsilon
        coeffs = [ZERO_COEFF] * (2 * k + 1)
        # c_(2k-2j) = (-1)^k c_2j: compute the lower half, mirror the rest
        for j in range(k // 2 + 1):
            c = ZetaCoefficient.rational(_p_even_rational(k, j))
            coeffs[2 * j] = c
            coeffs[2 * k - 2 * j] = c if eps > 0 else -c
        coeffs[1] = coeffs[1] + ZetaCoefficient.lam(eps)
        coeffs[2 * k - 1] = coeffs[2 * k - 1] + ZetaCoefficient.lam(1)
        return tuple(coeffs)

    @property
    def degree(self) -> int:
        return 2 * self.k

    @property
    def origin_multiplicity(self) -> int:
        return 0

    def self_inversive_ok(self) -> bool:
        return True  # c_(2k-j) = eps c_j by the definition

    def fixed_coefficients(self, prec: int, count: int) -> tuple[int, list[int], list[int]]:
        """As `FamilyPoly.fixed_coefficients`, from integer products: with
        b_j in [a_j, a_j + 1) 2^f_j, c_2j is +-(a_j a_(k-j) + d) 2^(2k-1+f_j+f_(k-j))
        with |d| < |a_j| + |a_(k-j)| + 1, floored to the common unit; c_1 and
        c_(2k-1) come from the ball lambda_k(k, prec)."""
        k = self.k
        b = _b_fixed(prec, k)
        lam = lambda_k(k, prec)
        prods = {}   # j -> (mantissa, its unit's exponent, error in that unit)
        for j in range(0, min(count, 2 * k + 1), 2):
            (a, f), (a2, f2) = b[j // 2], b[k - j // 2]
            prods[j] = (-a * a2 if j % 4 else a * a2, f + f2 + 2 * k - 1, abs(a) + abs(a2) + 1)
        emax = max(abs(v).bit_length() + x for v, x, _ in prods.values())
        if count > 1:
            emax = max(emax, lam.mid[2] + lam.mid[3])
        C, e = [0] * count, [0] * count
        for j, (v, x, d) in prods.items():
            shift = emax - prec - x   # > 0: a_j a_(k-j) has about 2 prec bits
            C[j], e[j] = v >> shift, (d >> shift) + 2
        v, ev = fixed.from_ball(lam, prec - emax)
        for j, sign in ((1, self.epsilon), (2 * k - 1, 1)):
            if j < count:
                C[j], e[j] = sign * v, ev
        return emax, C, e


def build_R(k: int, convention: str = "symmetric") -> FamilyPoly:
    """Bernoulli-product polynomial of odd index 2k+1.

    convention="symmetric": full palindromic sum j = 0..k+1 (degree 2k+2);
    convention="printed": the truncated sum j = 0..k-1 (degree 2k-2), which is
    not palindromic.
    """
    if k < 1:
        raise DomainError(f"build_R needs k >= 1, got {k}")
    if convention not in ("symmetric", "printed"):
        raise DomainError(f"unknown R convention {convention!r}")
    top = k + 1 if convention == "symmetric" else k - 1
    coeffs = [ZERO_COEFF] * (2 * top + 1)
    # B_2j B_(2k+2-2j) / ((2j)! (2k+2-2j)!) = b_j b_(k+1-j), symmetric in
    # j <-> k+1-j: past the middle, copy the mirrored coefficient
    for j in range(top + 1):
        coeffs[2 * j] = (coeffs[2 * (k + 1 - j)] if k + 1 - j < j else
                         ZetaCoefficient.rational(_b_product(j, k + 1 - j)))
    return FamilyPoly("R", k, 0, tuple(coeffs), +1, note=f"convention={convention}")


def build_P(k: int) -> FamilyPoly:
    """P_k, pi-normalized by pi^(2k-1); degree 2k; epsilon = (-1)^k; in
    product form, its exact coefficients formed on first access."""
    if k < 2:
        raise DomainError(f"build_P needs k >= 2, got {k}")
    return ProductFormP(k)


def _combine_P(k: int, scale_z1: Fraction) -> tuple[ZetaCoefficient, ...]:
    """c1*P(z) - 2^2k P(z/2) - P(2z) with c1 = scale_z1, coefficientwise."""
    p = build_P(k)
    out = []
    for j, c in enumerate(p.coeffs):
        factor = scale_z1 - Fraction(1 << (2 * k), 1 << j) - Fraction(1 << j)
        out.append(c * factor)
    return tuple(out)


def build_Q(k: int) -> FamilyPoly:
    """Q_k via its closed-form coefficients; `combination_identity` checks
    them against the linear combination (2^2k + 1) P(z) - 2^2k P(z/2) - P(2z)."""
    if k < 2:
        raise DomainError(f"build_Q needs k >= 2, got {k}")
    coeffs = [ZERO_COEFF] * (2 * k)
    # a_j = (-1)^j 2^(2k-1) b_j b_(k-j) (4^j - 1)(4^(k-j) - 1), zero at j = 0, k;
    # a_(k-j) = (-1)^k a_j: compute the lower half, mirror the rest
    for j in range(1, k // 2 + 1):
        w = ((1 << (2 * j)) - 1) * ((1 << (2 * k - 2 * j)) - 1)
        c = ZetaCoefficient.rational(_b_product(j, k - j, -w if j % 2 else w, 2 * k - 1))
        coeffs[2 * j] = c
        coeffs[2 * k - 2 * j] = -c if k % 2 else c
    eps = -1 if k % 2 else 1
    odd = Fraction((1 << (2 * k - 1)) - 1)
    coeffs[1] = coeffs[1] + ZetaCoefficient.lam(eps * odd)
    coeffs[2 * k - 1] = coeffs[2 * k - 1] + ZetaCoefficient.lam(odd)
    return FamilyPoly("Q", k, 2 * k - 1, tuple(coeffs), eps)


def build_W(k: int) -> FamilyPoly:
    """W_k via its closed form, which equals exactly 2x the linear combination
    (2^(2k-1) + 2) P(z) - 2^2k P(z/2) - P(2z) (see `combination_identity`)."""
    if k < 2:
        raise DomainError(f"build_W needs k >= 2, got {k}")
    coeffs = [ZERO_COEFF] * (2 * k + 1)
    # a_j = (-1)^j 2^(4k-1) b_j b_(k-j) (1 - 2^(1-2j))(1 - 2^(1-2k+2j));
    # a_(k-j) = (-1)^k a_j: compute the lower half, mirror the rest
    def factor(m: int) -> tuple[int, int]:
        # 1 - 2^(1-2m) = n 2^x as (n, x): -1 at m = 0, else (2^(2m-1) - 1) 2^(1-2m)
        return (-1, 0) if m == 0 else ((1 << (2 * m - 1)) - 1, 1 - 2 * m)

    for j in range(k // 2 + 1):
        (n1, x1), (n2, x2) = factor(j), factor(k - j)
        c = ZetaCoefficient.rational(
            _b_product(j, k - j, -n1 * n2 if j % 2 else n1 * n2, 4 * k - 1 + x1 + x2))
        coeffs[2 * j] = c
        coeffs[2 * k - 2 * j] = -c if k % 2 else c
    eps = -1 if k % 2 else 1
    return FamilyPoly("W", k, 2 * k - 1, tuple(coeffs), eps,
                      note="closed form = 2 x combination")


def build_Y(k: int) -> FamilyPoly:
    """Y_k, pi-normalized by pi^(2k): purely rational, coefficient of z^j is
    B_2j B_(2k-2j) (2^2j - 1)(2^(2k-2j) - 1) C(2k,2j)/(2k)!; zero at z^0, z^k."""
    if k < 2:
        raise DomainError(f"build_Y needs k >= 2, got {k}")
    coeffs = [ZERO_COEFF] * (k + 1)
    # a_j = b_j b_(k-j) (4^j - 1)(4^(k-j) - 1) = a_(k-j), zero at j = 0, k
    for j in range(1, k // 2 + 1):
        c = ZetaCoefficient.rational(
            _b_product(j, k - j, ((1 << (2 * j)) - 1) * ((1 << (2 * k - 2 * j)) - 1)))
        coeffs[j] = coeffs[k - j] = c
    assert coeffs[0].is_zero() and coeffs[k].is_zero()
    return FamilyPoly("Y", k, 2 * k, tuple(coeffs), +1)


def build_S(k: int) -> FamilyPoly:
    """S_k: integer coefficients E_2j E_(2k-2j) C(2k,2j), all of sign (-1)^k."""
    if k < 1:
        raise DomainError(f"build_S needs k >= 1, got {k}")
    coeffs = []
    for j in range(k + 1):
        coeffs.append(ZetaCoefficient.rational(
            euler(2 * j) * euler(2 * k - 2 * j) * binomial(2 * k, 2 * j)))
    return FamilyPoly("S", k, 0, tuple(coeffs), +1)


def build_family(family: str, k: int) -> FamilyPoly:
    builders = {"R": build_R, "P": build_P, "Q": build_Q,
                "Y": build_Y, "W": build_W, "S": build_S}
    if family not in builders:
        raise DomainError(f"unknown family {family!r}")
    return builders[family](k)


# ---------------------------------------------------------------------------
# |P_k(iz)|^2 expansion
# ---------------------------------------------------------------------------

def abs_square_coeffs(k: int) -> tuple[ZetaCoefficient, ...]:
    """Coefficients A_0..A_4k of |P_k(iz)|^2, normalized by pi^(4k-2).

    The even part is the self-convolution of the rational vector g with
    g_j = (-1)^j t_2j (the z^2j coefficient of P_k(iz)); the odd part of P_k(iz)
    contributes lam^2 (z^(4k-2) - 2 z^2k + z^2).
    """
    if k < 2:
        raise DomainError(f"abs_square_coeffs needs k >= 2, got {k}")
    g = [(_p_even_rational(k, j) * (-1 if j % 2 else 1)) for j in range(k + 1)]
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


# ---------------------------------------------------------------------------
# exact identities used by verification and the identity regression suite
# ---------------------------------------------------------------------------

def s_at_one(k: int) -> tuple[Fraction, Fraction]:
    """(|S_k(1)|, 2^(2k+1)(2^(2k+2)-1)|B_(2k+2)|/(k+1)) — equal for all k >= 1."""
    val = abs(sum((c.a for c in build_S(k).coeffs), Fraction(0)))
    closed = Fraction(1 << (2 * k + 1)) * ((1 << (2 * k + 2)) - 1) * abs(bernoulli(2 * k + 2)) / (k + 1)
    return val, closed


def y_coeff_sum(k: int) -> tuple[Fraction, Fraction]:
    """Sum of the normalized Y_k/z coefficients against its Bernoulli closed form.

    Both sides carry the pi^2k normalization: the closed form is
    -(2^2k/(2k)!) (2k-1)(1-2^(-2k)) B_2k.
    """
    ys = build_Y(k).strip_origin()
    total = sum((c.a for c in ys.coeffs), Fraction(0))
    closed = -(Fraction(1 << (2 * k), math.factorial(2 * k))
               * (2 * k - 1) * (1 - Fraction(2) ** (-2 * k)) * bernoulli(2 * k))
    return total, closed


def _scaled_equal(a: tuple[ZetaCoefficient, ...], b: tuple[ZetaCoefficient, ...],
                  scale: Fraction) -> bool:
    """a == scale * b coefficientwise, the shorter tuple padded with zeros."""
    n = max(len(a), len(b))
    a, b = a + (ZERO_COEFF,) * (n - len(a)), b + (ZERO_COEFF,) * (n - len(b))
    return all(x - y * scale == ZERO_COEFF for x, y in zip(a, b))


def combination_identity(k: int) -> tuple[bool, Fraction | None]:
    """Exact check of the Q_k and W_k closed forms against their P_k combinations.

    Returns (Q_k == (2^2k + 1) P(z) - 2^2k P(z/2) - P(2z) coefficientwise,
    the scalar s with W_k == s ((2^(2k-1) + 2) P(z) - 2^2k P(z/2) - P(2z)),
    or None when no single scalar fits; s is 2 for every k).
    """
    q_match = _scaled_equal(build_Q(k).coeffs, _combine_P(k, Fraction((1 << (2 * k)) + 1)),
                            Fraction(1))
    w = build_W(k).coeffs
    comb = _combine_P(k, Fraction((1 << (2 * k - 1)) + 2))
    pivot = next(j for j, c in enumerate(comb) if c.a)
    scalar = w[pivot].a / comb[pivot].a
    return q_match, (scalar if _scaled_equal(w, comb, scalar) else None)
