"""The six polynomial families R, P, Q, Y, W, S and their exact structure.

Every family polynomial is stored pi-normalized: coefficients live in the ring
Q[lam] where lam = zeta(2k-1)/pi^(2k-1) is a formal generator, and `pi_power`
records the power of pi divided out.  The generator is only bound to a
certified enclosure at evaluation time, so coefficient identities stay exact.
What each family's build needs is one row of `FAMILIES`.  All six families
are one product form (`ProductForm`): every coefficient is a weight times
x_j x_(K-j), plus lam terms for P and Q, where x_j = B_2j / (2j)! with a
dyadic weight for R, P, Q, W and Y, and x_j = E_2j / (2j)! with the weight
(2k)! for S.  The sign, roots, criteria and oscillation routes read them as
integer products of a per-precision table of x_j, and the exact
coefficients are formed only when read.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable

from mpmath import libmp

from . import fixed
from .enclosure import ComplexEnclosure, RealEnclosure, lambda_k
from .errors import DomainError
from .exact import bernoulli, euler


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


def _magnitude(x: Fraction) -> int:
    """The least E with |x| < 2^E, for x != 0."""
    n, d = abs(x.numerator), x.denominator
    E = n.bit_length() - d.bit_length()
    # 2^(E-1) < |x| < 2^(E+1): one comparison decides between E and E + 1
    return E + 1 if (n >> E if E >= 0 else n << -E) >= d else E


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
        bounds every |c_j|.  The fixed-point input of the sign, roots,
        criteria and oscillation routes, formed from the exact coefficients
        with no ball.

        A coefficient a + b lam + c lam^2 is valued exactly at the midpoint m
        of lambda_k(k, prec), whose ball [m - r, m + r] holds lam; lam moving
        in it moves the value by at most R = |b| r + |c| (2|m| + r) r (R = 0
        for a rational coefficient).  emax is the least E with
        |value| + R < 2^E over all of them, C_j the floor of
        value 2^(prec - emax) (one floor division, within one unit) and
        e_j = ceil(R 2^(prec - emax)) + 1, or C_j = e_j = 0 for an exact 0,
        so that the integers show which coefficients vanish.
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
        C = [fixed.floor_shift(v, s) for v in values]
        e = [0 if c.is_zero() else 1 for c in coeffs]
        for j, R in radii.items():
            e[j] -= fixed.floor_shift(-R, s)
        return emax, C, e

    def eval_ball(self, z: ComplexEnclosure, bits: int) -> ComplexEnclosure:
        """Horner evaluation of the normalized polynomial (pi power NOT
        applied) in ball arithmetic at `bits`."""
        acc = ComplexEnclosure.exact(0, 0, bits)
        for c in reversed(self.coefficient_balls(bits)):
            acc = acc * z + ComplexEnclosure.from_real(c)
        return acc

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


def _b_product(sequence: Callable, j: int, i: int, weight: int = 1, shift: int = 0) -> Fraction:
    """x_j x_i weight 2^shift, x_j = X_2j / (2j)!, X = `sequence`, as one
    Fraction of integer products: the numerators and denominators of X_2j and
    X_2i, the two factorials and the weight, with one gcd and no intermediate
    Fraction.  Every exact coefficient of a product form is formed here."""
    bj, bi = sequence(2 * j), sequence(2 * i)
    num = bj.numerator * bi.numerator * weight
    den = bj.denominator * bi.denominator * math.factorial(2 * j) * math.factorial(2 * i)
    return Fraction(num << shift, den) if shift >= 0 else Fraction(num, den << -shift)


# (sequence, prec) -> [(a_j, f_j) for j = 0, 1, ...] with x_j in [a_j, a_j + 1)
# 2^f_j: one table per sequence and working precision, grown with the exact table
_B_FIXED: dict[tuple[Callable, int], list[tuple[int, int]]] = {}
_B_FIXED_LOCK = threading.Lock()


def _b_fixed(sequence: Callable, prec: int, n: int) -> list[tuple[int, int]]:
    """The table of x_j = X_2j / (2j)!, X = `sequence`, at `prec`, to j >= n.

    Entry j is the integer a_j = floor(x_j 2^-f_j) of prec + 8 or 9 bits, so
    x_j lies in [a_j, a_j + 1) 2^f_j: one floor division of X_2j's numerator
    by its denominator (1 for an Euler number) times (2j)!, with no gcd and
    no exact x_j formed."""
    table = _B_FIXED.setdefault((sequence, prec), [])
    if len(table) <= n:
        sequence(2 * n)  # grows the exact table in one step, not one per entry
        with _B_FIXED_LOCK:
            fact = math.factorial(2 * len(table))
            for j in range(len(table), n + 1):
                b = sequence(2 * j)
                den = b.denominator * fact
                f = abs(b.numerator).bit_length() - den.bit_length() - prec - 8
                table.append(((b.numerator << -f) // den, f))
                fact *= (2 * j + 1) * (2 * j + 2)
    return table


def _sign(n: int) -> int:
    return -1 if n % 2 else 1


def _dyadic_weight(k: int, j: int, t: int) -> int:
    """(4^j - t)(4^(k-j) - t).  t = 1 turns zeta(2j) into Dirichlet's
    lambda(2j), zero at j = 0 and j = k (Q, Y); t = 2 into eta(2j), times 4 (W)."""
    return ((1 << (2 * j)) - t) * ((1 << (2 * k - 2 * j)) - t)


# n! for the last n: S's weight (2k)!, read once per j, is computed once per k
_factorial = lru_cache(maxsize=1)(math.factorial)


@dataclass(frozen=True)
class FamilyRow:
    """Every fact about one family's build.

    Every row is a product form: c_(stride j) = w(k, j) x_j x_(K-j) for
    j = 0 .. K, K = k + partner, x_j = X_2j / (2j)! for the exact `sequence`
    X, with the weight w(k, j) = n 2^x returned as (n, x), and
    w(k, K - j) = eps w(k, j).  S reads the Euler numbers with w = (2k)!, the
    others the Bernoulli numbers with a dyadic weight.  A row with `lam` adds
    eps L lam at z^1 and L lam at z^(2k-1), L = lam(k).
    """

    min_k: int
    pi_power: Callable[[int], int]
    epsilon: Callable[[int], int]
    weight: Callable[[int, int], tuple[int, int]]
    sequence: Callable[[int], Fraction | int] = bernoulli
    partner: int = 0
    stride: int = 2
    lam: Callable[[int], int] | None = None
    note: str = ""


FAMILIES: dict[str, FamilyRow] = {
    "R": FamilyRow(1, lambda k: 0, lambda k: 1, lambda k, j: (1, 0), partner=1),
    "P": FamilyRow(2, lambda k: 2 * k - 1, _sign, lambda k, j: (_sign(j), 2 * k - 1),
                   lam=lambda k: 1),
    "Q": FamilyRow(2, lambda k: 2 * k - 1, _sign,
                   lambda k, j: (_sign(j) * _dyadic_weight(k, j, 1), 2 * k - 1),
                   lam=lambda k: (1 << (2 * k - 1)) - 1),
    "Y": FamilyRow(2, lambda k: 2 * k, lambda k: 1, lambda k, j: (_dyadic_weight(k, j, 1), 0),
                   stride=1),
    "W": FamilyRow(2, lambda k: 2 * k - 1, _sign,
                   lambda k, j: (_sign(j) * _dyadic_weight(k, j, 2), 2 * k - 1),
                   note="closed form = 2 x combination"),
    "S": FamilyRow(1, lambda k: 0, lambda k: 1, lambda k, j: (_factorial(2 * k), 0),
                   sequence=euler, stride=1),
}


class ProductForm(FamilyPoly):
    """A family member built from its `FAMILIES` row, divided by z^shift.

    The row fixes the degree, the origin multiplicity, eps and the symmetry
    c_(N-i) = eps c_i, N = stride K, so none of them reads a coefficient.
    The exact `coeffs` in Q[lam] are formed on first access, for the readers
    of exact values; `fixed_coefficients`, the input of the sign, roots,
    criteria and oscillation routes, forms none.
    """

    def __init__(self, family: str, k: int, shift: int = 0):
        row = FAMILIES[family]
        if k < row.min_k:
            raise DomainError(f"build_{family} needs k >= {row.min_k}, got {k}")
        K = k + row.partner
        row.sequence(2 * K)  # grows the exact table; raises past its cap
        note = f"{row.note} /z^{shift}".strip() if shift else row.note
        # c_0 = eps c_N vanishes only where w(k, 0) = 0 (Q, Y), and their z^1
        # term does not: the origin multiplicity m is 1 there, else 0
        m = 0 if row.weight(k, 0)[0] else 1
        for name, value in (("family", family), ("k", k), ("pi_power", row.pi_power(k)),
                            ("epsilon", row.epsilon(k)), ("note", note), ("shift", shift),
                            ("row", row), ("K", K), ("N", row.stride * K), ("m", m)):
            object.__setattr__(self, name, value)

    @property
    def degree(self) -> int:
        return self.N - self.m - self.shift

    @property
    def origin_multiplicity(self) -> int:
        return self.m - self.shift

    def strip_origin(self) -> FamilyPoly:
        m = self.origin_multiplicity
        return ProductForm(self.family, self.k, self.shift + m) if m else self

    def self_inversive_ok(self) -> bool:
        return True  # c_(N-i) = eps c_i by the definition

    @cached_property
    def coeffs(self) -> tuple[ZetaCoefficient, ...]:
        row, K, N = self.row, self.K, self.N
        full = [ZERO_COEFF] * (N + 1)
        # c_(N - stride j) = eps c_(stride j): compute the lower half, mirror the rest
        for j in range(K // 2 + 1):
            n, x = row.weight(self.k, j)
            if n:
                c = ZetaCoefficient.rational(_b_product(row.sequence, j, K - j, n, x))
                full[row.stride * j] = c
                full[N - row.stride * j] = c if self.epsilon > 0 else -c
        if row.lam:   # z^1 and z^(N-1) hold no product term
            L = row.lam(self.k)
            full[1], full[N - 1] = ZetaCoefficient.lam(self.epsilon * L), ZetaCoefficient.lam(L)
        # the tuple runs to z^N, as the sums are written, except that a lam
        # family and a stripped polynomial end at their degree
        end = N + 1 if row.lam is None and not self.shift else self.degree + self.shift + 1
        return tuple(full[self.shift:end])

    def fixed_coefficients(self, prec: int, count: int) -> tuple[int, list[int], list[int]]:
        """As `FamilyPoly.fixed_coefficients`, from integer products: with
        x_j in [a_j, a_j + 1) 2^f_j and w = n 2^x, the product term is
        (n a_j a_(K-j) + d) 2^(f_j + f_(K-j) + x) with
        |d| < |n| (|a_j| + |a_(K-j)| + 1), floored to the common unit.  The
        lam terms take lambda_k(k, prec) g bits finer, L <= 2^g, so that
        L (v +- e) shifted down g bits is within ceil(L e 2^-g) + 1 units
        (e itself when g = 0)."""
        row, K, N = self.row, self.K, self.N
        b = _b_fixed(row.sequence, prec, K)
        half = []   # (j, mantissa, its unit's exponent, error in that unit), j <= K/2
        for j in range(K // 2 + 1):
            n, x = row.weight(self.k, j)
            if n:
                (a, f), (a2, f2) = b[j], b[K - j]
                half.append((j, n * a * a2, f + f2 + x, abs(n) * (abs(a) + abs(a2) + 1)))
        emax = max((abs(v) + d).bit_length() + x for _, v, x, d in half)
        if row.lam:
            lam, L = lambda_k(self.k, prec), row.lam(self.k)
            g, top = (L - 1).bit_length(), libmp.mpf_add(libmp.mpf_abs(lam.mid), lam.rad)
            emax = max(emax, top[2] + top[3] + g)   # |L lam| <= 2^g (|mid| + rad)
        C, e = [0] * count, [0] * count
        for j, v, x, d in half:
            s = emax - prec - x   # > 0: a_j a_(K-j) has about 2 prec bits
            i = row.stride * j - self.shift
            # c_(N - stride j) = eps c_(stride j), floored on its own
            for i, w in ((i, v), (N - 2 * self.shift - i, self.epsilon * v)):
                if i < count:
                    C[i], e[i] = w >> s, (d >> s) + 2
        if row.lam:
            v, ev = fixed.from_ball(lam, prec - emax + g)
            v, ev = L * v >> g, -(-L * ev >> g) + (g > 0)
            for i, sign in ((1 - self.shift, self.epsilon), (N - 1 - self.shift, 1)):
                if i < count:
                    C[i], e[i] = sign * v, ev
        return emax, C, e


def build_R(k: int) -> FamilyPoly:
    """R_k: b_j b_(k+1-j) at z^2j over the full palindromic sum j = 0..k+1
    (degree 2k+2).  The paper prints the sum truncated at j = k-1, which is
    not palindromic."""
    return ProductForm("R", k)


def build_P(k: int) -> FamilyPoly:
    """P_k: (-1)^j 2^(2k-1) b_j b_(k-j) at z^2j, eps lam at z and lam at z^(2k-1)."""
    return ProductForm("P", k)


def build_Q(k: int) -> FamilyPoly:
    """Q_k: P_k's terms weighted by (4^j - 1)(4^(k-j) - 1) and 2^(2k-1) - 1;
    `combination_identity` checks it against (2^2k + 1) P(z) - 2^2k P(z/2) - P(2z)."""
    return ProductForm("Q", k)


def build_W(k: int) -> FamilyPoly:
    """W_k: P_k's z^2j terms weighted by (4^j - 2)(4^(k-j) - 2), no lam;
    2x the combination (2^(2k-1) + 2) P(z) - 2^2k P(z/2) - P(2z)."""
    return ProductForm("W", k)


def build_Y(k: int) -> FamilyPoly:
    """Y_k, pi-normalized by pi^(2k): b_j b_(k-j) (4^j - 1)(4^(k-j) - 1) at z^j."""
    return ProductForm("Y", k)


def build_S(k: int) -> FamilyPoly:
    """S_k: E_2j E_(2k-2j) C(2k,2j) = (2k)! e_j e_(k-j) at z^j, all of sign (-1)^k."""
    return ProductForm("S", k)


def _combine_P(k: int, scale_z1: Fraction) -> tuple[ZetaCoefficient, ...]:
    """c1*P(z) - 2^2k P(z/2) - P(2z) with c1 = scale_z1, coefficientwise."""
    p = build_P(k)
    out = []
    for j, c in enumerate(p.coeffs):
        factor = scale_z1 - Fraction(1 << (2 * k), 1 << j) - Fraction(1 << j)
        out.append(c * factor)
    return tuple(out)


def build_family(family: str, k: int) -> FamilyPoly:
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}")
    # looked up at call time, so rebinding a module-level builder reaches here
    return globals()[f"build_{family}"](k)


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
