"""Exact integer/rational kernel.

Bernoulli numbers B_2n (tangent-number scheme), Euler numbers E_2n
(secant-number scheme), binomials, the rational r_n with zeta(2n) = r_n pi^2n,
and the classical two-sided bounds on |B_2n| and |E_2n|, checked against
integer enclosures of the powers of pi.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from . import fixed
from .enclosure import escalate
from .errors import CapacityError, DomainError, PrecisionError

DEFAULT_CAP = 4096


def _extend_column(m: int, column: list[int], shift: int) -> list[int]:
    """Grow the last column h_j = column (j = len(column)) of a Brent-Harvey
    triangle to h_m in place and return its new last entries, j+1..m.

    Column j is h_j[0] = (j - shift)!, h_j[i] = (j-i-shift) h_(j-1)[i] + (j-i+1) h_j[i-1]
    for i = 1..j-1, with h_(j-1)[j-1] read as h_(j-1)[j-2]; its number is h_j[j-1].
    """
    out = []
    for j in range(len(column) + 1, m + 1):
        column.append(column[-1] if column else 1)
        prev = column[0] = column[0] * max(j - shift, 1)
        for i in range(1, j):
            prev = column[i] = (j - i - shift) * column[i] + (j - i + 1) * prev
        out.append(prev)
    return out


def tangent_numbers(m: int, column: list[int] | None = None) -> list[int]:
    """Tangent numbers [T_1, ..., T_m], integer arithmetic only.

    tan x = sum_{n>=1} T_n x^(2n-1)/(2n-1)!; T = 1, 2, 16, 272, ...
    Given the last column of an earlier call (initially []), grows it in place
    and returns T_(len(column)+1), ..., T_m only.
    """
    return _extend_column(m, [] if column is None else column, 1)


def secant_numbers(m: int, column: list[int] | None = None) -> list[int]:
    """Secant numbers [S_0, ..., S_m]: sec x = sum S_n x^(2n)/(2n)!. Given a
    column, grows it in place and returns S_(len(column)+1), ..., S_m only."""
    return [1] + _extend_column(m, [], 0) if column is None else _extend_column(m, column, 0)


class EvenIndexTable:
    """Exact X_0, X_2, X_4, ... of one even-index sequence, computed once per process.

    A request for X_n grows the table to n and no further: `numbers(m, column)`
    (tangent or secant numbers) continues its recurrence from the last column
    kept, so every number is computed once, and `convert(i, x)` turns the i-th
    into X_2i. Values and column are committed together after the call returns,
    so an interrupted growth leaves the table as it was. Indices above `cap` raise.
    """

    def __init__(self, name: str, numbers, convert, cap: int = DEFAULT_CAP):
        self.name, self.cap = name, cap
        self._numbers, self._convert = numbers, convert
        self._values = [convert(0, 1)]
        self._column: list[int] = []
        self._lock = threading.Lock()

    def value(self, n: int) -> Fraction | int:
        if n < 0 or n % 2 != 0:
            raise DomainError(f"{self.name} table holds even indices only, got {n}")
        if n > self.cap:
            raise CapacityError(f"{self.name} index {n} above cap {self.cap}")
        half = n // 2
        if half >= len(self._values):
            with self._lock:
                if half >= len(self._values):
                    column = list(self._column)  # grown as a copy, committed below
                    new = self._numbers(half, column)
                    start = len(self._values)
                    values = self._values + [self._convert(start + i, x) for i, x in enumerate(new)]
                    self._values, self._column = values, column
        return self._values[half]


def _bernoulli_from_tangent(i: int, t: int) -> Fraction:
    """B_2i = (-1)^(i-1) * 2i * T_i / (2^2i (2^2i - 1)), and B_0 = 1."""
    if i == 0:
        return Fraction(1)
    p = 1 << (2 * i)
    b = Fraction(2 * i * t, p * (p - 1))
    return b if i % 2 == 1 else -b


# The recurrences are looked up at call time, so a wrapper installed on the
# module functions (the benchmark's spans) sees every growth.
def BernoulliTable(cap: int = DEFAULT_CAP) -> EvenIndexTable:
    """B_0, B_2, ... as exact Fractions, from the tangent numbers."""
    return EvenIndexTable("Bernoulli", lambda m, column: tangent_numbers(m, column),
                          _bernoulli_from_tangent, cap)


def EulerTable(cap: int = DEFAULT_CAP) -> EvenIndexTable:
    """E_0, E_2, ... as exact integers, E_2i = (-1)^i S_i."""
    return EvenIndexTable("Euler", lambda m, column: secant_numbers(m, column),
                          lambda i, s: -s if i % 2 else s, cap)


_BERNOULLI = BernoulliTable()
_EULER = EulerTable()


def bernoulli(n: int) -> Fraction:
    """B_n for even n >= 0, exact."""
    return _BERNOULLI.value(n)


def euler(n: int) -> int:
    """E_n for even n >= 0, exact."""
    return _EULER.value(n)


def binomial(n: int, k: int) -> int:
    """C(n, k) for 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        raise DomainError(f"binomial({n}, {k}) outside 0 <= k <= n")
    return math.comb(n, k)


def zeta_even_rational(n: int) -> Fraction:
    """The positive rational r with zeta(2n) = r * pi^(2n)."""
    if n < 1:
        raise DomainError(f"zeta_even_rational needs n >= 1, got {n}")
    sign = 1 if n % 2 == 1 else -1
    r = sign * bernoulli(2 * n) * Fraction(1 << (2 * n - 1), math.factorial(2 * n))
    assert r > 0
    return r


def bernoulli_half_value(n: int) -> Fraction:
    """B_n(1/2) = (2^(1-n) - 1) B_n for even n (and B_0(1/2) = 1)."""
    if n == 0:
        return Fraction(1)
    if n < 0 or n % 2 != 0:
        raise DomainError(f"bernoulli_half_value needs even n >= 0, got {n}")
    return (Fraction(2) ** (1 - n) - 1) * bernoulli(n)


def _pi_power_sides(value: Fraction, num: Fraction, power: int, scales: tuple,
                    bits: int, what: str) -> list[int]:
    """For each s in scales: +1 if value > num / (pi^power s) is certified, -1
    if value < it, for positive value, num and s: the side of 1 that
    value s pi^power / num is on, read from its `fixed.pi_multiples` pair at
    each precision of the escalation, one pi bracket for all the scales.
    Only a side still undecided is taken again at the next precision."""
    ratios = [value * s / num for s in scales]
    sides = [0] * len(scales)

    def attempt(prec: int) -> tuple[bool, list[int]]:
        todo = [i for i, side in enumerate(sides) if not side]
        for i, (v, e) in zip(todo, fixed.pi_multiples([ratios[i] for i in todo], power, prec)):
            sides[i] = (v - e > 1 << prec) - (v + e < 1 << prec)
        return 0 not in sides, sides

    decided, sides = escalate(attempt, bits)
    if not decided:
        raise PrecisionError(f"{what} bound comparison indeterminate")
    return sides


def check_bernoulli_bounds(n: int, bits: int = 128) -> tuple[bool, bool]:
    """Certify the classical sandwich and the sharper lower bound for |B_2n|.

    classical: 2(2n)!/(2pi)^2n < |B_2n| < 2(2n)!/((2pi)^2n (1 - 2^(1-2n)))
    sharper:   |B_2n| > 2(2n)!/((2pi)^2n (1 - 2^(-2n)))

    Returns (classical_holds, sharper_holds); raises PrecisionError if a
    comparison stays indeterminate after the precision escalation.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    lower, upper, sharper = _pi_power_sides(
        abs(bernoulli(2 * n)), Fraction(2 * math.factorial(2 * n), 4 ** n), 2 * n,
        (1, 1 - Fraction(2) ** (1 - 2 * n), 1 - Fraction(2) ** (-2 * n)), bits,
        f"Bernoulli B_{2 * n}")
    return lower > 0 and upper < 0, sharper > 0


def check_euler_bounds(n: int, bits: int = 128) -> bool:
    """Certify 4^(n+1)(2n)!/pi^(2n+1) > |E_2n| > same/(1 + 3^(-1-2n))."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    upper, lower = _pi_power_sides(
        Fraction(abs(euler(2 * n))), Fraction((1 << (2 * (n + 1))) * math.factorial(2 * n)),
        2 * n + 1, (1, 1 + Fraction(1, 3 ** (1 + 2 * n))), bits, f"Euler E_{2 * n}")
    return upper < 0 and lower > 0
