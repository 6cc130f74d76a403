"""Exact kernel: independent oracles, classical bounds, convolution identities."""

import inspect
import math
import threading
from fractions import Fraction

import pytest
from mpmath import libmp

from circlezero import enclosure, exact
from circlezero.enclosure import pi_power_bounds
from circlezero.errors import CapacityError, DomainError
from circlezero.exact import (
    BernoulliTable,
    EulerTable,
    bernoulli,
    bernoulli_half_value,
    binomial,
    check_bernoulli_bounds,
    check_euler_bounds,
    euler,
    secant_numbers,
    tangent_numbers,
    zeta_even_rational,
)

HALF = Fraction(1, 2)


def bernoulli_poly_special(n: int, point: Fraction) -> Fraction:
    """B_n(x) at x in {0, 1/2, 1}, for all n >= 0 (B_1(0) = -1/2, B_1(1) = 1/2;
    odd-index values above 1 vanish at all three points)."""
    assert point in (0, HALF, 1)
    if n == 1:
        return point - HALF
    if n % 2 == 1:
        return Fraction(0)
    return bernoulli_half_value(n) if point == HALF else Fraction(bernoulli(n))


def euler_poly_special(n: int, point: Fraction) -> Fraction:
    """E_n(x) at x in {1/2, 1}: E_n(1/2) = E_n / 2^n, and for n >= 1
    E_n(1) = 2 (2^(n+1) - 1) B_(n+1) / (n+1)."""
    assert point in (HALF, 1)
    if point == HALF:
        return Fraction(0) if n % 2 else Fraction(euler(n), 1 << n)
    if n == 0:
        return Fraction(1)
    return Fraction(2 * ((1 << (n + 1)) - 1), n + 1) * bernoulli_poly_special(n + 1, Fraction(0))


def bernoulli_recurrence_oracle(n_max: int) -> list[Fraction]:
    """B_0..B_n via sum_{j<=m} C(m+1, j) B_j = 0 (first convention, B_1 = -1/2)."""
    b = [Fraction(1)]
    for m in range(1, n_max + 1):
        s = sum(Fraction(math.comb(m + 1, j)) * b[j] for j in range(m))
        b.append(-s / (m + 1))
    return b


def euler_zigzag_oracle(n_max: int) -> list[int]:
    """E_0, E_2, ... via the boustrophedon (zigzag) triangle:
    T(n, k) = T(n, k-1) + T(n-1, n-k), zigzag number a(n) = T(n, n)."""
    prev = [1]
    a = [1]
    for n in range(1, 2 * n_max + 1):
        row = [0] * (n + 1)
        for k in range(1, n + 1):
            row[k] = row[k - 1] + prev[n - k]
        a.append(row[n])
        prev = row
    return [a[2 * m] if m % 2 == 0 else -a[2 * m] for m in range(n_max + 1)]


def test_bernoulli_examples():
    assert bernoulli(0) == 1
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_against_recurrence_oracle():
    oracle = bernoulli_recurrence_oracle(80)
    for n in range(0, 81, 2):
        assert bernoulli(n) == oracle[n]


def test_tangent_numbers_small():
    assert tangent_numbers(5) == [1, 2, 16, 272, 7936]


def test_secant_numbers_small():
    assert secant_numbers(4) == [1, 1, 5, 61, 1385]


def test_euler_examples():
    assert euler(0) == 1
    assert euler(4) == 5
    assert euler(6) == -61


def test_euler_against_zigzag_oracle():
    oracle = euler_zigzag_oracle(30)
    for half in range(31):
        assert euler(2 * half) == oracle[half]


def test_euler_against_binomial_recurrence():
    # sum_j C(2n, 2j) E_2j = 0 for n >= 1
    for n in range(1, 40):
        total = sum(math.comb(2 * n, 2 * j) * euler(2 * j) for j in range(n + 1))
        assert total == 0


def test_sign_laws():
    for n in range(1, 60):
        assert (bernoulli(2 * n) > 0) == (n % 2 == 1)
        assert (euler(2 * n) > 0) == (n % 2 == 0)


def test_binomial():
    assert binomial(4, 2) == 6
    assert binomial(6, 2) == 15
    assert binomial(20, 10) == 184756
    # Pascal recurrence oracle
    for n in range(2, 30):
        for k in range(1, n):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)
    with pytest.raises(DomainError):
        binomial(3, 5)


def test_zeta_even_rational():
    assert zeta_even_rational(1) == Fraction(1, 6)
    assert zeta_even_rational(2) == Fraction(1, 90)
    assert zeta_even_rational(3) == Fraction(1, 945)
    for n in range(1, 30):
        assert zeta_even_rational(n) > 0


def test_bernoulli_half_value():
    assert bernoulli_half_value(2) == Fraction(-1, 12)
    assert bernoulli_half_value(4) == Fraction(7, 240)
    assert bernoulli_half_value(0) == 1


def test_bernoulli_convolution_identity():
    # sum_j C(n,j) B_j(v) B_{n-j}(w) = n(w+v-1) B_{n-1}(v+w) - (n-1) B_n(v+w)
    points = [(Fraction(0), Fraction(0)), (Fraction(0), HALF),
              (HALF, Fraction(0)), (HALF, HALF)]
    for n in range(1, 41):
        for v, w in points:
            lhs = sum(Fraction(math.comb(n, j))
                      * bernoulli_poly_special(j, v)
                      * bernoulli_poly_special(n - j, w)
                      for j in range(n + 1))
            s = v + w
            rhs = (n * (s - 1) * bernoulli_poly_special(n - 1, s)
                   - (n - 1) * bernoulli_poly_special(n, s))
            assert lhs == rhs, (n, v, w)


def test_euler_convolution_identity():
    # sum_j C(n,j) E_j(1/2) E_{n-j}(1/2) = 2(1-1) E_n(1) + 2 E_{n+1}(1)
    for n in range(0, 41):
        lhs = sum(Fraction(math.comb(n, j))
                  * euler_poly_special(j, HALF)
                  * euler_poly_special(n - j, HALF)
                  for j in range(n + 1))
        rhs = 2 * euler_poly_special(n + 1, Fraction(1))
        assert lhs == rhs, n


def test_bernoulli_bounds():
    for n in (1, 5, 100):
        assert check_bernoulli_bounds(n) == (True, True)
    for n in range(1, 30):
        assert check_bernoulli_bounds(n) == (True, True)


def test_euler_bounds():
    for n in (1, 3, 50):
        assert check_euler_bounds(n)
    for n in range(1, 30):
        assert check_euler_bounds(n)


def _pi_power_bracket_holds(ns=range(1, 130), widths=(64, 128, 300)) -> bool:
    """pi_power_bounds(n, W) = (L, U, x) against mpmath's pi 64 bits finer,
    rounded down and up: L 2^(x - nW) <= pi_lo^n and pi_hi^n <= U 2^(x - nW),
    compared in exact integers."""
    def le(a, ea, b, eb):   # a 2^ea <= b 2^eb
        m = min(ea, eb)
        return a << (ea - m) <= b << (eb - m)

    for W in widths:
        (_, ml, el, _), (_, mh, eh, _) = (libmp.mpf_pi(W + 64, rnd) for rnd in "fc")
        for n in ns:
            L, U, x = pi_power_bounds(n, W)
            if not (le(L, x - n * W, ml ** n, n * el) and le(mh ** n, n * eh, U, x - n * W)):
                return False
    return True


def test_pi_bounds_bracket():
    # the bracket of the bound suites and lambda_k holds pi^n, and is narrow:
    # ln(U/L) < 2^(bit_length(n) + 4 - W)
    assert _pi_power_bracket_holds()
    for n in (1, 2, 3, 64, 401):
        L, U, x = pi_power_bounds(n, 128)
        assert (U - L) << (128 - n.bit_length() - 5) < L, n
    L, U, x = pi_power_bounds(1, 128)
    lo, hi = Fraction(L << x, 1 << 128), Fraction(U << x, 1 << 128)
    assert Fraction(314159, 100000) < lo < hi < Fraction(314160, 100000)
    assert hi - lo < Fraction(1, 10 ** 30)


@pytest.mark.parametrize("old,new", [("L >> d", "-(-L >> d)"), ("-(-U >> d)", "U >> d"),
                                     ("lo >> d", "-(-lo >> d)"), ("-(-hi >> d)", "hi >> d")])
def test_pi_bracket_fails_with_one_rounding_flipped(old, new, monkeypatch):
    # each directed rounding of _pow_bounds is needed: floor a lower end or
    # ceil an upper one the other way, and the bracket check above fails
    source = inspect.getsource(enclosure._pow_bounds)
    assert source.count(old) == 1
    namespace = {}
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(enclosure, "_pow_bounds", namespace["_pow_bounds"])
    assert not _pi_power_bracket_holds()


def test_table_cap():
    t = BernoulliTable(cap=10)
    assert t.value(10) == bernoulli(10)
    assert len(t._values) == 6 and len(t._column) == 5  # B_0..B_10, nothing past B_10
    with pytest.raises(CapacityError):
        t.value(12)
    assert len(t._values) == 6 and len(t._column) == 5
    e = EulerTable(cap=8)
    assert e.value(8) == euler(8)
    assert len(e._values) == 5 and len(e._column) == 4
    with pytest.raises(CapacityError):
        e.value(10)
    assert len(e._values) == 5 and len(e._column) == 4
    fresh = EulerTable(cap=8)
    with pytest.raises(CapacityError):
        fresh.value(10)
    assert fresh._values == [1] and fresh._column == []


TABLES = [(BernoulliTable, "tangent_numbers", tangent_numbers(150)),
          (EulerTable, "secant_numbers", secant_numbers(150)[1:])]


@pytest.mark.parametrize("make, name, scratch", TABLES)
def test_table_grows_each_column_once(monkeypatch, make, name, scratch):
    """Every growth path yields the numbers of one from-scratch call, and the
    columns computed across all requests total the index asked, 150."""
    returned = []
    original = getattr(exact, name)

    def counted(m, column=None):
        new = original(m, column)
        returned.append(new)
        return new

    monkeypatch.setattr(exact, name, counted)
    tables = []
    for halves in (range(1, 151), (40, 90, 60, 150), (150,)):
        returned.clear()
        table = make()
        values = [table.value(2 * h) for h in halves]
        assert sum(map(len, returned)) == 150
        assert [x for new in returned for x in new] == scratch
        assert values[-1] == table._values[150] and len(table._values) == 151
        tables.append(table._values)
    assert tables[0] == tables[1] == tables[2]


@pytest.mark.parametrize("make, name", [(make, name) for make, name, _ in TABLES])
def test_interrupted_growth_leaves_table_unchanged(monkeypatch, make, name):
    table = make()
    table.value(2 * 40)
    before = (list(table._values), list(table._column))
    original = getattr(exact, name)

    def interrupted(m, column=None):
        original(m, column)  # grows the column it is given, then fails
        raise KeyboardInterrupt

    monkeypatch.setattr(exact, name, interrupted)
    with pytest.raises(KeyboardInterrupt):
        table.value(2 * 90)
    assert (table._values, table._column) == before
    monkeypatch.setattr(exact, name, original)
    table.value(2 * 90)
    reference = make()
    reference.value(2 * 90)
    assert table._values == reference._values and table._column == reference._column


@pytest.mark.parametrize("make", [BernoulliTable, EulerTable])
def test_concurrent_growth_matches_sequential(make):
    table = make()
    barrier = threading.Barrier(2)

    def grow(half):
        barrier.wait()
        table.value(2 * half)

    threads = [threading.Thread(target=grow, args=(h,)) for h in (300, 120)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    sequential = make()
    sequential.value(2 * 120)
    sequential.value(2 * 300)
    assert table._values == sequential._values
    assert table._column == sequential._column


def test_odd_indices_rejected():
    with pytest.raises(DomainError):
        bernoulli(3)
    with pytest.raises(DomainError):
        euler(5)
