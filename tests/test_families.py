"""Family constructions: golden coefficients, symmetry, exact identities,
ball evaluation, |P(iz)|^2 expansion, serialization."""

import json
import math
import random
from fractions import Fraction

import pytest
from mpmath import libmp, mp
from mpmath.libmp import from_man_exp

from circlezero import families
from circlezero.criteria import abs_square_coeffs, abs_square_poly
from circlezero.enclosure import ComplexEnclosure, RealEnclosure, lambda_k
from circlezero.errors import DomainError
from circlezero.exact import bernoulli, binomial, euler
from circlezero.families import (
    FAMILIES,
    FamilyPoly,
    ZetaCoefficient,
    build_family,
    build_P,
    build_Q,
    build_R,
    build_S,
    build_W,
    build_Y,
    combination_identity,
    s_at_one,
    y_coeff_sum,
)
from circlezero.verify import verify_family

F = Fraction


def test_zeta_coefficient_ring():
    a = ZetaCoefficient(F(1, 2), F(3), F(0))
    b = ZetaCoefficient(F(2), F(-1), F(0))
    assert (a + b).a == F(5, 2)
    prod = a * b
    assert prod.a == 1 and prod.b == F(11, 2) and prod.c == -3
    lam2 = ZetaCoefficient(F(0), F(0), F(1))
    with pytest.raises(DomainError):
        _ = lam2 * ZetaCoefficient.lam()  # would be lam^3


def test_S_golden():
    assert [c.a for c in build_S(1).coeffs] == [-1, -1]
    assert [c.a for c in build_S(2).coeffs] == [5, 6, 5]
    # all coefficients share sign (-1)^k
    for k in range(1, 20):
        sign = -1 if k % 2 else 1
        assert all(sign * c.a > 0 for c in build_S(k).coeffs)


def test_P2_matches_zeta3_polynomial():
    # -90 * p_2(z) reproduces z^4 + 5 z^2 + 1 - (90 zeta3/pi^3)(z^3 + z)
    p2 = build_P(2)
    assert p2.pi_power == 3
    assert [p2.coeffs[j].a * -90 for j in (0, 2, 4)] == [1, 5, 1]
    assert p2.coeffs[1] == ZetaCoefficient.lam(1)
    assert p2.coeffs[3] == ZetaCoefficient.lam(1)
    assert p2.coeffs[2 * 2 - 1].triple() == ["0/1", "1/1", "0/1"]


def test_P_self_inversive_random_points():
    # z^2k P_k(1/z) = (-1)^k P_k(z) at random unit-circle points
    k = 3
    p = build_P(k)
    bits = 128
    rng = random.Random(7)
    for _ in range(20):
        theta = F(rng.randrange(1, 997), 997)
        pi = RealEnclosure.pi(bits)
        from circlezero.enclosure import ball_cos_sin
        c, s = ball_cos_sin(pi * theta * 2)
        z = ComplexEnclosure(c, s)
        zinv = ComplexEnclosure(c, -s)  # 1/z = conj(z) on the circle
        lhs = z.pow_int(2 * k) * p.eval_ball(zinv, bits)
        rhs = p.eval_ball(z, bits) * p.epsilon
        assert (lhs - rhs).contains_zero()


def test_Q2_golden():
    q2 = build_Q(2)
    assert q2.coeffs[2].a == F(-1, 2)
    assert q2.coeffs[1].b == 7 and q2.coeffs[3].b == 7
    # z^1 coefficient is (-1)^k (2^(2k-1) - 1) lam for general k
    for k in (2, 3, 7):
        q = build_Q(k)
        want = F((-1) ** k * ((1 << (2 * k - 1)) - 1))
        assert q.coeffs[1].b == want


def test_W2_golden():
    w2 = build_W(2)
    r0 = w2.coeffs[0].a
    assert [c.a / r0 for c in w2.coeffs[::2]] == [1, F(-10, 7), 1]
    assert all(c.is_rational() for c in w2.coeffs)
    assert combination_identity(2) == (True, 2)


def test_Y_golden():
    assert [c.a for c in build_Y(2).coeffs] == [0, F(1, 16), 0]
    assert [c.a for c in build_Y(3).coeffs] == [0, F(-1, 192), F(-1, 192), 0]
    assert build_Y(2).pi_power == 4


def test_Y_symmetrization_consistency():
    # pi/2^2k (Q_k(i sqrt(z)) + Q_k(-i sqrt(z))) equals the closed form,
    # checked at random positive rational z in enclosure arithmetic
    k = 4
    bits = 160
    q = build_Q(k)
    y = build_Y(k)
    rng = random.Random(11)
    pi = RealEnclosure.pi(bits)
    for _ in range(20):
        z = F(rng.randrange(1, 400), rng.randrange(1, 400))
        sq = RealEnclosure.exact(z, bits).sqrt()
        zi = ComplexEnclosure(RealEnclosure.exact(0, bits), sq)
        vals = q.eval_ball(zi, bits) + q.eval_ball(-zi, bits)
        # normalized: Q carries pi^(2k-1); Y carries pi^(2k); the pi/2^2k
        # prefactor closes the gap
        lhs = vals * F(1, 1 << (2 * k))
        rhs = ComplexEnclosure.from_real(y.eval_ball(ComplexEnclosure.exact(z, 0, bits), bits).re)
        assert (lhs - rhs).contains_zero()


def test_R_conventions():
    r1 = build_R(1)
    assert [c.a for c in r1.coeffs[::2]] == [F(-1, 720), F(1, 144), F(-1, 720)]
    assert r1.self_inversive_ok()


def test_self_inversive_symmetry_all_families():
    for k in range(2, 61, 7):
        for fam in "RPQYWS":
            poly = build_family(fam, k)
            assert poly.self_inversive_ok(), (fam, k)
            want_eps = (-1) ** k if fam in "PQW" else 1
            assert poly.epsilon == want_eps, (fam, k)


def test_combination_vs_closed_form_exact():
    for k in range(2, 61, 6):
        assert combination_identity(k) == (True, 2), k


def test_combination_identity_detects_mismatch(monkeypatch):
    def perturbed(build):
        def wrapped(k):
            p = build(k)
            coeffs = list(p.coeffs)
            coeffs[2] = coeffs[2] + ZetaCoefficient.rational(F(1, 7))
            return FamilyPoly(p.family, p.k, p.pi_power, tuple(coeffs), p.epsilon, p.note)
        return wrapped

    monkeypatch.setattr(families, "build_Q", perturbed(build_Q))
    assert combination_identity(5) == (False, 2)
    monkeypatch.setattr(families, "build_W", perturbed(build_W))
    assert combination_identity(5) == (False, None)


def _reference_even_coeffs(family: str, k: int) -> list[Fraction]:
    """The rational coefficients from the closed forms with factorials and
    binomials per coefficient: Q, W at z^2j, Y at z^j, R at z^2j."""
    fact = math.factorial(2 * k)
    out = []
    if family == "R":
        for j in range(k + 2):
            out.append(bernoulli(2 * j) * bernoulli(2 * k + 2 - 2 * j)
                       / (math.factorial(2 * j) * math.factorial(2 * k + 2 - 2 * j)))
        return out
    for j in range(k + 1):
        base = bernoulli(2 * j) * bernoulli(2 * k - 2 * j) * binomial(2 * k, 2 * j) / fact
        sign = -1 if j % 2 else 1
        if family == "Q":
            out.append(F(1 << (2 * k - 1)) * sign * base
                       * ((1 << (2 * j)) - 1) * ((1 << (2 * k - 2 * j)) - 1))
        elif family == "W":
            out.append(F(1 << (4 * k - 1)) * sign * base
                       * (1 - F(2) ** (1 - 2 * j)) * (1 - F(2) ** (1 - 2 * k + 2 * j)))
        else:
            out.append(base * ((1 << (2 * j)) - 1) * ((1 << (2 * k - 2 * j)) - 1))
    return out


def test_builders_match_factorial_closed_forms():
    # the builders take B_2j/(2j)! from one cached table and mirror the
    # symmetric half; every coefficient equals the factorial/binomial form
    for k in range(1, 121):
        got = build_R(k).coeffs
        assert [c.a for c in got[::2]] == _reference_even_coeffs("R", k), k
        assert not any(c.b for c in got) and all(c.is_zero() for c in got[1::2]), k
        if k < 2:
            continue
        q, w, y = build_Q(k), build_W(k), build_Y(k)
        assert [c.a for c in q.coeffs[::2]] == _reference_even_coeffs("Q", k)[:k], k
        assert q.coeffs[1].b and q.coeffs[2 * k - 1].b
        assert all(c.is_zero() for c in q.coeffs[3:2 * k - 1:2]), k
        assert [c.a for c in w.coeffs[::2]] == _reference_even_coeffs("W", k), k
        assert all(c.is_zero() for c in w.coeffs[1::2]) and w.is_rational(), k
        assert [c.a for c in y.coeffs] == _reference_even_coeffs("Y", k), k
        assert y.is_rational(), k


def test_y_coeff_sum_identity():
    for k in range(2, 51):
        lhs, rhs = y_coeff_sum(k)
        assert lhs == rhs, k


def test_s_at_one_identity():
    for k in range(1, 51):
        lhs, rhs = s_at_one(k)
        assert lhs == rhs, k
    assert s_at_one(2) == (16, 16)


def test_origin_structure():
    for k in (2, 5, 10):
        assert build_Q(k).origin_multiplicity == 1
        assert build_Y(k).origin_multiplicity == 1
        assert build_P(k).origin_multiplicity == 0
        assert build_W(k).origin_multiplicity == 0
        assert build_S(k).origin_multiplicity == 0
    assert build_Y(2).strip_origin().degree == 0  # degenerate constant


def test_abs_square_structure():
    for k in (2, 3):
        A = abs_square_coeffs(k)
        assert len(A) == 4 * k + 1
        assert A[0].a == A[4 * k].a and A[0].is_rational()
        assert all(A[j].is_zero() for j in range(1, 4 * k, 2))
        # palindromic
        assert all((A[j] - A[4 * k - j]).is_zero() for j in range(4 * k + 1))
    A = abs_square_coeffs(2)
    assert A[0].a == F(1, 8100)
    assert (A[2].a, A[2].c) == (F(-1, 810), 1)
    assert (A[4].a, A[4].c) == (F(1, 300), -2)


def test_abs_square_numeric_consistency():
    # sum A_j z^j = |P_k(iz)|^2 at z = 0.37, k = 3 (real z)
    k, bits = 3, 192
    z = F(37, 100)
    A = abs_square_coeffs(k)
    lam = lambda_k(k, bits)
    acc = RealEnclosure.exact(0, bits)
    for j in reversed(range(len(A))):
        acc = acc * z + A[j].eval(lam)
    p = build_P(k)
    iz = ComplexEnclosure(RealEnclosure.exact(0, bits), RealEnclosure.exact(z, bits))
    val = p.eval_ball(iz, bits)
    # normalizations match: |p(iz)|^2 is pi^(4k-2)-normalized like A
    assert (val.abs2() - acc).contains_zero()


def test_serialization_deterministic():
    doc1 = json.dumps(build_Q(5).to_doc(), sort_keys=True)
    doc2 = json.dumps(build_Q(5).to_doc(), sort_keys=True)
    assert doc1 == doc2
    doc = build_S(2).to_doc()
    assert doc["coeffs"] == [["5/1", "0/1", "0/1"], ["6/1", "0/1", "0/1"], ["5/1", "0/1", "0/1"]]
    assert doc["pi_power"] == 0 and doc["epsilon"] == 1


def test_family_domain_errors():
    with pytest.raises(DomainError):
        build_P(1)
    with pytest.raises(DomainError):
        build_family("Z", 3)
    with pytest.raises(DomainError):
        build_S(0)


def _eager_P(k):
    """P_k as the eager exact build formed it, here with every c_2j from its
    own Bernoulli numbers and factorials (no mirror): the reference for the
    product form."""
    eps = -1 if k % 2 else 1
    coeffs = [families.ZERO_COEFF] * (2 * k + 1)
    for j in range(k + 1):
        coeffs[2 * j] = ZetaCoefficient.rational(
            F((-1) ** j << (2 * k - 1)) * bernoulli(2 * j) * bernoulli(2 * k - 2 * j)
            / (math.factorial(2 * j) * math.factorial(2 * k - 2 * j)))
    coeffs[1] = coeffs[1] + ZetaCoefficient.lam(eps)
    coeffs[2 * k - 1] = coeffs[2 * k - 1] + ZetaCoefficient.lam(1)
    return FamilyPoly("P", k, 2 * k - 1, tuple(coeffs), eps)


def _eager_S(k):
    """S_k as the eager exact build formed it, from its Euler numbers and
    binomials: the reference for the product form."""
    coeffs = tuple(ZetaCoefficient.rational(euler(2 * j) * euler(2 * k - 2 * j)
                                            * binomial(2 * k, 2 * j)) for j in range(k + 1))
    return FamilyPoly("S", k, 0, coeffs, 1)


def _product_forms():
    """(polynomial, its exact coefficients) for every product form, stripped
    Q and Y included; P's reference is `_eager_P`, S's is `_eager_S`, the
    others' are checked against the factorial closed forms above."""
    for k in [*range(2, 201), 999]:
        yield build_P(k), _eager_P(k).coeffs
    for k in [*range(1, 61), 200]:
        yield build_S(k), _eager_S(k).coeffs
    for fam in "RQWY":
        for k in [*range(FAMILIES[fam].min_k, 41), 77, 200]:
            p = build_family(fam, k)
            yield p, p.coeffs
            if p.origin_multiplicity:
                yield p.strip_origin(), p.strip_origin().coeffs


@pytest.mark.parametrize("prec", [128 + 32, 128 + 48], ids=["sign-count", "roots"])
def test_P_fixed_coefficients_enclose_exact(prec):
    # each integer C_j +- e_j, in units of 2^(emax - prec), contains the exact
    # c_j of every product form (lam's terms overlap a finer ball of lam), and
    # 2^emax bounds each |c_j|; the sign counter's first half is the same integers
    for p, exact in _product_forms():
        n = len(exact)
        emax, C, e = p.fixed_coefficients(prec, n)
        assert p.fixed_coefficients(prec, n // 2 + 1) == (emax, C[:n // 2 + 1], e[:n // 2 + 1])
        lam = lambda_k(p.k, prec + 64) if p.k >= 2 else None
        for j, c in enumerate(exact):
            ball = RealEnclosure(from_man_exp(C[j], emax - prec),
                                 from_man_exp(e[j], emax - prec), prec)
            if c.is_rational():
                assert ball.contains(c.a) and abs(c.a) < F(2) ** emax, (p.family, p.k, j)
            else:
                assert (ball - lam * c.b).contains_zero(), (p.family, p.k, j)
        assert max(e) <= 4 and max(abs(x) for x in C).bit_length() <= prec, (p.family, p.k)


def _deflate(p):
    """p(z) / (z + eps) by exact synthetic division, for an origin-stripped
    self-inversive p of odd degree: a reciprocal quotient with no product form."""
    n, eps = p.degree, p.epsilon
    q = [p.coeffs[n]]
    for c in reversed(p.coeffs[1:n]):
        q.append(c - q[-1] if eps > 0 else c + q[-1])
    q.reverse()
    return FamilyPoly(p.family, p.k, p.pi_power, tuple(q), +1)


def _generic_polys():
    return ([abs_square_poly(k) for k in range(2, 6)]
            + [_deflate(build_Y(k).strip_origin()) for k in (3, 11, 31)]
            + [_deflate(build_S(9))])


@pytest.mark.parametrize("prec", [160, 288])
def test_generic_fixed_coefficients_enclose_exact(prec):
    # every c_j of |P_k(iz)|^2 and of an exact deflated quotient lies in
    # 2^(emax - prec) (C_j +- e_j), 2^emax bounds every |c_j|, and a shorter
    # read gives the same integers; lam and lam^2 are taken at four times the precision
    for p in _generic_polys():
        n = len(p.coeffs)
        emax, C, e = p.fixed_coefficients(prec, n)
        assert p.fixed_coefficients(prec, n // 2 + 1) == (emax, C[:n // 2 + 1], e[:n // 2 + 1])
        unit = Fraction(2) ** (emax - prec)
        with mp.workprec(4 * prec):
            lam = mp.zeta(2 * p.k - 1) / mp.pi ** (2 * p.k - 1) if p.k >= 2 else 0
            for j, c in enumerate(p.coeffs):
                if c.is_rational():
                    assert abs(c.a - C[j] * unit) <= e[j] * unit, (p.family, p.k, j)
                    assert abs(c.a) < Fraction(2) ** emax, (p.family, p.k, j)
                else:
                    value = (mp.mpf(c.a.numerator) / c.a.denominator
                             + mp.mpf(c.b.numerator) / c.b.denominator * lam
                             + mp.mpf(c.c.numerator) / c.c.denominator * lam ** 2)
                    err = abs(value - mp.mpf(C[j]) * mp.mpf(unit.numerator) / unit.denominator)
                    assert err <= e[j] * mp.mpf(unit.numerator) / unit.denominator, (p.family, p.k, j)
                    assert abs(value) < mp.mpf(2) ** emax, (p.family, p.k, j)
        assert max(e) <= 2, (p.family, p.k)


def test_generic_fixed_coefficients_cover_the_whole_lam_ball(monkeypatch):
    # with a lam ball made 2^-40 wide, every coefficient with lam or lam^2, at
    # both ends of the ball, still lies in 2^(emax - prec)(C_j +- e_j)
    balls = {}

    def wide_lambda(k, bits):
        lam = lambda_k(k, bits)
        balls[k] = RealEnclosure(lam.mid, libmp.mpf_shift(libmp.mpf_abs(lam.mid), -40), lam.prec)
        return balls[k]

    monkeypatch.setattr(families, "lambda_k", wide_lambda)
    for p in [build_Q(k) for k in (2, 5, 12)] + [abs_square_poly(k) for k in (2, 3, 5)]:
        emax, C, e = p.fixed_coefficients(160, len(p.coeffs))
        m, r = (Fraction(*libmp.to_rational(x)) for x in (balls[p.k].mid, balls[p.k].rad))
        unit = Fraction(2) ** (emax - 160)
        for lam in (m - r, m + r):
            for j, c in enumerate(p.coeffs):
                value = c.a + c.b * lam + c.c * lam * lam
                assert abs(value - C[j] * unit) <= e[j] * unit, (p.family, p.k, j)
                assert abs(value) < Fraction(2) ** emax, (p.family, p.k, j)


@pytest.mark.parametrize("k", [*range(1, 61), 200, 999])
def test_P_lazy_coeffs_equal_eager_build(k):
    # for every product form with k <= 60 (P alone above): degree, origin
    # multiplicity, eps, symmetry and strip_origin match a generic FamilyPoly
    # built from the same exact coefficients, and P's and S's coefficients
    # match their eager builds
    for fam in "RPQWYS" if k <= 60 else "P":
        if k < FAMILIES[fam].min_k:
            continue
        p = build_family(fam, k)
        shape = (p.degree, p.origin_multiplicity, p.epsilon, p.self_inversive_ok())
        s = p.strip_origin()
        stripped = (s.degree, s.origin_multiplicity, s.epsilon, s.note)
        assert isinstance(s, families.ProductForm), (fam, k)
        # the exact coefficients are formed on first access only
        assert "coeffs" not in vars(p) and "coeffs" not in vars(s), (fam, k)
        ref = FamilyPoly(p.family, p.k, p.pi_power, p.coeffs, p.epsilon, p.note)
        assert shape == (ref.degree, ref.origin_multiplicity, ref.epsilon, ref.self_inversive_ok())
        rs = ref.strip_origin()
        assert stripped == (rs.degree, rs.origin_multiplicity, rs.epsilon, rs.note), (fam, k)
        assert s.to_doc() == rs.to_doc() and p.to_doc() == ref.to_doc(), (fam, k)
    if k >= 2:
        assert build_P(k).coeffs == _eager_P(k).coeffs
    if k <= 60:
        assert build_S(k).coeffs == _eager_S(k).coeffs


def test_P_sign_count_and_roots_form_no_exact_coefficient(monkeypatch):
    # the one exact former sees no call from the sign counter (P, Q, W, R, S
    # and Y, whose odd degrees divide out their forced zero in fixed point),
    # from S's criteria or from the roots route, and no S_k built on the way
    # holds exact coefficients afterwards
    calls, built = [], []
    orig, orig_S = families._b_product, families.build_S
    monkeypatch.setattr(families, "_b_product", lambda *a: calls.append(a) or orig(*a))
    monkeypatch.setattr(families, "build_S", lambda k: built.append(orig_S(k)) or built[-1])
    for k in (1, 2, 3, 10, 31, 51, 200):
        for method in ("sign-count", "criteria"):
            assert verify_family("S", k, method)[0].certified, (k, method)
    for k in (3, 12, 40):
        assert verify_family("S", k, "roots")[0].certified, k
    for k in (2, 3, 10, 51, 200, 999):
        assert verify_family("P", k, "sign-count")[0].certified, k
    sign_counts = {"Q": (2, 3, 10, 51), "W": (2, 3, 10, 51), "Y": (4, 10, 52, *range(3, 62, 2)),
                   "R": (1, 2, 10)}
    for fam, ks in sign_counts.items():
        for k in ks:
            assert verify_family(fam, k, "sign-count")[0].certified == (fam != "R"), (fam, k)
    for fam, k in (("P", 12), ("Q", 12), ("W", 11), ("Y", 13), ("R", 5)):
        assert verify_family(fam, k, "roots")[0].certified == (fam != "R"), (fam, k)
    assert calls == []
    assert len(built) == 17 and all("coeffs" not in vars(p) for p in built)
