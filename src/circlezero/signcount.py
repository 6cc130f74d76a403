"""Sign counting of a self-inversive polynomial on the unit circle.

For a self-inversive p of even degree 2m, g(theta) = e^(-i m theta) p(e^(i theta))
is a real cosine sum (eps = +1) or i times a real sine sum (eps = -1); its
certified sign changes on power-of-two grids theta = j pi / M, each grid one
fixed-point radix-2 transform with an a-priori budget, count the circle
zeros.  An odd degree first divides out its forced zero z = -eps once, in
the fixed point of p's own coefficients (`counted_form`, which the roots
seeder shares), so every degree takes this one route.  A quotient
coefficient may exceed the 2^emax that bounds p's, and the budget's proof
does not assume it does not.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from . import fixed
from .errors import DomainError, PrecisionError
from .families import ZERO_COEFF, FamilyPoly
from .reports import VerificationReport


def _first_grid(m: int) -> int:
    """The first grid of a degree-2m count: the smallest power of two
    >= max(ceil(9m/8), 32).  A certified count needs one certified point
    between neighbouring zeros, the endpoint signs of g(0) and g(pi)
    included, and the families' zeros are spread close to evenly over the
    circle, so a little over m points is enough in practice: of the P, Q,
    W, Y and S counts with k <= 2048 only P_27 (M = 32) falls short and
    doubles.  A short grid costs a doubling, never a wrong count.  The
    roots seeder, which needs a close bracket for each seed, keeps its own
    finer `roots._seed_grid`."""
    return 1 << (max((9 * m + 7) // 8, 32) - 1).bit_length()


def _half_dft(x: list[int], cos: tuple[int, ...], prec: int, imag: bool) -> list[int]:
    """The real part (imag false) or the imaginary part (imag true) of
    X_j = sum_r x_r e^(i pi r j / M) for j = 0 .. M, from the real integers
    x and `cos` = `fixed.cos_table(prec, M)`.

    A radix-2 decimation-in-time transform of length N = 2M, pruned and
    halved.  The node at stride d transforms the real subsequence
    x_s, x_(s+d), ... at length N / d; it is a plain copy of x_s when no entry
    after the first is nonzero, and otherwise combines its even and odd halves
    with the twiddles w^j = e^(2 pi i j d / N), read as cos[jd] and, for the
    sine, cos[jd - M/2].  A real input has a conjugate-symmetric transform, so
    each node keeps only j = 0 .. L, L = N / (2d), and one product
    t = w^j O_j gives X_j = E_j + t and X_(L-j) = conj(E_j - t).  Each
    product is floored to whole units of 2^-prec per component.  The top
    node forms only the component asked for, from the same two floored
    products, so each entry is the integer the full transform gives.
    """
    N = len(cos)
    quarter = N // 4

    def node(x: list[int], d: int) -> tuple[list[int], list[int]]:
        half = N // (2 * d)
        if not any(x[1:]):
            return [x[0] if x else 0] * (half + 1), [0] * (half + 1)
        # the even half is extended in place; going down in j, the odd half
        # is popped as it is used and every write at half - j >= j lands past
        # the even entries still to read, so a node holds ~N / d values
        re, im = node(x[0::2], 2 * d)
        o_r, oi = node(x[1::2], 2 * d)
        re += [0] * (half - half // 2)
        im += [0] * (half - half // 2)
        for j in range(half // 2, -1, -1):
            wr, wi = cos[j * d], cos[j * d - quarter]
            a, b = o_r.pop(), oi.pop()
            tr = (a * wr - b * wi) >> prec
            ti = (a * wi + b * wr) >> prec
            er, ei = re[j], im[j]
            re[j], im[j] = er + tr, ei + ti
            re[half - j], im[half - j] = er - tr, ti - ei
        return re, im

    M = N // 2
    if not any(x[1:]):
        return [0 if imag else x[0]] * (M + 1)
    re, im = node(x[0::2], 2)
    o_r, oi = node(x[1::2], 2)
    out = im if imag else re
    out += [0] * (M - M // 2)
    for j in range(M // 2, -1, -1):   # node's loop at d = 1, one component only
        wr, wi = cos[j], cos[j - quarter]
        a, b = o_r.pop(), oi.pop()
        e = out[j]
        if imag:
            t = (a * wi + b * wr) >> prec
            out[j], out[M - j] = e + t, t - e
        else:
            t = (a * wr - b * wi) >> prec
            out[j], out[M - j] = e + t, e - t
    return out


class _TrigEvaluator:
    """Certified fixed-point evaluation of g(theta) = sum_r q_r trig(r theta)
    on theta = j pi / M grids, for an origin-stripped self-inversive p of even
    degree n = 2m: q_0 = c_m, q_r = 2 c_(m-r) with trig = cos (eps = +1), or
    q_r = -2 c_(m-r) with trig = sin (eps = -1; c_m = 0 by the symmetry).
    `coefficients` = (E, C, e) holds c_0 .. c_m in fixed point at `prec`, as
    `counted_form` gives them: c_j = 2^(E - prec) (C_j +- e_j).  When p is
    the quotient of an odd-degree input, 2^E bounds the input's coefficients,
    and a quotient coefficient may exceed it, so |C_j| may exceed 2^prec; the
    budget below assumes no bound on |C_j|.  With emax = E + 1, each doubled 2 c_(m-r) is C_(m-r) +- e_(m-r) in units of
    2^(emax - prec), and c_m is C_m / 2 floored, within e_m / 2 + 1/2 units.

    `grid_values(M)` returns g(j pi / M) for j = 0 .. M, each within `budget`,
    in units of 2^(emax - prec).  The budget bounds the error of `_half_dft`
    on the fixed-point `terms` x_r, against y_r = 2^(prec - emax) q_r with
    |x_r - y_r| <= e_r:

    - a node is a combine only if some x_r with r = s + t d, t >= 1, r <= m is
      nonzero, so its stride d <= m and s <= m - d.  A root-to-leaf path
      meets the strides 1, 2, 4, ... <= m, so at most h = bit_length(m)
      combines, and there are at most sum_(d <= m) d <= 2m - 1 combines.
    - a copy node is off by at most the sum of e_r over its subsequence: the
      terms it drops have x_r = 0, so |y_r| <= e_r.
    - a twiddle is within tau = sqrt 2 TABLE_ERR 2^-prec of w, so
      |w~| <= 1 + tau.  A combine is then off by at most
      dE + (1 + tau) dO + tau |O| + sqrt 2, with dE, dO its halves' errors,
      |O| <= sum |y_r| over its odd half and sqrt 2 for the floored
      product; the conjugate branch is off by the same.
    - by induction on the height, the root is off by at most
      (1 + tau)^h (sum e_r + h tau sum |y_r| + sqrt 2 (2m - 1)).

    With sqrt 2 <= 3/2, |y_r| <= |x_r| + e_r and (1 + tau)^h <= 1 + 2 h tau
    (h tau <= 1), `budget` is an integer upper bound of that, the same for
    every grid.
    """

    def __init__(self, epsilon: int, coefficients: tuple[int, list[int], list[int]], prec: int):
        emax, C, E = coefficients
        m = len(C) - 1
        self.prec = prec
        self.emax = emax + 1  # g(theta) = 2^(emax - prec) * (grid value +- budget)
        if epsilon > 0:
            scaled = [(0, C[m] >> 1, (E[m] >> 1) + 1)] + [(r, C[m - r], E[m - r])
                                                          for r in range(1, m + 1)]
        else:
            scaled = [(r, -C[m - r], E[m - r]) for r in range(1, m + 1)]
        self.terms = [0] * (m + 1)   # x_r
        for r, c, _ in scaled:
            self.terms[r] = c
        self.use_sin = epsilon < 0
        h, err = m.bit_length(), sum(e for _, _, e in scaled)
        tau_num = 3 * fixed.TABLE_ERR   # tau <= tau_num / 2^(prec + 1)
        inner = (err + fixed.ceil_mul(tau_num * h, sum(abs(c) + e for _, c, e in scaled), prec + 1)
                 + 3 * m)
        self.budget = inner + fixed.ceil_mul(tau_num * h, inner, prec)

    def grid_values(self, M: int) -> list[int]:
        """g(j pi / M) for j = 0 .. M, each within `budget`: one `_half_dft`
        of the terms against the grid's cosine table.  The transform's
        length 2M must exceed m: at 2M <= m a node at stride 2M would hold
        two nonzero terms and no spectrum to combine them into."""
        m = len(self.terms) - 1
        if 2 * M <= m:
            raise DomainError(f"grid M = {M} too coarse for m = {m}: the transform needs 2M > m")
        return _half_dft(self.terms, fixed.cos_table(self.prec, M), self.prec, self.use_sin)


def counted_form(epsilon: int, n: int, coefficients: tuple[int, list[int], list[int]],
                 prec: int) -> tuple[_TrigEvaluator, int, list[int]]:
    """(ev, m, real) for an origin-stripped self-inversive p of degree n,
    whose symmetry c_(n-j) = eps c_j the caller has checked exactly: the
    `_TrigEvaluator` of the counted polynomial q, half of q's degree, and
    the real zeros of p that the sign changes of q's trig polynomial on
    (0, pi) do not count.  `coefficients` = (E, C, e) holds at least
    c_0 .. c_(n//2) in fixed point at prec, as
    `FamilyPoly.fixed_coefficients` gives them.

    For even n, q = p.  For odd n, the pairs c_j, c_(n-j) = eps c_j cancel
    at z = -eps, and q = p / (z + eps) is reciprocal of even degree n - 1:
    from c_0 = eps q_0 and c_j = q_(j-1) + eps q_j,
    q_j = eps (c_j - q_(j-1)), formed in the units of p's coefficients with
    error at most e_0 + ... + e_j.  The real zeros are -eps for odd n, and
    +1 and -1 when q has eps = -1, where the symmetry forces q(1) = q(-1) = 0.
    """
    emax, C, E = coefficients
    m = n // 2
    C, E = C[:m + 1], E[:m + 1]
    real = []
    if n % 2:
        real.append(-epsilon)
        Q = [epsilon * C[0]]
        for c in C[1:]:
            Q.append(epsilon * (c - Q[-1]))
        C, E, epsilon = Q, list(accumulate(E)), 1
    if epsilon < 0:
        real += [1, -1]
    return _TrigEvaluator(epsilon, (emax, C, E), prec), m, real


def _counted_vanishes(p: FamilyPoly, x: int) -> bool:
    """q(x) = 0 exactly in Q[lam], x = +-1, for the counted q of
    `counted_form`, read from p itself: q(x) = p(x) / (x + eps) away from an
    odd degree's forced zero, and q(-eps) = p'(-eps) at it."""
    if p.degree % 2 and x == -p.epsilon:
        return sum((c * (j * x ** (j - 1)) for j, c in enumerate(p.coeffs) if j),
                   ZERO_COEFF).is_zero()
    return p.eval_rational(Fraction(x)).is_zero()


def verify_by_sign_count(poly: FamilyPoly, bits: int = 128) -> VerificationReport:
    """Route a family polynomial through the sign counter.

    The symmetry c_(n-j) = eps c_j of the origin-stripped polynomial p is
    checked exactly first; every later step relies on it.  `counted_form`
    gives the counted polynomial q of degree 2m (p itself, or for odd n the
    quotient p / (z + eps)) and the real zeros it leaves out.  On the circle,
    e^(-i m theta) q(e^(i theta)) is g(theta) (eps = +1) or i g(theta)
    (eps = -1) for the real trig polynomial g of `_TrigEvaluator`, which
    vanishes exactly at the circle-zero angles of q.  Each grid
    theta = j pi / M, j = 0 .. M, is one transform (`grid_values`) with one
    budget, so every certified sign is the sign of g there.  The count reads
    the certified signs in order over the closed interval [0, pi], skipping
    zeros: each change between two neighbouring nonzero signs at
    theta_a < theta_b puts a zero of g in the open interval
    (theta_a, theta_b), inside (0, pi), and these intervals are disjoint, so
    each change is one conjugate pair of circle zeros of q other than +-1.
    When q has eps = +1, q(1) = g(0) and q(-1) = (-1)^m g(pi) take their
    certified signs from the first grid's transform and stay in the
    sequence; only an undecided sign runs the exact zero test in Q[lam]
    (`_counted_vanishes`), and a zero there counts in `boundary_zeros`, not
    as a change.  When q has eps = -1, g(0) = g(pi) = 0, so both signs are
    0 within the budget and the forced zeros count only among the real
    zeros of `counted_form`.  The grid starts at M = `_first_grid(m)`, the
    smallest power of two >= max(ceil(9m/8), 32), and doubles up to five
    times, which only costs time: a grid too coarse for the count leaves it
    short, never wrong.  A doubled grid is transformed whole but only its
    odd j are new, and the old index i, M included, becomes 2i.
    `boundary_zeros` counts q's zeros at +-1, `deflated` names an odd
    degree's forced zero, and `evaluations` counts the interior grid points
    whose sign was taken, M - 1, not arithmetic operations.
    """
    p = poly.strip_origin()
    if not p.self_inversive_ok():
        raise DomainError(f"{poly.family}_{poly.k}: c_(n-j) != {p.epsilon:+d} c_j, "
                          "not self-inversive")
    n = p.degree
    if n == 0 and p.coeffs[0].is_zero():
        raise DomainError(f"{p.family}_{p.k}: zero polynomial has no sign pattern")
    prec = bits + fixed.GUARD
    ev, m, real = counted_form(p.epsilon, n, p.fixed_coefficients(prec, n // 2 + 1), prec)
    boundary = len(real) - n % 2   # q's zeros at +-1
    M = changes = 0
    if m:   # a constant q has no zeros
        budget = ev.budget

        def signs_of(M: int) -> list[int]:   # certified signs of g(j pi / M), j = 0 .. M
            return [1 if v > budget else (-1 if v < -budget else 0) for v in ev.grid_values(M)]

        M = _first_grid(m)
        signs = signs_of(M)   # signs[j]: g(j pi / M) on the closed interval [0, pi]
        if not ev.use_sin:
            for point, j in ((1, 0), (-1, M)):
                if signs[j] == 0:
                    if not _counted_vanishes(p, point):
                        raise PrecisionError(f"boundary value indeterminate for {p.family}_{p.k}")
                    boundary += 1
        for grids in range(1, 7):
            seq = [s for s in signs if s]
            changes = sum(1 for a, b in zip(seq, seq[1:]) if a != b)
            if 2 * changes + boundary >= 2 * m or grids == 6:
                break
            M *= 2
            odd = signs_of(M)[1::2]
            # old index i is now 2i, the last (pi) included
            signs = [s for pair in zip(signs, odd) for s in pair] + signs[-1:]
    certified = 2 * changes + boundary >= 2 * m
    detail = {"grid": M, "changes": changes, "boundary_zeros": boundary, "factored": True,
              "evaluations": max(M - 1, 0)}
    if n % 2:
        detail["deflated"] = str(-p.epsilon)
    return VerificationReport(p.family, p.k, "sign-count",
                              n if certified else 2 * changes + boundary + n % 2, n, None, None,
                              certified, origin_zeros=poly.origin_multiplicity, detail=detail)
