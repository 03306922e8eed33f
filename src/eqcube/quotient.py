"""Candidate quotient matrices: validation, cell sizes, feasibility screens.

An m-cell equitable partition of the n-cube is summarized by an m x m
matrix S whose entry S_ij counts the neighbors in cell j of any vertex
of cell i.  Rows must sum to n, and the double counting
|C_i| S_ij = |C_j| S_ji of edges between two cells forces the support of
S to be symmetric and determines the cell sizes from S alone.

Everything in this module only rejects candidates; passing every screen
here proves nothing about existence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul
from typing import Sequence

from .exact_linalg import exact_quotient, mat_identity, mat_mul


class QuotientError(ValueError):
    """A candidate matrix failed a structural requirement."""


class InvalidQuotient(QuotientError):
    """Not a quotient matrix at all: bad shape, row sums, or support."""


class SizesUndetermined(QuotientError):
    """Support graph is disconnected, so relative cell sizes are free."""


def check_integer(value: int) -> None:
    """Refuse, with ValueError, a value that is not an int (a bool or a
    float is refused too); callable before any work."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"not an integer: {value!r}")


def check_dimension(n_value: int) -> None:
    """Refuse, with ValueError, a dimension that `check_integer` refuses
    or that is negative; callable before any work."""
    check_integer(n_value)
    if n_value < 0:
        raise ValueError(f"negative dimension n = {n_value}")


def matrix_rows(S: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The rows of S as tuples.  Raises InvalidQuotient unless S has rows,
    is square and holds only nonnegative ints (no bool)."""
    rows = tuple(map(tuple, S))
    m = len(rows)
    if m == 0:
        raise InvalidQuotient("matrix has no rows")
    for row in rows:
        if len(row) != m:
            raise InvalidQuotient(f"matrix is not square: {m} rows, "
                                  f"row lengths {[len(r) for r in rows]}")
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            # an exact int passes at the first test
            if not (type(v) is int or isinstance(v, int)
                    and not isinstance(v, bool)) or v < 0:
                raise InvalidQuotient(
                    f"entry ({i + 1},{j + 1}) = {v!r} is not a nonnegative integer")
    return rows


# The largest n a quotient matrix may have.  Cell sizes are n-bit
# integers, the spectrum screen tries all n + 1 eigenvalues, and the CLI
# renders each size in decimal: on [[0, n], [n, 0]], `screen --max-level
# 0` took 0.08 s and `table --max-level 1` 0.11 s at n = 10^5, and 3.1 s
# and 10.5 s at n = 10^6, in one process on a shared 2-vCPU VM (Python
# 3.11).  Without a small max_level, a table's entry cap refuses a far
# smaller n.
MAX_DIMENSION = 100_000


@dataclass(frozen=True, init=False)
class QuotientMatrix:
    """An m x m candidate quotient matrix for the n-cube, checked when
    built: raises ValueError for an n that `check_dimension` refuses or
    above MAX_DIMENSION, then InvalidQuotient naming the first entry
    (`matrix_rows`), row sum or support pair that is wrong."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, rows: Sequence[Sequence[int]]) -> None:
        check_dimension(n)
        if n > MAX_DIMENSION:
            raise ValueError(f"n must be at most {MAX_DIMENSION}, got {n}")
        rows = matrix_rows(rows)
        m = len(rows)
        for i, s in enumerate(map(sum, rows)):
            if s != n:
                raise InvalidQuotient(f"row {i + 1} sums to {s}, expected n = {n}")
        for i, row in enumerate(rows):
            for j in range(i + 1, m):
                s_ij, s_ji = row[j], rows[j][i]
                if (s_ij > 0) != (s_ji > 0):
                    raise InvalidQuotient(
                        f"support asymmetry at pair ({i + 1},{j + 1}): "
                        f"S_ij = {s_ij}, S_ji = {s_ji}")
        self.__dict__.update(n=n, rows=rows)

    @property
    def m(self) -> int:
        return len(self.rows)


def validate_quotient(S: Sequence[Sequence[int]], n: int) -> QuotientMatrix:
    """`QuotientMatrix(n, S)`: S if it is a quotient matrix of the n-cube."""
    return QuotientMatrix(n, S)


def _ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0."""
    g = math.gcd(num, den)
    return f"{num // g}" if den == g else f"{num // g}/{den // g}"


def cell_sizes(Q: QuotientMatrix) -> tuple:
    """Cell sizes forced by |C_i| S_ij = |C_j| S_ji and sum = 2^n.

    Each cell's size ratio to cell 1 is propagated along a spanning tree
    of the support graph as a pair of integers (num, den), and every
    non-tree support edge is checked by cross-multiplying; the only
    Fractions built are fractional sizes, and a refusal prints each
    ratio reduced, as str(Fraction) would.  Raises SizesUndetermined if the
    support graph is disconnected and InvalidQuotient if some cycle
    gives contradictory ratios.  Each size follows the number rule of
    `exact_linalg.exact_quotient`: an int where integral, else a
    Fraction, which callers decide the meaning of.
    """
    S = Q.rows
    m = len(S)
    # ratio of cell i to cell 1 is num[i] / den[i]; num 0 marks a cell
    # not reached yet (every reached ratio is positive)
    num = [1] + [0] * (m - 1)
    den = [1] * m
    stack = [0]
    while stack:
        i = stack.pop()
        p, q = num[i], den[i]
        for j, s_ij in enumerate(S[i]):
            if i == j or s_ij == 0:
                continue
            # forced ratio a / b; S_ji > 0 by support symmetry
            a, b = p * s_ij, q * S[j][i]
            if num[j] == 0:
                num[j], den[j] = a, b
                stack.append(j)
            elif num[j] * b != den[j] * a:
                raise InvalidQuotient(
                    f"inconsistent size ratios around cells "
                    f"{i + 1} and {j + 1}: {_ratio_text(num[j], den[j])} "
                    f"vs {_ratio_text(a, b)}")
    if 0 in num:
        missing = [i + 1 for i, r in enumerate(num) if r == 0]
        raise SizesUndetermined(
            f"support graph is disconnected; cells {missing} unreachable "
            f"from cell 1")
    lcm = math.lcm(*den)
    weights = [r * (lcm // d) for r, d in zip(num, den)]
    total = sum(weights)
    return tuple(exact_quotient(2 ** Q.n * w, total) for w in weights)


def char_poly(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Coefficients of det(tI - A), descending, leading 1.  Exact integers.

    Berkowitz's division-free algorithm: bordering the k x k leading
    principal submatrix B by column c, row r and corner a turns
    p(t) = det(tI - B) = sum_j p_j t^(k-j) into (t - a) p(t) -
    sum_(i<k) t^(k-1-i) sum_(j<=i) p_j r B^(i-j) c (Cayley-Hamilton).
    """
    A = tuple(map(tuple, rows))
    p = [1]
    for k, row in enumerate(A):
        a, r = row[k], row[:k]
        B = [A[i][:k] for i in range(k)]
        v = [A[i][k] for i in range(k)]
        # q lists r B^l c from l = k - 1 down to l = 0
        q = []
        for _ in range(k):
            q.append(sum(map(mul, r, v)))
            v = [sum(map(mul, b, v)) for b in B]
        q.reverse()
        p.append(0)
        p = [1] + [p[d] - a * p[d - 1]
                   - sum(map(mul, p[:d - 1], q[k + 1 - d:]))
                   for d in range(1, k + 2)]
    return tuple(p)


def min_poly(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Coefficients of the minimal polynomial of A, descending, leading 1.

    Krylov search in integers throughout: the powers I, A, A^2, ... are
    reduced, as flat vectors, against the earlier ones by
    cross-multiplication, each reduced row and its combination of powers
    divided by their gcd; the first power that reduces to zero gives the
    dependence of least degree, made monic by one exact division.  It
    divides the characteristic polynomial, so Gauss's lemma makes it
    integral.
    """
    m = len(rows)
    A = tuple(tuple(row) for row in rows)
    power = mat_identity(m)
    # reduced earlier powers: (pivot, flat vector, combination of powers)
    basis: list[tuple[int, list, list]] = []
    for k in range(m + 1):
        vec = [v for row in power for v in row]
        comb = [int(i == k) for i in range(m + 1)]
        for pivot, bvec, bcomb in basis:
            a, b = vec[pivot], bvec[pivot]
            if a:
                vec = [b * u - a * w for u, w in zip(vec, bvec)]
                comb = [b * u - a * w for u, w in zip(comb, bcomb)]
        pivot = next((i for i, v in enumerate(vec) if v), None)
        if pivot is None:
            lead = comb[k]
            if any(c % lead for c in comb):
                raise ArithmeticError("minimal polynomial must be integral")
            return tuple(c // lead for c in reversed(comb[:k + 1]))
        g = math.gcd(*vec, *comb)
        basis.append((pivot, [u // g for u in vec], [u // g for u in comb]))
        power = mat_mul(power, A)
    raise ArithmeticError("no dependence among I, A, ..., A^m")


def _synth_div(coeffs: Sequence[int], e: int) -> tuple[tuple[int, ...], int]:
    """Divide a monic-descending integer polynomial by (t - e)."""
    out = [coeffs[0]]
    for a in coeffs[1:]:
        out.append(a + e * out[-1])
    return tuple(out[:-1]), out[-1]


@dataclass(frozen=True)
class SpectrumReport:
    """Result of factoring the characteristic polynomial over {n - 2w}."""

    char_coeffs: tuple[int, ...]
    splits: bool
    eigenvalues: tuple[int, ...]          # descending, with multiplicity
    residual: tuple[int, ...] | None      # unfactored part when not split


def spectrum_check(Q: QuotientMatrix) -> SpectrumReport:
    """Factor det(tI - S) over the n-cube eigenvalue set {n - 2w : 0 <= w <= n}.

    Every root must lie in that set for a partition to exist.  Division
    is exact synthetic division; repeated roots are divided out with
    multiplicity.
    """
    coeffs = char_poly(Q.rows)
    poly = coeffs
    eigen: list[int] = []
    for w in range(Q.n + 1):
        e = Q.n - 2 * w
        # a root e of a monic integer polynomial divides its constant
        # term (rational root theorem), so an e != 0 that does not could
        # only leave a nonzero remainder; e = 0 is tried by division
        while len(poly) > 1 and not (e and poly[-1] % e):
            quot, rem = _synth_div(poly, e)
            if rem != 0:
                break
            eigen.append(e)
            poly = quot
    splits = len(poly) == 1
    return SpectrumReport(
        char_coeffs=coeffs,
        splits=splits,
        eigenvalues=tuple(eigen),
        residual=None if splits else tuple(poly),
    )


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the arithmetic screens applicable to a candidate matrix.

    Flags are None where the test does not apply (divisibility and the
    ci bound only constrain two-cell matrices, the latter only with
    distinct off-diagonal entries).
    """

    row_sum_ok: bool
    sizes: tuple | None
    sizes_connected: bool
    sizes_integral: bool | None
    divisibility_ok: bool | None
    ci_bound_ok: bool | None
    spectrum: SpectrumReport
    failures: tuple[str, ...] = field(default=())

    @property
    def verdict(self) -> str:
        return "rejected" if self.failures else "candidate"


def feasibility_conditions(Q: QuotientMatrix) -> FeasibilityReport:
    """Run every applicable screen on a validated candidate.

    Two-cell matrices [[a, b], [c, d]] get two extra tests: (b + c) must
    divide 2^n after clearing gcd(b, c) (cell sizes 2^n c/(b+c) and
    2^n b/(b+c) must be integers), and when b != c (oriented so b > c,
    swapping the two cells if needed) a correlation-immunity bound
    requires c - a <= n/3, checked exactly as 3(c - a) <= n.

    A disconnected support is listed as a failure, but support size
    ratios that contradict each other are not: `cell_sizes` raises
    InvalidQuotient for them and so does this function, since such a
    matrix is no quotient matrix (`screen.certify` turns it into a
    validation error).
    """
    failures: list[str] = []
    sizes: tuple | None
    try:
        sizes = cell_sizes(Q)
        connected = True
        integral: bool | None = all(s.denominator == 1 for s in sizes)
        if not integral:
            failures.append("non-integral cell sizes")
    except SizesUndetermined:
        sizes = None
        connected = False
        integral = None
        failures.append("cell sizes undetermined (disconnected support)")

    divisibility_ok: bool | None = None
    ci_ok: bool | None = None
    if Q.m == 2:
        a, b = Q.rows[0]
        c, d = Q.rows[1]
        if b > 0 and c > 0:
            g = math.gcd(b, c)
            divisibility_ok = (2 ** Q.n) % ((b + c) // g) == 0
            if not divisibility_ok:
                failures.append(
                    f"(b + c)/gcd(b, c) = {(b + c) // g} does not divide 2^{Q.n}")
            if b != c:
                if b < c:
                    a, b, c, d = d, c, b, a
                ci_ok = 3 * (c - a) <= Q.n
                if not ci_ok:
                    failures.append(
                        f"correlation-immunity bound violated: "
                        f"3(c - a) = {3 * (c - a)} > n = {Q.n}")

    spec = spectrum_check(Q)
    if not spec.splits:
        failures.append(
            f"characteristic polynomial does not split over the cube "
            f"spectrum; residual {list(spec.residual)}")

    return FeasibilityReport(
        row_sum_ok=True,
        sizes=sizes,
        sizes_connected=connected,
        sizes_integral=integral,
        divisibility_ok=divisibility_ok,
        ci_bound_ok=ci_ok,
        spectrum=spec,
        failures=tuple(failures),
    )
