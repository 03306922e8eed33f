"""Exact rational vectors and structured Kronecker lifts.

The central object is a length-m^3 row vector U indexed by triples
(i, j, k) with 1 <= i, j, k <= m, laid out with i slowest and k fastest:

    U = (U_111, U_112, ..., U_11m, U_121, ..., U_mmm).

A "lift" of an m x m matrix S acts on one of the three tensor slots of
such a vector: position 1 is S (x) I (x) I, position 2 is I (x) S (x) I,
and position 3 is I (x) I (x) S ((x) = Kronecker product).  Lifts are
stored structurally (the matrix that acts and its slot; `.T` stores the
transpose) and applied through a contraction plan each lift builds once,
listing for every output position its (source position, coefficient)
pairs with nonzero coefficient: at most m^4 products.  The dense
m^3 x m^3 matrix is only ever built by `materialize`, a debugging and
testing aid.

This module owns the two rules of a distribution vector.  Layout:
`flat_index` is the one map from (i, j, k) to a flat position.  Numbers:
entries are Python ints or `fractions.Fraction`s, and `exact_quotient`
(which `TensorVector / c` applies) gives an int where the quotient is
integral and a Fraction otherwise.  Nothing here rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, mul
from typing import Iterable, Iterator, Sequence


def flat_index(m: int, i: int, j: int, k: int) -> int:
    """Position of entry (i, j, k) (1-based) in the flat layout."""
    return ((i - 1) * m + (j - 1)) * m + (k - 1)


def exact_quotient(num, den):
    """num / den as an int when the quotient is integral, else a Fraction."""
    q, r = divmod(num, den)
    return q if r == 0 else Fraction(num, den)


def iter_index_triples(m: int) -> Iterator[tuple[int, int, int]]:
    """All (i, j, k) in flat-layout order: i slowest, k fastest."""
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            for k in range(1, m + 1):
                yield (i, j, k)


class TensorVector:
    """Row vector of m^3 exact rationals indexed by (i, j, k), 1-based.

    Treat instances as immutable; all operations return new vectors.
    """

    __slots__ = ("m", "entries")

    def __init__(self, m: int, entries: Iterable) -> None:
        entries = tuple(entries)
        if len(entries) != m ** 3:
            raise ValueError(
                f"expected {m ** 3} entries for m={m}, got {len(entries)}")
        self.m = m
        self.entries = entries

    @staticmethod
    @lru_cache(maxsize=None)
    def zero(m: int) -> "TensorVector":
        """The zero vector for m cells, one shared instance per m."""
        return TensorVector(m, (0,) * m ** 3)

    @classmethod
    def unit(cls, m: int, triple: tuple[int, int, int]) -> "TensorVector":
        i, j, k = triple
        pos = flat_index(m, i, j, k)
        return cls(m, tuple(1 if p == pos else 0 for p in range(m ** 3)))

    def get(self, i: int, j: int, k: int):
        return self.entries[flat_index(self.m, i, j, k)]

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def _check_mate(self, other: "TensorVector") -> None:
        if self.m != other.m:
            raise ValueError(f"dimension mismatch: m={self.m} vs m={other.m}")

    def __add__(self, other: "TensorVector") -> "TensorVector":
        self._check_mate(other)
        return TensorVector(self.m, (a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "TensorVector") -> "TensorVector":
        self._check_mate(other)
        return TensorVector(self.m, (a - b for a, b in zip(self.entries, other.entries)))

    def __mul__(self, c) -> "TensorVector":
        return TensorVector(self.m, (e * c for e in self.entries))

    __rmul__ = __mul__

    def __truediv__(self, c) -> "TensorVector":
        """Entrywise `exact_quotient` by c; c = 0 raises ZeroDivisionError."""
        return TensorVector(self.m, (exact_quotient(e, c) for e in self.entries))

    def __neg__(self) -> "TensorVector":
        return TensorVector(self.m, (-e for e in self.entries))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorVector):
            return NotImplemented
        return self.m == other.m and self.entries == other.entries

    def __repr__(self) -> str:
        return f"TensorVector(m={self.m}, {list(self.entries)!r})"


def _as_rows(S: Sequence[Sequence]) -> tuple[tuple, ...]:
    rows = tuple(tuple(row) for row in S)
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix is not square")
    return rows


@dataclass(frozen=True)
class LiftedMatrix:
    """An m x m matrix acting on one slot of a TensorVector.

    `base` is the matrix that acts, `position` in {1, 2, 3} the slot it
    contracts.
    """

    base: tuple[tuple, ...]
    position: int

    @property
    def m(self) -> int:
        return len(self.base)

    @property
    def T(self) -> "LiftedMatrix":
        """The lift of the transposed base, at the same slot."""
        return LiftedMatrix(tuple(zip(*self.base)), self.position)

    @cached_property
    def _plan(self) -> tuple[tuple[tuple[int, ...], tuple], ...]:
        """The contraction plan, built once: output position (a, i, b)
        of the (A, m, B) view, whose middle axis is the contracted slot,
        sums S_ti U_(a, t, b) over the nonzero S_ti.  Element r of the
        plan holds every position's r-th (source, coefficient) pair, as
        a tuple of sources and one of coefficients; positions with fewer
        pairs are padded with source m^3 and coefficient 0.
        """
        m, S = self.m, self.base
        B = m ** (3 - self.position)
        pairs = [[(a * m * B + t * B + b, S[t][i]) for t in range(m) if S[t][i]]
                 for a in range(m ** (self.position - 1))
                 for i in range(m) for b in range(B)]
        pad = (m ** 3, 0)
        return tuple(
            tuple(zip(*(row[r] if r < len(row) else pad for row in pairs)))
            for r in range(max(1, *map(len, pairs))))


def kron_lift(S: Sequence[Sequence], position: int) -> LiftedMatrix:
    """Lift of S at the given slot: e.g. position 2 means I (x) S (x) I."""
    if position not in (1, 2, 3):
        raise ValueError(f"position must be 1, 2 or 3, got {position}")
    return LiftedMatrix(_as_rows(S), position)


def diag_lift(sizes: Sequence) -> LiftedMatrix:
    """Diagonal lift: multiplies entry (i, j, k) by sizes[i].

    Equals kron_lift(diag(sizes), 1).  Entries must be positive.
    """
    sizes = tuple(sizes)
    if any(not s > 0 for s in sizes):
        raise ValueError(f"diagonal entries must be positive, got {sizes}")
    m = len(sizes)
    base = tuple(tuple(sizes[i] if i == j else 0 for j in range(m))
                 for i in range(m))
    return LiftedMatrix(base, 1)


def apply_lift(U: TensorVector, L: LiftedMatrix) -> TensorVector:
    """Row-vector product U * L without materializing L.

    Contracting slot p replaces index t with index i there:
    position 1 gives V_ijk = sum_t U_tjk S_ti, and similarly at the other
    slots.  Walks the lift's cached contraction plan one rank of pairs
    at a time: at most m^4 products, counting the padding.
    """
    if U.m != L.m:
        raise ValueError(f"dimension mismatch: vector m={U.m}, lift m={L.m}")
    # position m^3 reads as an int 0, so padded pairs add an int 0 and
    # leave every sum's value and type as the nonzero pairs make it
    get = (U.entries + (0,)).__getitem__
    (sources, coefs), *rest = L._plan
    out = map(mul, map(get, sources), coefs)
    for sources, coefs in rest:
        out = map(add, out, map(mul, map(get, sources), coefs))
    return TensorVector(L.m, out)


def commutes(A: LiftedMatrix, B: LiftedMatrix) -> bool:
    """Exact commutation test: AB = BA on every basis vector of length m^3."""
    if A.m != B.m:
        raise ValueError(f"dimension mismatch: m={A.m} vs m={B.m}")
    m = A.m
    for triple in iter_index_triples(m):
        e = TensorVector.unit(m, triple)
        if apply_lift(apply_lift(e, A), B) != apply_lift(apply_lift(e, B), A):
            return False
    return True


def materialize(L: LiftedMatrix) -> tuple[tuple, ...]:
    """Dense m^3 x m^3 matrix of the lift.  Debug and test aid only.

    Row r is the image of the r-th basis row vector, so for any U,
    U * L == vec_mat(U.entries, materialize(L)).
    """
    m = L.m
    rows = []
    for triple in iter_index_triples(m):
        rows.append(apply_lift(TensorVector.unit(m, triple), L).entries)
    return tuple(rows)


# ---------------------------------------------------------------------------
# dense exact helpers (tests, characteristic polynomials, materialized checks)

def mat_identity(size: int) -> tuple[tuple, ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(size))
                 for i in range(size))


def mat_mul(A: Sequence[Sequence], B: Sequence[Sequence]) -> tuple[tuple, ...]:
    rows_a, rows_b = len(A), len(B)
    if any(len(r) != rows_b for r in A):
        raise ValueError("inner dimensions do not match")
    cols_b = len(B[0])
    out = []
    for r in A:
        out.append(tuple(
            sum(r[t] * B[t][c] for t in range(rows_b)) for c in range(cols_b)))
    return tuple(out)


def vec_mat(v: Sequence, M: Sequence[Sequence]) -> tuple:
    if len(v) != len(M):
        raise ValueError("inner dimensions do not match")
    cols = len(M[0])
    return tuple(sum(v[t] * M[t][c] for t in range(len(v))) for c in range(cols))


def kron3(X: Sequence[Sequence], Y: Sequence[Sequence],
          Z: Sequence[Sequence]) -> tuple[tuple, ...]:
    """Kronecker product X (x) Y (x) Z of three square matrices (test aid)."""
    mx, my, mz = len(X), len(Y), len(Z)
    size = mx * my * mz
    out = []
    for r in range(size):
        i1, rest = divmod(r, my * mz)
        j1, k1 = divmod(rest, mz)
        row = []
        for c in range(size):
            i2, rest2 = divmod(c, my * mz)
            j2, k2 = divmod(rest2, mz)
            row.append(X[i1][i2] * Y[j1][j2] * Z[k1][k2])
        out.append(tuple(row))
    return tuple(out)
