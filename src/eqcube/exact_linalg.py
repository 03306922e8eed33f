"""Exact rational vectors and structured Kronecker lifts.

The central object is a length-m^3 row vector U indexed by triples
(i, j, k) with 1 <= i, j, k <= m, laid out with i slowest and k fastest:

    U = (U_111, U_112, ..., U_11m, U_121, ..., U_mmm).

A "lift" of an m x m matrix S acts on one of the three tensor slots of
such a vector: position 1 is S (x) I (x) I, position 2 is I (x) S (x) I,
and position 3 is I (x) I (x) S ((x) = Kronecker product).  Lifts are
stored structurally (the matrix that acts and its slot; `.T` stores the
transpose).  `apply_lift` applies one through a contraction plan each
lift builds once, listing for every output position its (source
position, coefficient) pairs with nonzero coefficient: at most m^4
products, each rank of sources gathered by one `operator.itemgetter`.
`lift_step` is the table recursion's whole exchange step,
U * L - c_1 T_1 - c_2 T_2 - c_3 T_3, always with exactly three terms.
A lift of at most three cells compiles it once into straight-line
code, every product unrolled and the zero entries of its matrix
skipped, shared by all lifts of the same size, slot and support;
compiling costs m^4-sized source, more than the few steps of a small
table of wider lifts earn back, so those run no generated code: they
walk the plan, then subtract the terms in one list comprehension.  The
dense m^3 x m^3 matrix is only ever built by
`materialize`, a debugging and testing aid.

This module owns the two rules of a distribution vector.  Layout:
`flat_index` is the one map from (i, j, k) to a flat position, and
`TensorVector.permuted` the one permutation of the three slots, run as
a cached `operator.itemgetter` over the flat positions.  Numbers:
entries are Python ints or `fractions.Fraction`s, and `exact_quotient`
gives an int where the quotient is integral and a Fraction otherwise;
`TensorVector / c` applies that rule in one pass.  Nothing here rounds.

`TensorVector(m, entries)` checks its m, an int >= 1, that it gets
m^3 entries, and each entry by `check_exact`, the one test of the
number rule that `LiftedMatrix` and `oracle.PerfectStructure` share.
The vectors this module builds itself from a tuple of the right length
skip those checks: the results of arithmetic, permutations, quotients,
`apply_lift` and `lift_step`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import repeat
from operator import add, itemgetter, mul, sub
from typing import Callable, Iterable, Iterator, Sequence


def flat_index(m: int, i: int, j: int, k: int) -> int:
    """Position of entry (i, j, k) (1-based) in the flat layout.  It
    checks nothing: `TensorVector.get` and `.unit` refuse an index
    outside 1..m before they call it."""
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


_EXACT_TYPES = frozenset((int, Fraction))


def check_exact(values: Sequence) -> None:
    """Refuse, with ValueError, the first value whose type is not int or
    Fraction: a bool, a float or a str is no exact value."""
    if not _EXACT_TYPES.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) not in _EXACT_TYPES)
        raise ValueError(f"not an exact value: {bad!r}")


def _checked_position(m: int, i: int, j: int, k: int) -> int:
    """flat_index of (i, j, k), refused with ValueError unless every
    part lies in 1..m."""
    if not (1 <= i <= m and 1 <= j <= m and 1 <= k <= m):
        raise ValueError(f"index {(i, j, k)} lies outside 1..{m}")
    return flat_index(m, i, j, k)


class TensorVector:
    """Row vector of m^3 exact rationals indexed by (i, j, k), 1-based.

    Raises ValueError for an m that is not an int >= 1, other than m^3
    entries, and an entry that `check_exact` refuses.  Treat instances
    as immutable; all operations return new vectors.
    """

    __slots__ = ("m", "entries")

    def __init__(self, m: int, entries: Iterable) -> None:
        if type(m) is not int or m < 1:
            raise ValueError(f"m must be an int >= 1, got {m!r}")
        entries = tuple(entries)
        if len(entries) != m ** 3:
            raise ValueError(
                f"expected {m ** 3} entries for m={m}, got {len(entries)}")
        check_exact(entries)
        self.m = m
        self.entries = entries

    @staticmethod
    @lru_cache(maxsize=None)
    def zero(m: int) -> "TensorVector":
        """The zero vector for m cells, one shared instance per m."""
        return _vector(m, (0,) * m ** 3)

    @classmethod
    def unit(cls, m: int, triple: tuple[int, int, int]) -> "TensorVector":
        i, j, k = triple
        pos = _checked_position(m, i, j, k)
        return cls(m, tuple(1 if p == pos else 0 for p in range(m ** 3)))

    def get(self, i: int, j: int, k: int):
        return self.entries[_checked_position(self.m, i, j, k)]

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def _check_mate(self, other: "TensorVector") -> None:
        if self.m != other.m:
            raise ValueError(f"dimension mismatch: m={self.m} vs m={other.m}")

    def __add__(self, other: "TensorVector") -> "TensorVector":
        self._check_mate(other)
        return _vector(self.m, tuple(map(add, self.entries, other.entries)))

    def __sub__(self, other: "TensorVector") -> "TensorVector":
        self._check_mate(other)
        return _vector(self.m, tuple(map(sub, self.entries, other.entries)))

    def __mul__(self, c) -> "TensorVector":
        return _vector(self.m, tuple(map(mul, self.entries, repeat(c))))

    __rmul__ = __mul__

    def __truediv__(self, c) -> "TensorVector":
        """Entrywise `exact_quotient` by c, in value and type, in one pass
        of operators; c = 0 raises ZeroDivisionError."""
        # e // c and e % c are divmod(e, c)'s parts, for int and Fraction
        # operands alike, so this is exact_quotient without the call
        return _vector(self.m, tuple([e // c if not e % c else Fraction(e, c)
                                      for e in self.entries]))

    def permuted(self, order: tuple[int, int, int]) -> "TensorVector":
        """The vector whose entry at index (i1, i2, i3) is this one's at
        (i_o[0], i_o[1], i_o[2]), o = order, a permutation of (0, 1, 2)."""
        return _vector(self.m, _slot_getter(self.m, order)(self.entries))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorVector):
            return NotImplemented
        return self.m == other.m and self.entries == other.entries

    def __repr__(self) -> str:
        return f"TensorVector(m={self.m}, {list(self.entries)!r})"


def _vector(m: int, entries: tuple) -> TensorVector:
    """A TensorVector of `entries`, a tuple of exactly m^3 entries, made
    without `TensorVector.__init__`'s copy and length check."""
    vec = object.__new__(TensorVector)
    vec.m = m
    vec.entries = entries
    return vec


@lru_cache(maxsize=None)  # at most six orders per m
def _slot_getter(m: int, order: tuple[int, int, int]) -> Callable:
    """The map from a tuple of flat entries to the tuple permuted by
    `order`: position p reads the position of index (i_o[0], i_o[1],
    i_o[2]), (i1, i2, i3) being p's index."""
    positions = [flat_index(m, *(index[o] for o in order))
                 for index in iter_index_triples(m)]
    # an itemgetter of one position returns the bare entry, not a tuple;
    # at m = 1 every order is the identity
    return itemgetter(*positions) if m > 1 else tuple


@dataclass(frozen=True, init=False)
class LiftedMatrix:
    """An m x m matrix acting on one slot of a TensorVector, checked when
    built.

    `base` is the matrix that acts, stored as tuples, and `position` in
    {1, 2, 3} the slot it contracts.  Raises ValueError for a position
    that is not the int 1, 2 or 3 (a bool is refused), then for a base
    without rows or not square, then for an entry that `check_exact`
    refuses.
    """

    base: tuple[tuple, ...]
    position: int

    def __init__(self, base: Sequence[Sequence], position: int) -> None:
        if (not isinstance(position, int) or isinstance(position, bool)
                or position not in (1, 2, 3)):
            raise ValueError(f"position must be 1, 2 or 3, got {position}")
        base = tuple(tuple(row) for row in base)
        if not base:
            raise ValueError("lift base has no rows")
        if any(len(row) != len(base) for row in base):
            raise ValueError("lift base is not square")
        for row in base:
            check_exact(row)
        self.__dict__.update(base=base, position=position)

    @property
    def m(self) -> int:
        return len(self.base)

    @property
    def T(self) -> "LiftedMatrix":
        """The lift of the transposed base, at the same slot."""
        return LiftedMatrix(tuple(zip(*self.base)), self.position)

    @cached_property
    def _plan(self) -> tuple[tuple[Callable, tuple], ...]:
        """The contraction plan, built once: output position (a, i, b)
        of the (A, m, B) view, whose middle axis is the contracted slot,
        sums S_ti U_(a, t, b) over the nonzero S_ti.  Element r of the
        plan holds every position's r-th (source, coefficient) pair, as
        an `operator.itemgetter` of the sources and a tuple of the
        coefficients; positions with fewer pairs are padded with source
        m^3 and coefficient 0.
        """
        m, S = self.m, self.base
        B = m ** (3 - self.position)
        pairs = [[(a * m * B + t * B + b, S[t][i]) for t in range(m) if S[t][i]]
                 for a in range(m ** (self.position - 1))
                 for i in range(m) for b in range(B)]
        pad = (m ** 3, 0)
        plan = []
        for r in range(max(1, *map(len, pairs))):
            sources, coefs = zip(*(row[r] if r < len(row) else pad
                                   for row in pairs))
            # an itemgetter of one position returns the bare entry, not
            # a tuple; at m = 1 the one source is gathered as a slice
            plan.append((itemgetter(*sources) if m > 1 else
                         itemgetter(slice(sources[0], sources[0] + 1)),
                         coefs))
        return tuple(plan)

    @cached_property
    def _step(self) -> Callable:
        """This lift's compiled step, its nonzero base entries bound in
        row-by-row order, the order of the support it is built for."""
        nonzero = [((t, i), s) for t, row in enumerate(self.base)
                   for i, s in enumerate(row) if s]
        return partial(
            _compiled_step(self.m, self.position,
                           tuple(ti for ti, _ in nonzero)),
            tuple(s for _, s in nonzero))


def kron_lift(S: Sequence[Sequence], position: int) -> LiftedMatrix:
    """Lift of S at the given slot: e.g. position 2 means I (x) S (x) I."""
    return LiftedMatrix(S, position)


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
    entries = U.entries + (0,)
    (gather, coefs), *rest = L._plan
    out = map(mul, gather(entries), coefs)
    for gather, coefs in rest:
        out = map(add, out, map(mul, gather(entries), coefs))
    return _vector(L.m, tuple(out))


# The one rule choosing how `lift_step` runs: a lift of at most this many
# cells compiles its step.  On a shared 2-vCPU VM (Python 3.11) the
# function of one slot and support compiles in about 0.1 and 0.3 ms at
# m = 2 and 3, and the combination it calls, shared by all slots and
# supports, in about 0.25 and 0.65 ms once; a compiled step saves about
# 4 and 13 us, so a table of a few dozen steps pays for it.  The source
# grows as m^4: at m = 4 and 8 one slot's function and the combination
# take about 2.3 and 30 ms, more than the 9-19 steps of a small m = 4 or
# m = 8 table earn back, so wider lifts walk the plan.  The choice rests
# on m alone, so a step costs the same work whatever ran before it.
_COMPILE_MAX_M = 3


def _compiled(source: str, name: str, namespace: dict) -> Callable:
    """The function `name` that `source` defines, run in `namespace`."""
    exec(compile(source, f"<compiled {name}>", "exec"), namespace)
    return namespace[name]


def _unpack(names: Iterable[str], value: str) -> str:
    return "    (" + "".join(f"{name}, " for name in names) + f") = {value}"


@lru_cache(maxsize=None)  # one per m <= 3
def _compiled_combination(m: int) -> Callable:
    """combine(p_0, ..., p_(m^3 - 1), terms): the tuple of the p_x minus
    c1 * T1, c2 * T2 and c3 * T3, entry by entry in turn, for the three
    (c, T) pairs in `terms`."""
    size = m ** 3
    head = "".join(f"p{x}, " for x in range(size))
    return _compiled("\n".join([
        f"def combine({head}terms):",
        "    (c1, T1), (c2, T2), (c3, T3) = terms",
        *(_unpack((f"t{q}_{x}" for x in range(size)), f"T{q}.entries")
          for q in (1, 2, 3)),
        "    return (" + "".join(f"p{x} - c1*t1_{x} - c2*t2_{x} - c3*t3_{x}, "
                                for x in range(size)) + ")"]),
        "combine", {})


@lru_cache(maxsize=256)  # bounds memory; a screen or sweep uses about a dozen
def _compiled_step(m: int, position: int,
                   support: tuple[tuple[int, int], ...]) -> Callable:
    """The straight-line step of an m-cell lift at `position` whose base
    is nonzero exactly on `support`.

    step(s, u, terms) takes the nonzero base entries in support order,
    the entries of U and the three (c, T) pairs.  Output (a, i, b) of
    the (A, m, B) view, whose middle axis is the contracted slot, sums
    u_(a, t, b) * S_ti over the support in order of t; the m^3 sums go
    straight to the shared `_compiled_combination`, which subtracts the
    terms.  The source names positions and arguments only, never an
    entry, so one function serves every lift of the same size, slot and
    support.
    """
    size, B = m ** 3, m ** (3 - position)
    coef = {ti: f"s{r}" for r, ti in enumerate(support)}
    sums = []
    for x in range(size):
        i = x // B % m  # output x is (a, i, b); its sources (a, t, b)
        sums.append(" + ".join(f"u{x + (t - i) * B}*{coef[t, i]}"
                               for t in range(m) if (t, i) in coef) or "0")
    return _compiled("\n".join([
        "def step(s, u, terms):",
        _unpack(coef.values(), "s"),
        _unpack((f"u{x}" for x in range(size)), "u"),
        "    return combine(" + "".join(f"{e}, " for e in sums) + "terms)"]),
        "step", {"combine": _compiled_combination(m)})


def lift_step(U: TensorVector, L: LiftedMatrix,
              terms: Sequence[tuple[object, TensorVector]]) -> TensorVector:
    """U * L - c1 T1 - c2 T2 - c3 T3 for the three (c, T) pairs in `terms`.

    One exchange step of the table recursion.  Every entry is that of
    `apply_lift(U, L)` minus c1 * T1, c2 * T2 and c3 * T3 in turn, in
    value and in type.  A lift of at most `_COMPILE_MAX_M` cells
    computes every entry in one pass of compiled straight-line code,
    every product unrolled and the zero entries of its base skipped,
    built on its first step and shared by all lifts of the same size,
    slot and support.  A wider lift runs no generated code: it applies
    its contraction plan through `apply_lift`, then subtracts the terms
    in one list comprehension.  Raises ValueError when `terms` holds
    other than three pairs or a vector and the lift differ in m.
    """
    m = L.m
    if U.m != m:
        raise ValueError(f"dimension mismatch: vector m={U.m}, lift m={m}")
    if m > _COMPILE_MAX_M:
        (c1, T1), (c2, T2), (c3, T3) = terms
        if not T1.m == T2.m == T3.m == m:
            raise ValueError(f"dimension mismatch: a term differs from "
                             f"the lift's m={m}")
        return _vector(m, tuple([
            x - c1 * y1 - c2 * y2 - c3 * y3 for x, y1, y2, y3 in zip(
                apply_lift(U, L).entries, T1.entries, T2.entries, T3.entries)]))
    # the step unpacks the three pairs, and every vector into exactly m^3
    # names, which raises ValueError for another count or m; it returns
    # a tuple of m^3 entries
    return _vector(m, L._step(U.entries, terms))


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
