"""Brute-force ground truth on explicit vertex sets of small cubes.

Vertices of the n-cube are integers 0 .. 2^n - 1; bit i is coordinate i
and Hamming distance is the popcount of an XOR.  A vertex triple
(v, x, y) has index (r1, r2, r3): on each coordinate the three bits
agree or exactly one of v, x, y stands alone, and r1, r2, r3 count the
coordinates where v, x and y stand alone.  Everything here counts
directly over vertex tuples, with no recursion and no lifts, so it can
stand against the analytic machinery as an independent witness.  Costs
are exponential (8^n vertex triples for the triangle count), hence the
hard caps with an explicit override flag.  The table counts still visit
all 8^n triples, looking each index up by XOR difference
(`_offset_table`).
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from .exact_linalg import TensorVector, check_exact, flat_index
from .quotient import (QuotientMatrix, check_dimension, check_integer,
                       validate_quotient)
from .recursion import (INTERWEIGHT, TRIANGLE, DistributionTable, Triple,
                        table_triples)


def hamming(u: int, v: int) -> int:
    return (u ^ v).bit_count()


def neighbors(v: int, n: int) -> list[int]:
    return [v ^ (1 << i) for i in range(n)]


def _triple_index(v: int, x: int, y: int) -> Triple:
    """(r1, r2, r3): the coordinates where v, x and y stand alone.

    So d(x,y) = r2 + r3, d(v,y) = r1 + r3 and d(v,x) = r1 + r2.
    """
    return (((v ^ x) & (v ^ y)).bit_count(), ((x ^ v) & (x ^ y)).bit_count(),
            ((y ^ v) & (y ^ x)).bit_count())


def _check_vertex(v: int, n: int) -> None:
    """Refuse, with ValueError, a vertex that `check_integer` refuses or
    that lies outside the n-cube."""
    check_integer(v)
    if not 0 <= v < 1 << n:
        raise ValueError(f"vertex {v} outside the {n}-cube")


def _check_stored_dimension(n: int, what: str) -> None:
    """Refuse, with ValueError, an n that `check_integer` refuses or that
    lies outside [1, 14]: `what` holds one value per vertex, 2^n of them."""
    check_integer(n)
    if not 1 <= n <= 14:
        raise ValueError(f"{what} are stored for n <= 14; got {n}")


@dataclass(frozen=True, init=False)
class PartitionInstance:
    """An explicit partition of the n-cube into m labeled cells.

    `color[v]` is the 1-based cell label of vertex v.  Raises ValueError
    for an n that is no int or lies outside [1, 14], an m or a label
    that is no int, other than 2^n labels, an empty cell and a vertex
    that no cell covers (its label lies outside 1..m)."""

    n: int
    m: int
    color: tuple[int, ...]

    def __init__(self, n: int, m: int, color: Sequence[int]) -> None:
        _check_stored_dimension(n, "explicit partitions")
        check_integer(m)
        color = tuple(color)
        if len(color) != 1 << n:
            raise ValueError(f"expected {1 << n} labels, got {len(color)}")
        for label in color:
            check_integer(label)
        used = set(color)
        for label in range(1, m + 1):
            if label not in used:
                raise ValueError(f"cell {label} is empty")
        if len(used) > m:
            missing = [v for v, c in enumerate(color) if not 1 <= c <= m]
            raise ValueError(f"vertices not covered: {missing[:8]}")
        self.__dict__.update(n=n, m=m, color=color)

    @classmethod
    def from_cells(cls, n: int, cells: Sequence[Iterable[int]]) -> "PartitionInstance":
        """The partition whose cell i (1-based) holds the i-th list of
        vertices.  Raises ValueError as the record does, for a non-iterable
        cell, and for a vertex `_check_vertex` refuses or two cells hold."""
        _check_stored_dimension(n, "explicit partitions")
        color = [0] * (1 << n)
        for label, cell in enumerate(cells, start=1):
            if not isinstance(cell, Iterable):
                raise ValueError(
                    f"cell {label} is no list of vertices: {cell!r}")
            for v in cell:
                _check_vertex(v, n)
                if color[v]:
                    raise ValueError(f"vertex {v} assigned to two cells")
                color[v] = label
        return cls(n=n, m=len(cells), color=color)

    def cells(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.m)]
        for v, c in enumerate(self.color):
            out[c - 1].append(v)
        return out

    def cell_sizes(self) -> tuple[int, ...]:
        sizes = [0] * self.m
        for c in self.color:
            sizes[c - 1] += 1
        return tuple(sizes)


def singleton_partition(n: int) -> PartitionInstance:
    """Every vertex its own cell; the quotient is the cube's adjacency
    matrix.  Raises ValueError for n as `PartitionInstance.from_cells`
    does."""
    _check_stored_dimension(n, "explicit partitions")
    size = 1 << n
    return PartitionInstance(n=n, m=size,
                             color=tuple(range(1, size + 1)))


def parity_partition(n: int) -> PartitionInstance:
    """Two cells by coordinate-sum parity (even weight = cell 1).  Raises
    ValueError for n as `PartitionInstance.from_cells` does."""
    _check_stored_dimension(n, "explicit partitions")
    color = tuple(1 if v.bit_count() % 2 == 0 else 2 for v in range(1 << n))
    return PartitionInstance(n=n, m=2, color=color)


class NotEquitable(ValueError):
    """Witness that a partition is not equitable."""

    def __init__(self, vertex: int, row_got: tuple[int, ...],
                 row_expected: tuple[int, ...]) -> None:
        self.vertex = vertex
        self.row_got = row_got
        self.row_expected = row_expected
        super().__init__(
            f"vertex {vertex} sees neighbor counts {row_got}, but its cell "
            f"requires {row_expected}")


def verify_equitable(P: PartitionInstance) -> QuotientMatrix:
    """Check neighbor-count regularity; return the quotient matrix.

    Raises NotEquitable with the first offending vertex otherwise.
    """
    rows: dict[int, tuple[int, ...]] = {}
    for v in range(1 << P.n):
        counts = [0] * P.m
        for u in neighbors(v, P.n):
            counts[P.color[u] - 1] += 1
        counts = tuple(counts)
        label = P.color[v]
        seen = rows.get(label)
        if seen is None:
            rows[label] = counts
        elif seen != counts:
            raise NotEquitable(v, counts, seen)
    S = [list(rows[label]) for label in range(1, P.m + 1)]
    return validate_quotient(S, P.n)


def _multiplicities(X: "Mapping[int, int] | Iterable[int]",
                    n: int) -> Iterator[tuple[int, int]]:
    """X's (vertex, multiplicity) pairs, counting a plain iterable's
    vertices.  Raises ValueError for a vertex that is no int or lies
    outside the n-cube, and for a multiplicity that is no int."""
    for v, mult in (X if isinstance(X, Mapping) else Counter(X)).items():
        _check_vertex(v, n)
        check_integer(mult)
        yield v, mult


def multi_neighborhood(X: "Mapping[int, int] | Iterable[int]",
                       n: int) -> dict[int, int]:
    """Multiset of neighbors of a multiset of vertices.

    Accepts a plain iterable (multiplicities 1 each occurrence) or a
    vertex -> multiplicity mapping; returns the latter form.  Raises
    ValueError for an n that `quotient.check_dimension` refuses and for
    the vertices and multiplicities that `_multiplicities` refuses.
    """
    check_dimension(n)
    out: dict[int, int] = {}
    for v, mult in _multiplicities(X, n):
        for u in neighbors(v, n):
            out[u] = out.get(u, 0) + mult
    return {v: c for v, c in out.items() if c}


def spectrum_of_multiset(X: "Mapping[int, int] | Iterable[int]",
                         P: PartitionInstance) -> tuple[int, ...]:
    """Cell-wise totals of a vertex multiset: component i sums the
    multiplicities over C_i.  Raises ValueError for the vertices and
    multiplicities that `_multiplicities` refuses, on P's cube."""
    out = [0] * P.m
    for v, mult in _multiplicities(X, P.n):
        out[P.color[v] - 1] += mult
    return tuple(out)


def _empty_counts(n: int, m: int) -> dict[Triple, list]:
    return {t: [0] * m ** 3 for t in table_triples(n)}


@lru_cache(maxsize=None)
def _offset_table(n: int) -> tuple[array, ...]:
    """offsets[a][b]: the position in `table_triples(n)` of
    `_triple_index(0, a, b)`.

    `_triple_index(v, x, y)` reads only XORs of its vertices, so it
    equals `_triple_index(0, v ^ x, v ^ y)` and this one table serves
    every anchor.  Cached per n; it holds 4^n two-byte ints: 262144
    (512 KiB) at the invariance bound n = 9, 512 MiB at n = 14, which
    only a forced `brute_interweight` reaches.
    """
    position = {t: p for p, t in enumerate(table_triples(n))}
    size = 1 << n
    return tuple(array("H", (position[_triple_index(0, a, b)]
                             for b in range(size)))
                 for a in range(size))


def _count_anchored(P: PartitionInstance, v: int,
                    counts: dict[Triple, list]) -> None:
    """Add every vertex pair (x, y) anchored at v to `counts`, in the
    slice i = color(v).

    `counts` is laid out as `_empty_counts` makes it.  The pair
    (v ^ a, v ^ b) gets the key slot * T + offsets[a][b], where T is the
    number of triples and slot the flat position of its cell triple
    (color(v), color(v ^ a), color(v ^ b)); one Counter tallies all 4^n
    keys, so every pair is still counted one by one.
    """
    m, color = P.m, P.color
    size = 1 << P.n
    offsets = _offset_table(P.n)
    vecs = list(counts.values())
    T = len(vecs)
    ycolor = [color[v ^ b] for b in range(size)]
    # keys[j][b]: slot * T for the cell triple (color(v), j, color(v ^ b))
    keys = {}
    for j in set(ycolor):
        base = flat_index(m, color[v], j, 1) - 1
        keys[j] = [(base + k) * T for k in ycolor]
    tally = Counter(itertools.chain.from_iterable(
        map(add, offsets[a], keys[color[v ^ a]]) for a in range(size)))
    for key, c in tally.items():
        slot, p = divmod(key, T)
        vecs[p][slot] += c


def brute_triangle(P: PartitionInstance, force: bool = False) -> DistributionTable:
    """Count all 8^n ordered vertex triples into a triangle table.

    Capped at n <= 6 unless force=True; the loop is cubic in 2^n.
    """
    if P.n > 6 and not force:
        raise ValueError(f"n = {P.n} exceeds the brute-force cap of 6; "
                         f"pass --force (force=True in Python) to run anyway")
    n, m = P.n, P.m
    counts = _empty_counts(n, m)
    for v in range(1 << n):
        _count_anchored(P, v, counts)
    entries = {t: TensorVector(m, vec) for t, vec in counts.items()}
    return DistributionTable(kind=TRIANGLE, n=n, m=m, entries=entries)


def brute_interweight(P: PartitionInstance, v: int,
                      force: bool = False) -> DistributionTable:
    """Count vertex pairs (x, y) anchored at v into an interweight table.

    Only the slice i = color(v) is populated, so its level 0 is not the
    standard one: no marginal or pairing identity holds for it.  The slice
    equals the engine's row i, but a via-1 derivation reads the empty
    rows through the slot-1 lift, so `cross_check` lists every via-1
    route (10 on the 3-cube pair partition).  Capped at n <= 7 unless
    force.  Raises ValueError for a v that is no int or lies outside the
    cube.
    """
    if P.n > 7 and not force:
        raise ValueError(f"n = {P.n} exceeds the brute-force cap of 7; "
                         f"pass --force (force=True in Python) to run anyway")
    n, m = P.n, P.m
    _check_vertex(v, n)
    counts = _empty_counts(n, m)
    _count_anchored(P, v, counts)
    entries = {t: TensorVector(m, vec) for t, vec in counts.items()}
    return DistributionTable(kind=INTERWEIGHT, n=n, m=m, entries=entries)


@dataclass(frozen=True)
class InvarianceResult:
    """Whether per-vertex interweight tables are constant on every cell."""

    status: str  # "holds", "fails", or "inapplicable"
    witness: tuple | None = None
    detail: str = ""


def strong_invariance_check(P: PartitionInstance) -> InvarianceResult:
    """Compare the anchored tables of all members of each cell.

    For an equitable partition they must coincide cell-wise.  If the
    partition is not even equitable the check is inapplicable and says
    so instead of raising.  It counts all 8^n vertex triples (27 s at
    n = 9 on a 2-vCPU VM), so it refuses n > 9 with ValueError.
    """
    if P.n > 9:
        raise ValueError(f"invariance check runs for n <= 9; got {P.n}")
    try:
        verify_equitable(P)
    except NotEquitable as exc:
        return InvarianceResult(status="inapplicable",
                                witness=(exc.vertex,),
                                detail=str(exc))
    reference: dict[int, tuple[int, DistributionTable]] = {}
    for v in range(1 << P.n):
        label = P.color[v]
        table = brute_interweight(P, v, force=True)
        if label not in reference:
            reference[label] = (v, table)
            continue
        v0, table0 = reference[label]
        for triple, vec in table.entries.items():
            if vec != table0.entries[triple]:
                return InvarianceResult(
                    status="fails",
                    witness=(label, v0, v, triple),
                    detail=f"cell {label}: anchors {v0} and {v} disagree "
                           f"at {triple}")
    return InvarianceResult(status="holds")


def distance_distribution(X: Sequence[int]) -> list[int]:
    """Sorted multiset of pairwise distances of at least two vertices."""
    if len(X) < 2:
        raise ValueError("need at least two vertices")
    return sorted(hamming(u, v) for u, v in itertools.combinations(X, 2))


def set_triangle_multiset(X: Sequence[int], n: int) -> list[Triple]:
    """Sorted triangle indices of all unordered 3-subsets of X.

    A 3-subset {u, v, w} of the n-cube has index parts the numbers of
    coordinates where u, v and w stand alone (`_triple_index`); the
    parts are reported in ascending order per subset, and the list of
    triples is sorted.  Raises ValueError for fewer than three vertices,
    an n that `quotient.check_dimension` refuses and a vertex that is no
    int or lies outside the n-cube.
    """
    if len(X) < 3:
        raise ValueError("need at least three vertices")
    check_dimension(n)
    for v in X:
        _check_vertex(v, n)
    return sorted(tuple(sorted(_triple_index(u, v, w)))
                  for u, v, w in itertools.combinations(X, 3))


# ---------------------------------------------------------------------------
# perfect structures: rational cell-valued vertex functions

def parse_rational(v) -> Fraction:
    """v as a Fraction: an int, a Fraction, or a string such as "2",
    "-3/4" or "0.25".  Refuses, with ValueError, a float or a bool, which
    are no exact values, and whatever Fraction cannot read (None, say)."""
    if isinstance(v, (bool, float)):
        raise ValueError(f"not an exact value: {v!r}")
    try:
        return Fraction(v)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact value: {v!r}") from exc


@dataclass(frozen=True, init=False)
class PerfectStructure:
    """A function from vertices to rational m-vectors such that the
    neighbor sum at every vertex equals the vertex's own value times S.
    Raises ValueError for an n that is no int or lies outside [1, 14],
    other than 2^n rows, an m that is no int or is below 1, a row whose
    length is not m, and a value that `exact_linalg.check_exact`
    refuses."""

    n: int
    m: int
    values: tuple[tuple[Fraction, ...], ...]

    def __init__(self, n: int, m: int, values: Sequence[Sequence]) -> None:
        _check_stored_dimension(n, "perfect structures")
        values = tuple(map(tuple, values))
        if len(values) != 1 << n:
            raise ValueError(f"expected {1 << n} value rows, got {len(values)}")
        check_integer(m)
        if m < 1:
            raise ValueError("value rows have no entries")
        if any(len(row) != m for row in values):
            raise ValueError("value rows have inconsistent lengths")
        check_exact(tuple(itertools.chain.from_iterable(values)))
        self.__dict__.update(n=n, m=m, values=values)

    @classmethod
    def from_rows(cls, n: int, rows: Sequence[Sequence]) -> "PerfectStructure":
        """The structure with these value rows, one per vertex, each
        value read by `parse_rational`, which refuses inexact ones."""
        vals = tuple(tuple(map(parse_rational, row)) for row in rows)
        return cls(n=n, m=len(vals[0]) if vals else 0, values=vals)


def verify_perfect_structure(PS: PerfectStructure,
                             Q: QuotientMatrix) -> tuple[bool, int | None]:
    """Check sum_{u ~ x} value(u) = value(x) * S at every vertex.

    Returns (True, None) or (False, first offending vertex).
    """
    if Q.m != PS.m or Q.n != PS.n:
        raise ValueError("structure and matrix dimensions disagree")
    S = Q.rows
    for x in range(1 << PS.n):
        want = tuple(sum(PS.values[x][t] * S[t][j] for t in range(PS.m))
                     for j in range(PS.m))
        got = [Fraction(0)] * PS.m
        for u in neighbors(x, PS.n):
            for j in range(PS.m):
                got[j] += PS.values[u][j]
        if tuple(got) != want:
            return (False, x)
    return (True, None)


def _add_outer(vec: list, a: Sequence, b: Sequence, c: Sequence) -> None:
    """Add the outer product a (x) b (x) c to the flat vector vec,
    skipping the (i, j) blocks where a_i b_j is zero."""
    m = len(a)
    for i, ai in enumerate(a, start=1):
        if ai == 0:
            continue
        for j, bj in enumerate(b, start=1):
            part = ai * bj
            if part == 0:
                continue
            base = flat_index(m, i, j, 1)
            for k, ck in enumerate(c):
                vec[base + k] += part * ck


def ps_initial_triangle(PS: PerfectStructure) -> TensorVector:
    """Level-0 vector sum_v value(v) (x) value(v) (x) value(v)."""
    vec = [Fraction(0)] * PS.m ** 3
    for row in PS.values:
        _add_outer(vec, row, row, row)
    return TensorVector(PS.m, vec)


def ps_brute_interweight(PS: PerfectStructure, v: int) -> dict[Triple, TensorVector]:
    """Anchored pair sums for a perfect structure: at index (r1, r2, r3),
    entry (i, j, k) is value(v)_i * sum over pairs (x, y) at the matching
    distances of value(x)_j * value(y)_k.  Raises ValueError for a v
    that is no int or lies outside the cube."""
    n, m = PS.n, PS.m
    size = 1 << n
    _check_vertex(v, n)
    counts: dict[Triple, list] = {
        t: [Fraction(0)] * m ** 3 for t in table_triples(n)}
    anchor = PS.values[v]
    for x in range(size):
        for y in range(size):
            _add_outer(counts[_triple_index(v, x, y)], anchor,
                       PS.values[x], PS.values[y])
    return {t: TensorVector(m, vec) for t, vec in counts.items()}


# ---------------------------------------------------------------------------
# exhaustive search for partitions with a prescribed quotient matrix

@dataclass
class SearchResult:
    partitions: list[PartitionInstance]
    complete: bool  # False when the node budget ran out


def search_partitions(n: int, S: Sequence[Sequence[int]] | QuotientMatrix,
                      limit: int = 1,
                      pins: Mapping[int, int] | None = None,
                      max_nodes: int = 50_000_000) -> SearchResult:
    """Backtracking search for explicit partitions realizing S.

    One loop over the vertices, with no recursion, assigns them in index
    order and tries cells in label order, so results are deterministic.
    `pins` forces vertex -> cell choices.  Pruning: a vertex's
    assigned-neighbor counts may never exceed its row of S; every vertex
    has n neighbors and every row sums to n, so a complete colouring
    that uses all m cells is equitable with quotient S.  No symmetry
    reduction is attempted; `limit` bounds the number of partitions
    returned and `max_nodes` the number of assignments tried (exceeding
    it returns the partial result with complete=False).  The working
    state is 2^n (n + m) counts, plus up to `limit` colourings of 2^n
    labels.  n must pass `_check_stored_dimension` (1 <= n <= 14);
    limit, max_nodes and every pinned vertex and label must be ints,
    limit and max_nodes at least 1; a pinned vertex must lie in the cube
    and a label in 1..m.
    """
    _check_stored_dimension(n, "explicit partitions")
    check_integer(limit)
    check_integer(max_nodes)
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be at least 1, got {max_nodes}")
    Q = S if isinstance(S, QuotientMatrix) else validate_quotient(S, n)
    if Q.n != n:
        raise ValueError(f"matrix is for n = {Q.n}, search asked for n = {n}")
    m = Q.m
    rows = Q.rows
    size = 1 << n
    color = [0] * size  # 0 = unassigned
    # assigned-neighbor counts per vertex and cell label
    counts = [[0] * (m + 1) for _ in range(size)]
    nbrs = [neighbors(v, n) for v in range(size)]
    pins = dict(pins or {})
    for v, label in pins.items():
        _check_vertex(v, n)
        check_integer(label)
        if not 1 <= label <= m:
            raise ValueError(f"pinned label {label} outside 1..{m}")

    def feasible(v: int, label: int) -> bool:
        row = rows[label - 1]
        # v's already-assigned neighbors must not overflow row `label`
        cnt = counts[v]
        for j in range(1, m + 1):
            if cnt[j] > row[j - 1]:
                return False
        # and v must not overflow any assigned neighbor's row
        for u in nbrs[v]:
            cu = color[u]
            if cu and counts[u][label] + 1 > rows[cu - 1][label - 1]:
                return False
        return True

    found: list[PartitionInstance] = []
    nodes = 0
    v = 0
    while v >= 0:
        if v == size:
            if len(set(color)) == m:  # else some cell is empty
                found.append(PartitionInstance(n=n, m=m, color=tuple(color)))
                if len(found) >= limit:
                    break
            v -= 1
            continue
        # take back v's label, if it has one, and try the next
        last = color[v]
        if last:
            color[v] = 0
            for u in nbrs[v]:
                counts[u][last] -= 1
        pinned = pins.get(v)
        labels = (range(last + 1, m + 1) if pinned is None
                  else () if last else (pinned,))
        for label in labels:
            nodes += 1
            if nodes > max_nodes:
                return SearchResult(partitions=found, complete=False)
            if feasible(v, label):
                color[v] = label
                for u in nbrs[v]:
                    counts[u][label] += 1
                v += 1
                break
        else:
            v -= 1
    return SearchResult(partitions=found, complete=True)
