"""Level-by-level construction of triangle and interweight distributions.

Fix a partition of the n-cube with quotient matrix S and cells C_1..C_m.
Index an ordered vertex triple (v, x, y) by the nonnegative solution of

    d(x, y) = r2 + r3,   d(v, y) = r1 + r3,   d(v, x) = r1 + r2,

which exists iff the pairwise distances have even perimeter and satisfy
the triangle inequality.  T^{r1,r2,r3} is the m^3 row vector whose
(i, j, k) entry counts such triples with v in C_i, x in C_j, y in C_k;
W^{r1,r2,r3} counts the same pairs (x, y) anchored at one fixed vertex
v of C_i, so T = W * D' with D' the diagonal cell-size lift.

Both families satisfy three exchange identities coupling an S-lifted
vector to its neighbors in the index lattice.  Solved for the highest
term they climb the table from level 0 (level = r1 + r2 + r3):

  a T^{a,b,c} = T^{a-1,b,c} L1 - (b+1) T^{a-1,b+1,c-1}
                - (c+1) T^{a-1,b-1,c+1} - (n-a-b-c+2) T^{a-2,b,c}

and cyclically with L2 (slot 2) when climbing b, L3 (slot 3) when
climbing c.  L2 and L3 are the slot lifts of S; L1 is the slot-1 lift
of S for the triangle family but of S^T for the interweight family
(anchoring at v breaks the symmetry of the first slot).  Out-of-range
triples (negative part, or level > n) are zero; `derive_entry` reads
any triple missing from the levels it climbs from as zero.

The engine climbs the fraction-free form of these identities (the idea
of Bareiss's fraction-free elimination).  It keeps the scaled vectors

  U^{r1,r2,r3} = r1! r2! r3! D T^{r1,r2,r3},

where D is the least common multiple of the denominators of the
level-0 vector.  Multiplying the identity by (a-1)! b! c! D gives,
with k = n-a-b-c+2,

  U^{a,b,c} = U^{a-1,b,c} L1 - c U^{a-1,b+1,c-1} - b U^{a-1,b-1,c+1}
              - k(a-1) U^{a-2,b,c}

with coefficients (c, a, k(b-1)) and (b, a, k(c-1)) when climbing b
and c, so every U is an integer vector and no step divides.  Exact
rationals appear only at the edge: `build_table` divides each U by its
scale once per orbit, under `exact_linalg`'s number rule (an int
where the quotient is exact and a Fraction otherwise).

Both families inherit the symmetries of their level-0 vector.  The
three-variable Krawtchouk polynomial behind the identities satisfies
P^{s(r)}(x_s) = P^r(x) for every permutation s of its three variables,
so when the level-0 vector has a symmetry the whole table has it:
X^{s(r)}_{s(ijk)} = X^r_{ijk}.  Triangle tables have all six slot
permutations; interweight tables only the exchange of the two legs
(r2 <-> r3, j <-> k), since L1 differs from L2 and L3.  The scaled
step is equivariant: climbing part p of t and part s(p) of s(t) use
the same coefficients on permuted neighbors.  So `iter_table_levels`
derives only the representative r1 >= r2 >= r3 (triangle) or r2 >= r3
(interweight) of each orbit and permutes its vector to the rest of the
orbit with `TensorVector.permuted`, one itemgetter call over the flat
positions in place of a step, before it climbs the next level.
It refuses with ValueError a level-0 vector without the symmetries of
its kind; every standard one (the size and unit diagonals,
`oracle.ps_initial_triangle`, a sum of tensor cubes) has them.  Every
triple of an orbit has the same scale, so only the representatives are
divided: each level the climb yields carries its orbit plan, and its
`quotients` are the representatives' T vectors.  `build_table` fills
the rest of each orbit from them by permutation; `screen.certify`
scans them without filling (`violations`, below).

Any triple with two or three positive parts is reachable by several
routes; `cross_check` verifies that all of them agree and checks the
index symmetries, the T = W * D' relation (entry by entry) and exact
multinomial marginals on top.  By the equivariance of the step, on a
table with its symmetries the routes of the representatives speak for
all triples.  The symmetries themselves are tested by orbit first:
every other triple must hold its representative's vector permuted by
its order, and every representative with tied parts must be invariant
under its stabilizer, the swap when r1 = r2 (triangle) and (0, 2, 1)
when r2 = r3.  That suffices: two orders taking a triple to its
representative differ by an element of the stabilizer, which fixes the
representative's vector, so every symmetry image of every triple
agrees.  The generators alone would not do, since (a, b, b) is fixed
by (0, 2, 1), which is no generator of the triangle kind.  Only a table
that fails this test is walked triple by triple, which lists the
findings, so the lists are those of the walk either way.

For a partition that actually exists every T entry is a count
divisible by the anchor cell size, so a negative or non-integral entry
refutes existence (`scan_violations`).  The scan tests a whole vector
with `min` and a `map` of `%` first, and walks the entries only of a
vector that holds a violation.  A level scanned by orbit tests each
triple on its representative's vector against the anchor sizes
permuted by the triple's order (the anchor of a permuted vector sits in
slot o.index(0)), counts with whole-vector passes, and permutes and
walks only the first violating triple's vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import lt, mod, mul, or_, truth
from typing import Iterable, Iterator, Mapping, Sequence

# apply_lift is not called here, but bench/spans.py wraps it at this
# module's attribute too, so it stays imported
from .exact_linalg import (LiftedMatrix, TensorVector, apply_lift,
                           flat_index, iter_index_triples, kron_lift,
                           lift_step)
from .quotient import (QuotientError, QuotientMatrix, cell_sizes,
                       check_dimension)

Triple = tuple[int, int, int]

TRIANGLE = "triangle"
INTERWEIGHT = "interweight"


def initial_triangle(sizes: Sequence) -> TensorVector:
    """Level-0 triangle vector: entry (i, i, i) = |C_i|, rest zero."""
    m = len(sizes)
    vec = [0] * m ** 3
    for i, size in enumerate(sizes, start=1):
        vec[flat_index(m, i, i, i)] = size
    return TensorVector(m, vec)


def initial_interweight(m: int) -> TensorVector:
    """Level-0 interweight vector: entry (i, i, i) = 1, rest zero."""
    return initial_triangle((1,) * m)


def default_initial(Q: QuotientMatrix, kind: str) -> TensorVector:
    """The standard level-0 vector of a table of the given kind."""
    if kind == TRIANGLE:
        return initial_triangle(cell_sizes(Q))
    if kind == INTERWEIGHT:
        return initial_interweight(Q.m)
    raise ValueError(f"unknown table kind {kind!r}")


@lru_cache(maxsize=64)
def lifts_for(Q: QuotientMatrix, kind: str) -> tuple[LiftedMatrix, ...]:
    """The three slot lifts driving a table of the given kind, cached so
    that every use of one matrix shares them and their contraction plans."""
    if kind not in (TRIANGLE, INTERWEIGHT):
        raise ValueError(f"unknown table kind {kind!r}")
    L1 = kron_lift(Q.rows, 1)
    if kind == INTERWEIGHT:
        L1 = L1.T
    return (L1, kron_lift(Q.rows, 2), kron_lift(Q.rows, 3))


def iter_triples_of_level(level: int) -> Iterator[Triple]:
    """Triples (r1, r2, r3) with r1 + r2 + r3 = level, lexicographic."""
    for r1 in range(level + 1):
        for r2 in range(level - r1 + 1):
            yield (r1, r2, level - r1 - r2)


def derive_entry(levels: Mapping[Triple, TensorVector],
                 lifts: tuple[LiftedMatrix, ...],
                 n: int, triple: Triple, via: int) -> TensorVector:
    """One fraction-free step of the exchange identity, climbing part `via`.

    `levels` maps triples t of level at most level(triple) - 1 to the
    scaled vectors U^t = t1! t2! t3! D T^t; a triple missing from it
    (one with a negative part, say) reads as zero.  The result is
    U^triple with the same D.  Integer inputs give an integer result:
    the step multiplies and subtracts, never divides.  The whole step is
    one `exact_linalg.lift_step` call, which compiles it for lifts of at
    most three cells and walks the lift's contraction plan for wider
    ones.  Requires via in {1, 2, 3} and triple[via - 1] > 0.
    """
    if via not in (1, 2, 3):
        raise ValueError(f"via must be 1, 2 or 3, got {via}")
    a, b, c = triple
    if triple[via - 1] <= 0:
        raise ValueError(f"cannot climb part {via} of {triple}")
    zero = TensorVector.zero(lifts[0].m)
    get = levels.get
    k = n - a - b - c + 2
    if via == 1:
        U = get((a - 1, b, c), zero)
        terms = ((c, get((a - 1, b + 1, c - 1), zero)),
                 (b, get((a - 1, b - 1, c + 1), zero)),
                 (k * (a - 1), get((a - 2, b, c), zero)))
    elif via == 2:
        U = get((a, b - 1, c), zero)
        terms = ((c, get((a + 1, b - 1, c - 1), zero)),
                 (a, get((a - 1, b - 1, c + 1), zero)),
                 (k * (b - 1), get((a, b - 2, c), zero)))
    else:
        U = get((a, b, c - 1), zero)
        terms = ((b, get((a + 1, b - 1, c - 1), zero)),
                 (a, get((a - 1, b + 1, c - 1), zero)),
                 (k * (c - 1), get((a, b, c - 2), zero)))
    return lift_step(U, lifts[via - 1], terms)


def common_denominator(vec: TensorVector) -> int:
    """D: the least common multiple of the denominators of vec's entries."""
    return math.lcm(*(e.denominator for e in vec.entries))


def entry_scale(triple: Triple, D: int) -> int:
    """The factor r1! r2! r3! D taking T^triple to the engine's U^triple."""
    r1, r2, r3 = triple
    return (math.factorial(r1) * math.factorial(r2) * math.factorial(r3)
            * D)


def canonical_via(triple: Triple) -> int:
    """Derivation route used when building: first positive part."""
    for via, part in enumerate(triple, start=1):
        if part > 0:
            return via
    raise ValueError("level-0 triple has no derivation route")


@dataclass
class DistributionTable:
    """All vectors T^{r1,r2,r3} (or W^...) up to a level bound.

    Level 0 is stored with the rest; `cross_check` compares it with
    `default_initial` to decide which identities the table must meet.
    """

    kind: str
    n: int
    m: int
    entries: dict[Triple, TensorVector]

    def triples(self) -> list[Triple]:
        """Stored triples in the one scan order every walk of a table
        uses: by level, then lexicographic."""
        return sorted(self.entries, key=lambda t: (sum(t), t))


# The symmetries of each kind, as (label, order) pairs: the order o
# takes a triple t to (t[o[0]], t[o[1]], t[o[2]]) and an index to the
# index permuted alike.  Triangle tables have the swap and the cyclic
# shift, which generate all six slot permutations; interweight tables,
# anchored in the first slot, only the exchange of the two legs.
_SYMMETRIES = {
    TRIANGLE: (("swap", (1, 0, 2)), ("cyclic", (1, 2, 0))),
    INTERWEIGHT: (("exchange", (0, 2, 1)),),
}

_IDENTITY = (0, 1, 2)


def _orbit_order(kind: str, triple: Triple) -> tuple[int, int, int]:
    """The order o taking a triple t to the representative of its orbit,
    (t[o[0]], t[o[1]], t[o[2]]) with the parts descending (triangle) or
    the legs descending (interweight).  Ties keep the slot order, so
    this is _IDENTITY exactly at a representative."""
    a, b, c = triple
    if kind == INTERWEIGHT:
        return _IDENTITY if b >= c else (0, 2, 1)
    if a >= b:
        return _IDENTITY if b >= c else (0, 2, 1) if a >= c else (2, 0, 1)
    return (1, 0, 2) if a >= c else (1, 2, 0) if b >= c else (2, 1, 0)


def _orbits(kind: str, triples: Iterable[Triple]
            ) -> tuple[list[Triple],
                       list[tuple[Triple, Triple, tuple[int, int, int]]]]:
    """The orbit representatives among `triples`, and (triple,
    representative, order) for each of them, both in the order given."""
    plan = []
    for triple in triples:
        o = _orbit_order(kind, triple)
        plan.append((triple, (triple[o[0]], triple[o[1]], triple[o[2]]), o))
    return [triple for triple, _, o in plan if o == _IDENTITY], plan


def _stabilizer(kind: str, rep: Triple) -> tuple[tuple[int, int, int], ...]:
    """Orders generating the symmetries of a kind that fix the
    representative `rep`: the exchange of two equal parts that the kind
    permutes, the swap for r1 = r2 (triangle) and (0, 2, 1) for
    r2 = r3."""
    a, b, c = rep
    ties = ((0, 2, 1),) if b == c else ()
    return ties + ((1, 0, 2),) if kind == TRIANGLE and a == b else ties


def _fill(plan, reps: Mapping[Triple, TensorVector]
          ) -> dict[Triple, TensorVector]:
    """Every triple of an orbit plan from its representatives' vectors:
    in a table with the symmetry o, the vector of t is that of
    (t[o[0]], t[o[1]], t[o[2]]) permuted by o, X^t_idx = X^{t o}_{idx o}."""
    return {triple: reps[rep] if order == _IDENTITY
            else reps[rep].permuted(order)
            for triple, rep, order in plan}


class _Level(dict):
    """One level of the scaled table climbed by orbits, and the view of
    it by orbits that every consumer shares: the representatives and
    plan of `_orbits` it was climbed by, and the D of its scale."""

    __slots__ = ("reps", "plan", "D")

    def __init__(self, entries: Mapping[Triple, TensorVector], orbits,
                 D: int):
        super().__init__(entries)
        self.reps, self.plan = orbits
        self.D = D

    def quotients(self) -> dict[Triple, TensorVector]:
        """T^t = U^t / (t1! t2! t3! D) of each representative t, by
        `TensorVector.__truediv__`: an int where the quotient is exact
        and a Fraction otherwise."""
        return {t: self[t] / entry_scale(t, self.D) for t in self.reps}

    def violations(self, sizes: Sequence) -> tuple[int, Violation | None]:
        """How many entries of the level's T vectors break the scan rule
        of `scan_violations`, with sizes[i] the size of anchor cell i
        (a triangle table's cell sizes), and the `Violation` of the first
        of them in scan order, or None.  The level is scanned by orbit
        (see the module docstring); the count of each (representative,
        anchor slot) pair serves every triple that shares it."""
        quotients = self.quotients()
        by_slot = _anchor_sizes(tuple(sizes))
        counts: dict[tuple[Triple, int], int] = {}
        total, first = 0, None
        for triple, rep, order in self.plan:
            key = (rep, order.index(0))
            found = counts.get(key)
            if found is None:
                found = counts[key] = _count_violations(
                    quotients[rep].entries, by_slot[key[1]])
            if found and first is None:
                vector = (triple, quotients[rep].permuted(order).entries)
                first = next(_sites([vector], by_slot[0],
                                    list(iter_index_triples(len(sizes)))))
            total += found
        return total, first


def iter_table_levels(Q: QuotientMatrix, kind: str,
                      initial: TensorVector, max_level: int, *,
                      every_triple: bool = False
                      ) -> Iterator[dict[Triple, TensorVector]]:
    """Yield the scaled table one level at a time, keeping two levels of
    state.

    Each level maps its triples, in lexicographic order, to integer
    vectors U^t = t1! t2! t3! D T^t, with D = common_denominator(initial);
    level 0 is D * initial.  One `derive_entry` step climbs each orbit
    representative of a level (r1 >= r2 >= r3 for triangle tables,
    r2 >= r3 for interweight tables), and the level is completed by
    permuting their vectors, so the next level's steps find every
    neighbour.  Raises ValueError, before any step, for an initial vector
    without the symmetries of the kind.  With every_triple, each triple
    is climbed by its own step and any initial vector is accepted.
    """
    n = Q.n
    lifts = lifts_for(Q, kind)
    if not every_triple:
        for label, order in _SYMMETRIES[kind]:
            if initial.permuted(order) != initial:
                raise ValueError(f"initial vector lacks the {label} symmetry "
                                 f"of a {kind} table")
    D = common_denominator(initial)
    prev: dict[Triple, TensorVector] = {}
    cur: dict[Triple, TensorVector] = {}
    for level in range(max_level + 1):
        triples = iter_triples_of_level(level)
        orbits = None if every_triple else _orbits(kind, triples)
        if level == 0:
            # D clears every denominator of the initial vector, so int()
            # is exact
            steps = {(0, 0, 0): TensorVector(
                Q.m, (int(e * D) for e in initial.entries))}
        else:
            known = {**prev, **cur}
            steps = {triple: derive_entry(known, lifts, n, triple,
                                          canonical_via(triple))
                     for triple in (triples if orbits is None else orbits[0])}
        prev, cur = cur, (steps if orbits is None
                          else _Level(_fill(orbits[1], steps), orbits, D))
        yield cur


# The most entries, C(L + 3, 3) m^3 for m cells to level L, that a full
# table may hold unless forced.  On a shared 2-vCPU VM (Python 3.11) a
# table near the cap took 0.7 s and 47 MB peak at m = 3 (level 58),
# 1.3 s and 62 MB at m = 2 (level 88) and 7.3 s and 198 MB at m = 1
# (level 178, the largest entries); the 22-cube's holds 62100.
MAX_TABLE_ENTRIES = 10 ** 6


def table_depth(max_level: int | None, n: int, m: int,
                force: bool = False) -> int:
    """The level a table of m cells climbs to: max_level, or n when it
    is None.  Raises ValueError for an n or max_level that
    `check_dimension` refuses, for a level outside [0, n], and, unless
    force, for a table of more than MAX_TABLE_ENTRIES entries."""
    check_dimension(n)
    if max_level is None:
        max_level = n
    elif isinstance(max_level, (int, float)) and not 0 <= max_level <= n:
        raise ValueError(f"max_level must lie in [0, {n}], got {max_level}")
    check_dimension(max_level)  # a bool, a float inside [0, n], a str
    entries = math.comb(max_level + 3, 3) * m ** 3
    if entries > MAX_TABLE_ENTRIES and not force:
        raise ValueError(
            f"a {m}-cell table to level {max_level} holds {entries} "
            f"entries, more than the cap of {MAX_TABLE_ENTRIES}; pass "
            f"--force (force=True in Python) to build it anyway")
    return max_level


def build_table(Q: QuotientMatrix, kind: str = TRIANGLE,
                max_level: int | None = None,
                initial: TensorVector | None = None,
                force: bool = False) -> DistributionTable:
    """Construct the full distribution table up to max_level (default n).

    Entries are exact: `iter_table_levels` climbs one step per orbit
    representative, the scaled vector of each representative is divided
    by its scale with `/`, giving ints where the quotient is integral
    and Fractions elsewhere, and the quotient is permuted to the rest of
    the orbit by the plan the climb used.  Raises ValueError, before any
    level is derived, for an initial vector without the symmetries of
    the kind, and, unless force, for a table of more than
    MAX_TABLE_ENTRIES entries (see `table_depth`).
    """
    n = Q.n
    max_level = table_depth(max_level, n, Q.m, force)
    if initial is None:
        initial = default_initial(Q, kind)
    elif initial.m != Q.m:
        raise ValueError(f"initial vector has m={initial.m}, matrix m={Q.m}")
    entries: dict[Triple, TensorVector] = {}
    for level in iter_table_levels(Q, kind, initial, max_level):
        entries.update(_fill(level.plan, level.quotients()))
    return DistributionTable(kind=kind, n=n, m=Q.m, entries=entries)


def weight_distribution(Q: QuotientMatrix) -> tuple[tuple[tuple, ...], ...]:
    """Matrices W^0..W^n with W^w_ij = #{y in C_j : d(v, y) = w}, v in C_i.

    W^w_ij is the interweight entry W^{w,0,0}_{ijj}, and the (w, 0, 0)
    line climbs on its own: `derive_entry` gives U^w = w! W^{w,0,0} from
    the level-0 interweight vector, and each vector is divided by w! once
    at the end (an int where integral, as in `build_table`).
    """
    n, m = Q.n, Q.m
    lifts = lifts_for(Q, INTERWEIGHT)
    line = {(0, 0, 0): initial_interweight(m)}
    for w in range(1, n + 1):
        line[(w, 0, 0)] = derive_entry(line, lifts, n, (w, 0, 0), 1)
    return tuple(
        tuple(tuple(W.get(i, j, j) for j in range(1, m + 1))
              for i in range(1, m + 1))
        for W in (U / math.factorial(w) for (w, _, _), U in line.items()))


@dataclass(frozen=True)
class Violation:
    """A table entry incompatible with any actual partition."""

    triple: Triple
    index: tuple[int, int, int]
    value: Fraction
    reason: str  # "negative" or "non-integer"


# The scan rule.  A triangle entry counts triples summed over the first
# vertex's cell, so for a partition that exists it is a nonnegative
# multiple of that anchor cell's size; an interweight entry is itself a
# count.  The rule comes in the two forms the scans need, how many
# entries break it and which, each over flat vectors with `size_at`, the
# anchor size of each position (1 throughout an interweight vector).
# Both test a whole vector with C-level passes first; v / size is an
# integer exactly when v % size == 0, for int and Fraction values alike.

@lru_cache(maxsize=64)
def _anchor_sizes(sizes: tuple) -> tuple[tuple, ...]:
    """Per slot s, the size of the cell in slot s of each flat
    position's index.  Entry 0 is the anchor size of each position; a
    vector that `permuted` by an order o takes to a triple's is anchored,
    at each of its own positions, by entry o.index(0)."""
    indices = list(iter_index_triples(len(sizes)))
    return tuple(tuple(sizes[index[s] - 1] for index in indices)
                 for s in range(3))


def _count_violations(entries: tuple, size_at: tuple) -> int:
    """How many entries break the scan rule."""
    if min(entries) >= 0 and not any(map(mod, entries, size_at)):
        return 0
    return sum(map(or_, map(lt, entries, repeat(0)),
                   map(truth, map(mod, entries, size_at))))


def _sites(vectors: Iterable[tuple[Triple, tuple]], size_at: tuple,
           indices: Sequence[tuple[int, int, int]]) -> Iterator[Violation]:
    """The `Violation` of each entry that breaks the scan rule, its value
    a Fraction, over (triple, entries) pairs in the order given and each
    vector's entries in index order.  Most vectors hold none: each is
    tested whole first, and its entries are walked only when it holds
    one."""
    for triple, entries in vectors:
        if min(entries) >= 0 and not any(map(mod, entries, size_at)):
            continue
        for index, v, size in zip(indices, entries, size_at):
            if v < 0 or v % size:
                yield Violation(triple, index, Fraction(v),
                                "negative" if v < 0 else "non-integer")


def scan_violations(table: DistributionTable,
                    sizes: Sequence) -> list[Violation]:
    """All violating entries in deterministic order.

    Order: level, then lexicographic triple, then lexicographic index.
    Negative entries always violate.  Integrality is tested on
    entry / sizes[i] for triangle tables (counts per anchor vertex) and
    on the entry itself for interweight tables, which read no size.
    Raises ValueError for sizes of another length than m.
    """
    if len(sizes) != table.m:
        raise ValueError(f"{len(sizes)} cell sizes for a table with m={table.m}")
    anchor = sizes if table.kind == TRIANGLE else (1,) * table.m
    vectors = ((triple, table.entries[triple].entries)
               for triple in table.triples())
    return list(_sites(vectors, _anchor_sizes(tuple(anchor))[0],
                       list(iter_index_triples(table.m))))


@dataclass
class CrossCheckReport:
    """Findings of the internal-consistency audit of a table."""

    checks_run: tuple[str, ...]
    derivation_mismatches: list[tuple[Triple, int]]
    symmetry_mismatches: list[tuple[Triple, tuple[int, int, int], str]]
    pairing_mismatches: list[Triple]
    marginal_mismatches: list[tuple[Triple, int]]

    @property
    def ok(self) -> bool:
        return not (self.derivation_mismatches or self.symmetry_mismatches
                    or self.pairing_mismatches or self.marginal_mismatches)


def cross_check(table: DistributionTable, Q: QuotientMatrix,
                companion: DistributionTable | None = None) -> CrossCheckReport:
    """Audit a table against every identity it must satisfy.

    (a) every alternative climbing route reproduces the stored vector,
        compared in the engine's scaled form U = r1! r2! r3! D T with D
        the common denominator of the level-0 vector.  When (b) finds
        nothing, only the orbit representatives are scaled and audited:
        the scaled vectors of every other triple are permutations of
        theirs, and since the step is equivariant so are its routes,
        which then agree too; only when a representative fails are all
        routes of all triples re-derived.  A table that fails (b) is
        scaled and audited triple by triple from the start.  So the list
        names every mismatching route either way;
    (b) index symmetries.  Triangle tables count unordered structure, so
        both the swap and the cyclic relabeling hold:
        X^{r1,r2,r3}_{ijk} = X^{r2,r1,r3}_{jik} = X^{r2,r3,r1}_{jki}.
        Interweight tables are anchored in the first slot; the anchor
        cannot trade places with a leg, and the only valid symmetry is
        the exchange of the two legs: X^{r1,r2,r3}_{ijk} = X^{r1,r3,r2}_{ikj}.
        They are tested by orbit (see the module docstring); only a
        table that fails is walked triple by triple for the list;
    (c) T = W * D' entrywise, when the companion table of the other
        kind is supplied (both must have the standard level 0);
    (d) multinomial marginals, for the standard level 0 only:
        sum_{j,k} X^{r1,r2,r3}_{ijk} = f_i * n! / (r1! r2! r3! (n-s)!)
        with f_i = |C_i| for triangle tables and 1 for interweight.

    Failures are reported as findings, not raised: an audit of a table
    for a matrix with no partition is exactly when one wants the list.
    A level 0 is standard when it is `default_initial`'s for Q.  A
    companion of the same kind, and a matrix or companion of another n
    or m, are refused with ValueError before any check runs.
    """
    n, m = table.n, table.m
    if companion is not None and companion.kind == table.kind:
        raise ValueError("companion table must be of the other kind")
    for name, other in (("matrix", Q), ("companion table", companion)):
        if other is not None and (other.n, other.m) != (n, m):
            raise ValueError(f"{name} has n={other.n}, m={other.m}; "
                             f"the table has n={n}, m={m}")
    lifts = lifts_for(Q, table.kind)
    standards = {}
    for kind in (TRIANGLE, INTERWEIGHT):
        try:
            standards[kind] = default_initial(Q, kind)
        except QuotientError:  # then no triangle level 0 is standard
            pass

    def standard(t: DistributionTable) -> bool:
        return t.entries[(0, 0, 0)] == standards.get(t.kind)

    def diagonal(kind: str) -> list:
        # f_i of each kind, the factor of its marginals
        return [standards[kind].get(i, i, i) for i in range(1, m + 1)]

    checks = ["derivations", "symmetry"]
    triples = table.triples()
    entries = table.entries
    reps, plan = _orbits(table.kind, triples)

    # the orbit plan's test first: each triple is its representative
    # permuted by its order, and each representative is invariant under
    # its stabilizer; then the table has every symmetry of its kind and
    # the triple-by-triple walk below, which lists the findings, would
    # find none
    sym: list[tuple[Triple, tuple[int, int, int], str]] = []
    if not (all(entries[t] == entries[rep].permuted(o)
                for t, rep, o in plan if o != _IDENTITY)
            and all(entries[t].permuted(o) == entries[t]
                    for t in reps for o in _stabilizer(table.kind, t))):
        indices = list(iter_index_triples(m))
        orders = _SYMMETRIES[table.kind]
        for triple in triples:
            vec = entries[triple].entries
            images = [(label, entries[
                (triple[order[0]], triple[order[1]], triple[order[2]])
            ].permuted(order).entries) for label, order in orders]
            if all(image == vec for _, image in images):
                continue
            for p, index in enumerate(indices):
                for label, image in images:
                    if vec[p] != image[p]:
                        sym.append((triple, index, label))

    # on a symmetric table every triple of an orbit has its
    # representative's scale, vector and routes, permuted, so the
    # representatives are scaled and audited for their orbits
    audited = triples if sym else reps
    D = common_denominator(entries[(0, 0, 0)])
    # / 1 applies the number rule: the scale clears every denominator of
    # a table's vector, so the scaled entries are ints
    scaled = {triple: entries[triple] * entry_scale(triple, D) / 1
              for triple in audited}
    if not sym:
        scaled = _fill(plan, scaled)

    def route_mismatches(over: list[Triple]) -> list[tuple[Triple, int]]:
        return [(triple, via) for triple in over if sum(triple)
                for via in (1, 2, 3) if triple[via - 1] > 0
                and derive_entry(scaled, lifts, n, triple, via)
                != scaled[triple]]

    deriv = route_mismatches(audited)
    if deriv and not sym:
        deriv = route_mismatches(triples)

    pairing: list[Triple] = []
    if companion is not None:
        tri = table if table.kind == TRIANGLE else companion
        inter = companion if table.kind == TRIANGLE else table
        if standard(tri) and standard(inter):
            checks.append("pairing")
            # T = W * D': each W entry times its anchor cell's size
            size_at = _anchor_sizes(tuple(diagonal(TRIANGLE)))[0]
            # the triples both tables hold, in the scan order
            for triple in triples:
                T, W = tri.entries.get(triple), inter.entries.get(triple)
                if (T is not None and W is not None
                        and T.entries != tuple(map(mul, W.entries, size_at))):
                    pairing.append(triple)

    marg: list[tuple[Triple, int]] = []
    if standard(table):
        checks.append("marginals")
        f = diagonal(table.kind)
        factorial = [math.factorial(k) for k in range(n + 1)]
        # n! / (n - s)! at each level s <= n
        falling = [factorial[n] // factorial[n - s] for s in range(n + 1)]
        block = m * m  # the (i, *, *) entries are one contiguous block
        for triple in triples:
            r1, r2, r3 = triple
            count = falling[r1 + r2 + r3] // (
                factorial[r1] * factorial[r2] * factorial[r3])
            vec = entries[triple].entries
            for i in range(m):
                if sum(vec[i * block:(i + 1) * block]) != f[i] * count:
                    marg.append((triple, i + 1))

    return CrossCheckReport(
        checks_run=tuple(checks),
        derivation_mismatches=deriv,
        symmetry_mismatches=sym,
        pairing_mismatches=pairing,
        marginal_mismatches=marg,
    )
