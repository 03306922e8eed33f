"""Trivariate generalized Krawtchouk polynomials over Q[n].

P^{r1,r2,r3}(x, y, z) is the polynomial of degree at most r1 + r2 + r3
that maps the level-0 vector of any distribution table to its level
(r1, r2, r3) vector when x, y, z are replaced by the three slot lifts
of the quotient matrix (`eval_at_lifts`).  Three independent
constructions are provided and their agreement is part of the tests:

* `poly_recursive` climbs the same exchange identities that drive the
  table recursion, using the cyclic substitution
  P^{0,b,c}(x, y, z) = P^{b,c,0}(y, z, x) when the first part is zero;

* `poly_direct` expands a closed triple sum of signed quadrinomial
  coefficients in the four quarter arguments (n +- x +- y +- z)/4,
  each part split on its own over the four arguments;

* `genfun_coeff` reads the coefficient of X^{r1} Y^{r2} Z^{r3} off the
  four-factor product

      prod_f (1 +- X +- Y +- Z)^{(n +- x +- y +- z)/4},

  expanding each factor by the generalized binomial series and keeping
  only the box of exponents componentwise <= (r1, r2, r3), the only
  ones that feed the wanted coefficient.

Routes 2 and 3 share one integer kernel, `_scaled_ff` (4^L times the
L-term falling factorial of a quarter argument): both sum integer
polynomials scaled by 4^R r1! r2! r3! and divide by that once at the
end.  Route 1 works on Fractions throughout and is the reference.

At r2 = r3 = 0 the family degenerates to the classical Krawtchouk
polynomial: P^{r,0,0}(x, y, z) = K_r((n - x)/2).

Polynomials are exact: monomials x^i y^j z^k n^d with int or Fraction
coefficients.  `render` produces the canonical text form (graded-lex
monomial order, common denominator pulled out).

Evaluation runs in integers throughout.  `_cleared_terms` is the one
rule for P at a dimension n: its coefficients there times D, the lcm
of their denominators, summed from integer numerators over the powers
of n.  `specialize_n` divides them by D again, for `poly --n`.
`eval_at_lifts` and the dense test aid `materialize_poly_at_lifts`
apply integer combinations of lift powers to one vector at a time and
divide by D once; Fractions appear only where the level-0 vector has
them (cell sizes that are not integers) or where that division leaves
an entry that is not integral, as in the table engine.
`lift_image_is_zero` applies no lift: it reduces P modulo the minimal
polynomial of S (`quotient.min_poly`, an integer Krylov search) in
each variable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, mul

from .exact_linalg import TensorVector, apply_lift, iter_index_triples
from .quotient import QuotientMatrix, check_dimension, min_poly
from .recursion import TRIANGLE, default_initial, lifts_for


class TriPoly:
    """Polynomial in x, y, z and the dimension symbol n over Q.

    Stored as a dict mapping exponent 4-tuples (x, y, z, n) to nonzero
    rational coefficients.  Treat instances as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None) -> None:
        self.terms = {mono: c for mono, c in (terms or {}).items() if c != 0}

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c) -> "TriPoly":
        return cls({(0, 0, 0, 0): c})

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree_xyz(self) -> int:
        if not self.terms:
            return 0
        return max(dx + dy + dz for (dx, dy, dz, _) in self.terms)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "TriPoly") -> "TriPoly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0) + c
        return TriPoly(out)

    def __sub__(self, other: "TriPoly") -> "TriPoly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0) - c
        return TriPoly(out)

    def __mul__(self, other):
        if isinstance(other, TriPoly):
            out: dict = {}
            for (a1, b1, c1, d1), u in self.terms.items():
                for (a2, b2, c2, d2), v in other.terms.items():
                    mono = (a1 + a2, b1 + b2, c1 + c2, d1 + d2)
                    out[mono] = out.get(mono, 0) + u * v
            return TriPoly(out)
        return TriPoly({mono: c * other for mono, c in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, c) -> "TriPoly":
        return TriPoly({mono: Fraction(v) / c for mono, v in self.terms.items()})

    def __pow__(self, e: int) -> "TriPoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = ONE
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriPoly):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        return f"TriPoly({self.render()!r})"

    # -- substitutions -------------------------------------------------

    def rotated(self) -> "TriPoly":
        """The polynomial p(y, z, x): substitute x->y, y->z, z->x."""
        return TriPoly({(c_, a, b, d): v
                        for (a, b, c_, d), v in self.terms.items()})

    def substitute_x(self, repl: "TriPoly") -> "TriPoly":
        """Substitute repl for x; only valid when y and z are absent."""
        out = ZERO
        for (dx, dy, dz, dn), c in self.terms.items():
            if dy or dz:
                raise ValueError("substitute_x requires a polynomial in x alone")
            out = out + TriPoly({(0, 0, 0, dn): c}) * repl ** dx
        return out

    def specialize_n(self, n_value: int) -> dict[tuple[int, int, int], Fraction]:
        """Collapse the n variable at a nonnegative dimension: the nonzero
        Fraction coefficient of each (x, y, z) exponent, in the order of
        its first term here."""
        check_dimension(n_value)
        D, terms = _cleared_terms(self, n_value)
        return {e: Fraction(k, D) for e, k in terms.items()}

    # -- canonical text form --------------------------------------------

    def render(self) -> str:
        """Canonical string: graded-lex in (x, y, z) descending, n-parts
        with leading-positive orientation, common denominator pulled out."""
        if not self.terms:
            return "0"
        groups: dict[tuple[int, int, int], dict[int, Fraction]] = {}
        den = 1
        for (dx, dy, dz, dn), c in self.terms.items():
            c = Fraction(c)
            groups.setdefault((dx, dy, dz), {})[dn] = c
            den = den * c.denominator // math.gcd(den, c.denominator)
        ordered = sorted(groups,
                         key=lambda e: (-(e[0] + e[1] + e[2]),
                                        (-e[0], -e[1], -e[2])))
        pieces: list[tuple[int, str]] = []
        for mono in ordered:
            nterms = sorted(((dn, int(c * den))
                             for dn, c in groups[mono].items()),
                            key=lambda t: -t[0])
            if nterms[0][1] < 0 and nterms[-1][1] > 0:
                nterms.reverse()
            if mono == (0, 0, 0):
                for dn, c in nterms:
                    pieces.append((1 if c > 0 else -1, _n_term(abs(c), dn)))
            elif len(nterms) == 1:
                dn, c = nterms[0]
                pieces.append((1 if c > 0 else -1,
                               _scaled_mono(abs(c), dn, mono)))
            else:
                dn0, c0 = nterms[0]
                inner = ("-" if c0 < 0 else "") + _n_term(abs(c0), dn0)
                for dn, c in nterms[1:]:
                    inner += ("-" if c < 0 else "+") + _n_term(abs(c), dn)
                pieces.append((1, f"({inner})*{_mono_str(mono)}"))
        body = ("-" if pieces[0][0] < 0 else "") + pieces[0][1]
        for sign, text in pieces[1:]:
            body += (" - " if sign < 0 else " + ") + text
        return f"({body})/{den}" if den != 1 else body


def _mono_str(mono: tuple[int, int, int]) -> str:
    parts = []
    for name, e in zip("xyz", mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _n_term(c: int, dn: int) -> str:
    if dn == 0:
        return str(c)
    npart = "n" if dn == 1 else f"n^{dn}"
    return npart if c == 1 else f"{c}*{npart}"


def _scaled_mono(c: int, dn: int, mono: tuple[int, int, int]) -> str:
    ms = _mono_str(mono)
    if dn == 0:
        return ms if c == 1 else f"{c}*{ms}"
    return f"{_n_term(c, dn)}*{ms}"


ZERO = TriPoly()
ONE = TriPoly({(0, 0, 0, 0): 1})
X = TriPoly({(1, 0, 0, 0): 1})
Y = TriPoly({(0, 1, 0, 0): 1})
Z = TriPoly({(0, 0, 1, 0): 1})
N = TriPoly({(0, 0, 0, 1): 1})


def falling_factorial(p: TriPoly, length: int) -> TriPoly:
    """p (p - 1) ... (p - length + 1); the empty product is 1."""
    out = ONE
    for t in range(length):
        out = out * (p - TriPoly.const(t))
    return out


def _check_parts(r1: int, r2: int, r3: int, bound: int = 200) -> None:
    """Refuse a negative part, or a degree r1 + r2 + r3 above 200 or
    above `bound`.  200 caps all three routes: route 1 recurses one level
    per degree, two stack entries a level on Python 3.11, where it
    overflows the default recursion limit near degree 500; at 200 it
    takes about 19 s.  Routes 2 and 3 pass bound=12 for their cost."""
    if min(r1, r2, r3) < 0:
        raise ValueError(f"negative part in ({r1}, {r2}, {r3})")
    if r1 + r2 + r3 > 200:
        raise ValueError(f"degree r1 + r2 + r3 = {r1 + r2 + r3} exceeds "
                         f"the cap of 200")
    if r1 + r2 + r3 > bound:
        raise ValueError(f"degree r1 + r2 + r3 = {r1 + r2 + r3} exceeds "
                         f"the bound of {bound} of routes 2 and 3 "
                         f"(direct and genfun)")


# ---------------------------------------------------------------------------
# route 1: the exchange-identity recursion

def poly_recursive(r1: int, r2: int, r3: int) -> TriPoly:
    """Route 1: climb the solved exchange identity for the first part,

        P^{a,b,c} = [ x P^{a-1,b,c} - (n-a-b-c+2) P^{a-2,b,c}
                      - (b+1) P^{a-1,b+1,c-1} - (c+1) P^{a-1,b-1,c+1} ] / a,

    rotating the parts cyclically when the first one is zero.
    """
    _check_parts(r1, r2, r3)
    return _P(r1, r2, r3)


@lru_cache(maxsize=None)
def _P(a: int, b: int, c: int) -> TriPoly:
    if a < 0 or b < 0 or c < 0:
        return ZERO
    if a == b == c == 0:
        return ONE
    if a > 0:
        return (X * _P(a - 1, b, c)
                - (N + TriPoly.const(2 - a - b - c)) * _P(a - 2, b, c)
                - (b + 1) * _P(a - 1, b + 1, c - 1)
                - (c + 1) * _P(a - 1, b - 1, c + 1)) / a
    return _P(b, c, a).rotated()


# ---------------------------------------------------------------------------
# route 2: the closed triple sum

# signs (s1, s2, s3) of the quarter arguments (n + s1 x + s2 y + s3 z)/4
_SIGNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


@lru_cache(maxsize=None)
def _scaled_ff(f: int, length: int) -> TriPoly:
    """4^length times the length-term falling factorial of the f-th quarter
    argument.  Integer coefficients throughout."""
    if length == 0:
        return ONE
    s1, s2, s3 = _SIGNS[f]
    linear = TriPoly({(0, 0, 0, 1): 1, (1, 0, 0, 0): s1, (0, 1, 0, 0): s2,
                      (0, 0, 1, 0): s3, (0, 0, 0, 0): -4 * (length - 1)})
    return _scaled_ff(f, length - 1) * linear


def _scale(r1: int, r2: int, r3: int) -> int:
    """4^(r1+r2+r3) r1! r2! r3!: the one divisor of routes 2 and 3."""
    return (4 ** (r1 + r2 + r3) * math.factorial(r1) * math.factorial(r2)
            * math.factorial(r3))


@lru_cache(maxsize=None)
def _ff_product(sa: int, sb: int, sc: int, s0: int) -> TriPoly:
    return ((_scaled_ff(1, sa) * _scaled_ff(2, sb))
            * (_scaled_ff(3, sc) * _scaled_ff(0, s0)))


def _part_splits(r: int, t: int) -> dict[tuple[int, int, int], int]:
    """Weights C(r, i) C(r-i, j) C(r-i-j, k) of the splits of part t that
    give i, j, k to quarter arguments 1, 2, 3 (the rest to argument 0),
    each signed by part t's sign in the arguments it goes to."""
    s1, s2, s3 = _SIGNS[1][t], _SIGNS[2][t], _SIGNS[3][t]
    return {(i, j, k): (s1 ** i * s2 ** j * s3 ** k * math.comb(r, i)
                        * math.comb(r - i, j) * math.comb(r - i - j, k))
            for i in range(r + 1) for j in range(r - i + 1)
            for k in range(r - i - j + 1)}


def poly_direct(r1: int, r2: int, r3: int) -> TriPoly:
    """Route 2: the direct formula, a signed sum of quadrinomial products.

    Each part splits on its own over the four quarter arguments
    (`_part_splits`).  A quadrinomial's falling-factorial part depends
    only on the total each argument receives, so the three splits are
    convolved by those totals into integer weights, each multiplying one
    shared `_ff_product`; one exact division ends the sum.

    Refuses, with ValueError, a degree r1 + r2 + r3 above 12 before any
    work: (12, 0, 0) and (4, 4, 4) take 8-9 s, degree 20 runs past 60 s.
    """
    _check_parts(r1, r2, r3, bound=12)
    weights: dict[tuple[int, int, int], int] = {(0, 0, 0): 1}
    for t, r in enumerate((r1, r2, r3)):
        nxt: dict[tuple[int, int, int], int] = {}
        for (a, b, c), w in weights.items():
            for (i, j, k), u in _part_splits(r, t).items():
                key = (a + i, b + j, c + k)
                nxt[key] = nxt.get(key, 0) + w * u
        weights = nxt
    total = ZERO
    R = r1 + r2 + r3
    for (sa, sb, sc), w in sorted(weights.items()):
        if w:
            total = total + w * _ff_product(sa, sb, sc, R - sa - sb - sc)
    return total / _scale(r1, r2, r3)


# ---------------------------------------------------------------------------
# route 3: generating-function coefficient extraction

def genfun_coeff(r1: int, r2: int, r3: int) -> TriPoly:
    """Route 3: coefficient of X^{r1} Y^{r2} Z^{r3} in the product of the
    four factors (1 + s1 X + s2 Y + s3 Z)^delta_f, each expanded by the
    generalized binomial series.

    A product coefficient at e depends only on factor terms at exponents
    componentwise <= e, so the first three factors are multiplied over
    the box {e <= (r1, r2, r3)} alone and the fourth contributes only
    the target coefficient.  Entry e = (e1, e2, e3) of a partial product
    is _scale(e1, e2, e3) times its coefficient of X^e1 Y^e2 Z^e3.  In
    factor f alone the entry at (a, b, c) is s1^a s2^b s3^c
    _scaled_ff(f, a+b+c), and scaled series multiply by convolution with
    the weights C(e1, a2) C(e2, b2) C(e3, c2), (a2, b2, c2) the factor's
    exponent, so every entry is an integer polynomial.  The factor terms
    of one total degree share their _scaled_ff, which multiplies their
    weighted sum once.

    Refuses, with ValueError, a degree r1 + r2 + r3 above 12 before any
    work: (4, 4, 4) takes about 4 s, (5, 5, 4) 13 s, and degree 20 runs
    past 60 s.
    """
    _check_parts(r1, r2, r3, bound=12)
    box = [(a, b, c) for a in range(r1 + 1) for b in range(r2 + 1)
           for c in range(r3 + 1)]
    acc: dict[tuple[int, int, int], TriPoly] = {(0, 0, 0): ONE}
    for f in range(4):
        s1, s2, s3 = _SIGNS[f]
        nxt: dict[tuple[int, int, int], TriPoly] = {}
        for e in (box if f < 3 else [(r1, r2, r3)]):
            by_length: dict[int, TriPoly] = {}
            for (a1, b1, c1), p in acc.items():
                a2, b2, c2 = e[0] - a1, e[1] - b1, e[2] - c1
                if min(a2, b2, c2) < 0:
                    continue
                w = (s1 ** a2 * s2 ** b2 * s3 ** c2 * math.comb(e[0], a2)
                     * math.comb(e[1], b2) * math.comb(e[2], c2))
                L = a2 + b2 + c2
                by_length[L] = by_length.get(L, ZERO) + w * p
            nxt[e] = sum((_scaled_ff(f, L) * q for L, q in by_length.items()),
                         ZERO)
        acc = nxt
    return acc[(r1, r2, r3)] / _scale(r1, r2, r3)


# ---------------------------------------------------------------------------
# classical specialization

def classical_krawtchouk(r: int) -> TriPoly:
    """K_r as a polynomial in x (and n):
    K_r(x) = sum_i (-1)^i binom(x, i) binom(n - x, r - i)."""
    if r < 0:
        raise ValueError("negative degree")
    out = ZERO
    for i in range(r + 1):
        term = (falling_factorial(X, i) / math.factorial(i)) * (
            falling_factorial(N - X, r - i) / math.factorial(r - i))
        out = out + (-1) ** i * term
    return out


# ---------------------------------------------------------------------------
# lift evaluation

def _cleared_terms(P: TriPoly, n_value: int) -> tuple[int, dict]:
    """P at n = n_value times D, the lcm of the denominators of its
    coefficients there: D, and the nonzero integer coefficient of each
    (x, y, z) exponent, in the order of its first term in P.

    Integers throughout: the coefficients are cleared by the lcm D0 of
    their denominators and summed over the powers of n, then the sums
    and D0 are divided by their gcd g.  That gives D = D0 / g, since
    the lcm of the reduced denominators D0 / gcd(D0, N_e) of the sums
    N_e / D0 is D0 / gcd(D0, all N_e).
    """
    D0 = math.lcm(*(c.denominator for c in P.terms.values()))
    sums: dict[tuple[int, int, int], int] = {}
    for (dx, dy, dz, dn), c in P.terms.items():
        key = (dx, dy, dz)
        sums[key] = (sums.get(key, 0)
                     + c.numerator * (D0 // c.denominator) * n_value ** dn)
    g = math.gcd(D0, *sums.values())
    return D0 // g, {e: k // g for e, k in sums.items() if k}


def _image_at_lifts(P: TriPoly, Q: QuotientMatrix, mode: str,
                    v: TensorVector) -> TensorVector:
    """v P(L1, L2, L3): D v P(L1, L2, L3) is an integer combination of the
    lift powers of v, shared by the monomials, summed as flat tuples and
    divided by D once."""
    lifts = lifts_for(Q, mode)
    D, terms = _cleared_terms(P, Q.n)
    powers = {(0, 0, 0): v}

    def power(e: tuple[int, int, int]) -> TensorVector:
        if e not in powers:
            slot = 0 if e[0] else 1 if e[1] else 2
            down = tuple(x - (s == slot) for s, x in enumerate(e))
            powers[e] = apply_lift(power(down), lifts[slot])
        return powers[e]

    out = TensorVector.zero(Q.m).entries
    for e, k in terms.items():
        out = tuple(map(add, out, map(mul, power(e).entries, repeat(k))))
    return TensorVector(Q.m, out) / D


def eval_at_lifts(P: TriPoly, Q: QuotientMatrix,
                  mode: str = TRIANGLE) -> TensorVector:
    """Apply P(L1, L2, L3) to the level-0 vector of the given mode.

    The lifts commute pairwise, so monomials are well defined.  P is
    taken at n = Q.n, so this reproduces the table entry at (r1, r2, r3)
    whenever r1 + r2 + r3 <= n; at index sum n + 1 the image is the zero
    vector even though P(L1, L2, L3) itself need not vanish as a matrix.
    Entries are ints where integral, as in `build_table`.
    """
    return _image_at_lifts(P, Q, mode, default_initial(Q, mode))


def lift_image_is_zero(P: TriPoly, Q: QuotientMatrix,
                       mode: str = TRIANGLE) -> bool:
    """Whether P(L1, L2, L3) is the zero matrix, decided without the lifts.

    Each lift acts as S or S^T on one tensor slot.  Both have the minimal
    polynomial mu of S, so the lifts generate
    Q[x]/(mu) (x) Q[y]/(mu) (x) Q[z]/(mu), a tensor product of injective
    maps: P(L1, L2, L3) = 0 exactly when P, at n = Q.n, reduces to zero
    modulo mu(x), mu(y) and mu(z).  The coefficients are cleared by the
    lcm of their denominators and each monomial is replaced by the
    product of its residues x^e mod mu, all integers.
    """
    lifts_for(Q, mode)  # rejects an unknown mode
    mu = min_poly(Q.rows)
    d = len(mu) - 1
    terms = _cleared_terms(P, Q.n)[1]
    if not terms:
        return True
    # residues[e]: x^e mod mu, ascending.  x * r shifts r up one degree
    # and, mu being monic, rewrites its x^d term as x^d - mu (mod mu).
    residues = [[1] + [0] * (d - 1)]
    for _ in range(max(map(max, terms))):
        r = residues[-1]
        residues.append([(r[i - 1] if i else 0) - r[-1] * mu[d - i]
                         for i in range(d)])
    acc = [0] * d ** 3
    for (a, b, c), k in terms.items():
        for i, u in enumerate(residues[a]):
            for j, v in enumerate(residues[b]):
                if u and v:
                    base = (i * d + j) * d
                    for t, w in enumerate(residues[c]):
                        acc[base + t] += k * u * v * w
    return not any(acc)


def materialize_poly_at_lifts(P: TriPoly, Q: QuotientMatrix,
                              mode: str = TRIANGLE) -> tuple[tuple, ...]:
    """Dense m^3 x m^3 matrix P(L1, L2, L3).  Debug and test aid only."""
    return tuple(
        _image_at_lifts(P, Q, mode, TensorVector.unit(Q.m, t)).entries
        for t in iter_index_triples(Q.m))
