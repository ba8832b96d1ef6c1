"""Finite Heisenberg-group representation theory, ramification filtrations via
Herbrand composition, and the Swan/Artin conductor arithmetic behind the
degree-gamma comparison.

Character values are kept in exact cyclotomic-integer coordinates over Z, so
orthogonality and decomposition multiplicities are integer checks rather than
float comparisons.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul
from types import MappingProxyType

from .errors import CapExceeded, IncompatibleParams, InvalidParams
from .padic import PLFunc, herbrand_compose
from .residue import is_prime, make_field, make_gf, p_digits

HEIS_CAP = 3**5  # the largest |Q'| = p^(2e+1) enumerated
LAW_SAMPLES = 2_000  # sampled triples for `mul`'s own code in q_group_check


# ---------------------------------------------------------------------------
# exact cyclotomic integers over Z[zeta_p]


class Cyclo:
    """Elements of Z[zeta_p] (or Q[zeta_p]) in the basis 1..zeta^{p-2}.

    Products and conjugates are first formed as length-p coefficient vectors,
    exact modulo zeta^p = 1; `_reduced` then removes the zeta^{p-1}
    coefficient once, through 1 + zeta + ... + zeta^{p-1} = 0.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs=None):
        self.p = p
        self.coeffs = tuple(coeffs) if coeffs is not None else (0,) * (p - 1)

    @classmethod
    def zeta_pow(cls, p, k):
        k %= p
        if k < p - 1:
            c = [0] * (p - 1)
            c[k] = 1
            return cls(p, c)
        return cls(p, [-1] * (p - 1))

    def __add__(self, other):
        return Cyclo(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return Cyclo(self.p, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return Cyclo(self.p, [-a for a in self.coeffs])

    def __mul__(self, other):
        p = self.p
        if isinstance(other, int):
            return Cyclo(p, [a * other for a in self.coeffs])
        acc = [0] * p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs, i):
                    acc[j % p] += a * b
        return _reduced(p, acc)

    __rmul__ = __mul__

    def conj(self):
        """Complex conjugation zeta -> zeta^{-1}: zeta^k moves to zeta^{p-k}."""
        a = self.coeffs
        return _reduced(self.p, (a[0], 0) + a[:0:-1])

    def as_integer(self):
        if any(a != 0 for a in self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def exact_div(self, d: int):
        """self / d when d divides every coefficient, else None."""
        if any(a % d for a in self.coeffs):
            return None
        return Cyclo(self.p, [a // d for a in self.coeffs])

    def __eq__(self, other):
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return f"Cyclo(p={self.p}, {self.coeffs})"


def _reduced(p, c):
    """The Cyclo with length-p coefficients ``c`` over 1..zeta^{p-1}."""
    top = c[p - 1]
    return Cyclo(p, [x - top for x in c[: p - 1]])


# ---------------------------------------------------------------------------
# the groups Q, Q', Q''


@dataclass(frozen=True)
class HeisParams:
    p: int
    e: int

    def __post_init__(self):
        if not is_prime(self.p) or self.p == 2:
            raise IncompatibleParams("odd prime characteristic required")
        if self.e < 1:
            raise IncompatibleParams("e must be positive")
        if self.qprime_order > HEIS_CAP:
            raise CapExceeded(f"|Q'| = {self.qprime_order} beyond the cap {HEIS_CAP}")

    @property
    def q_order(self):
        return self.p ** (2 * self.e + 1) * (self.p**self.e + 1)

    @property
    def qprime_order(self):
        return self.p ** (2 * self.e + 1)


class QGroup:
    """The finite group on triples (a, b, c) in the algebraic closure, with
    a^{p^e+1} = 1, b^{p^{2e}} + b = 0, c^p - c + b^{p^e+1} = 0.

    Its wild subgroup Q' = {(1, b, c)} is kept as the (b, c) codes in
    ``wild`` (b in ``b_set`` order, then c in ``c_set[b]`` order), with
    ``wild_index`` and the multiplication table ``wild_table`` on those
    indices.  Building the table raises IncompatibleParams when a product
    leaves Q'.
    """

    def __init__(self, params: HeisParams):
        self.params = params
        p, e = params.p, params.e
        self.F = make_gf(p, 4 * e)
        F = self.F
        self.a_set = tuple(a for a in F.elements() if F.pow(a, p**e + 1) == F.one and a != F.zero)
        self.b_set = tuple(b for b in F.elements() if F.add(F.pow(b, p ** (2 * e)), b) == F.zero)
        # Artin-Schreier buckets: c^p - c = v
        buckets: dict = {}
        for c in F.elements():
            v = F.sub(F.pow(c, p), c)
            buckets.setdefault(v, []).append(c)
        self.c_set = MappingProxyType({
            b: tuple(buckets.get(F.neg(F.pow(b, p**e + 1)), ())) for b in self.b_set
        })
        # F's log, exp and Zech lists in the form `mul` reads with no modulo
        # and no zero test on a product (n = q - 1): the log of 0 is 2n, exp
        # runs over 0..4n and is 0 from 2n on, and the Zech log Z(d) is read
        # at -n < d < 2n and is 2n where 1 + g^d = 0
        n = F._order
        self._log0 = (2 * n,) + tuple(F._log[1:])
        self._exp0 = tuple(F._exp) * 2 + (0,) * (2 * n + 1)
        self._zech0 = tuple(2 * n if z is None else z for z in F._zech) * 2
        # beta's two maps on all of F: the log of x^{p^e}, and
        # t -> sum(t^{p^i}, i < e)
        self._frob_log = tuple(self._log0[F.pow(x, p**e)] for x in F.elements())
        self._trace = tuple(
            reduce(F.add, [F.pow(t, p**i) for i in range(e)]) for t in F.elements()
        )
        self.wild = tuple((b, c) for b in self.b_set for c in self.c_set[b])
        self.wild_index = MappingProxyType({x: i for i, x in enumerate(self.wild)})
        full = tuple((F.one, b, c) for b, c in self.wild)
        at, qmul = {x: i for i, x in enumerate(full)}, self.mul
        try:
            self.wild_table = tuple(tuple(at[qmul(x, y)] for y in full) for x in full)
        except KeyError:
            raise IncompatibleParams("a product of Q' leaves Q'") from None

    def elements(self):
        for a in self.a_set:
            for b in self.b_set:
                for c in self.c_set[b]:
                    yield (a, b, c)

    def beta(self, b1, b2):
        """The c-correction sum((b1^{p^e} b2)^{p^i}, i < e); a product
        (a1, b1, c1)(a2, b2, c2) takes it at (b1, a1*b2)."""
        return self._trace[self._exp0[self._frob_log[b1] + self._log0[b2]]]

    def mul(self, x, y):
        """(a1 a2, b1 + a1 b2, c1 + c2 + beta(b1, a1 b2)), each F.mul and
        F.add read off the log form: g^i g^j is exp[i + j], and a sum of two
        nonzero g^i + g^j is exp[i + Z(j - i)]."""
        a1, b1, c1 = x
        a2, b2, c2 = y
        log, exp, zech = self._log0, self._exp0, self._zech0
        i = log[a1]
        j = i + log[b2]
        a1b2 = exp[j]
        if b1 and a1b2:
            k = log[b1]
            b = exp[k + zech[j - k]]
        else:
            b = b1 or a1b2
        if c1 and c2:
            k = log[c1]
            c = exp[k + zech[log[c2] - k]]
        else:
            c = c1 or c2
        t = self.beta(b1, a1b2)
        if c and t:
            k = log[c]
            c = exp[k + zech[log[t] - k]]
        else:
            c = c or t
        return (exp[i + log[a2]], b, c)

    def identity(self):
        return (self.F.one, self.F.zero, self.F.zero)


@lru_cache(maxsize=None)
def q_group(params: HeisParams) -> QGroup:
    """Construct (and cache) Q for (p, e); its element sets are immutable."""
    return QGroup(params)


def q_group_check(params: HeisParams) -> bool:
    """Whether `mul` makes Q a group, with Q' a subgroup.  Exhaustive at
    every size: Q' on its table (closure, inverses, a central c-part);
    `_tables_hold`, `mul`'s log-form tables against F's own calls on all of
    F; and `_law_holds`, closure and associativity of the law (a1 a2,
    b1 + a1 b2, c1 + c2 + beta(b1, a1 b2)), with ``Q.beta`` as implemented,
    for every triple.  That leaves `mul`'s own lines, which read the tables.
    At (3, 1), the one size under HEIS_CAP with |Q|^2 <= 300,000, every
    product of `mul` goes into Q's full table, which is checked for an
    identity and inverses, and for associativity by Light's test: the a with
    (xa)z = x(az) for all x, z contain e and are closed under the product
    (Clifford-Preston, Algebraic Theory of Semigroups I, 1.2), so checking
    it for each a of a set A whose right products from e reach all of Q
    checks every triple; with it the table checks the two routes too.
    Elsewhere `mul` is checked at every x by x e = x = e x and x x^-1 = e =
    x^-1 x, with (a, b, c)^-1 = (a^-1, -a^-1 b, beta(b, b) - c), and on other
    products only by a sample: LAW_SAMPLES triples (x, y, z) from one
    ``random.Random(1)`` ``choices`` call, where xy must be the law by F's
    calls and (xy)z = x(yz)."""
    try:
        Q = q_group(params)
    except IncompatibleParams:  # a product of Q' leaves Q'
        return False
    els = list(Q.elements())
    n = len(els)
    if n != params.q_order:
        return False
    F = Q.F
    wt = Q.wild_table
    e_w = Q.wild_index[(F.zero, F.zero)]
    if any(e_w not in row for row in wt):
        return False
    for z in (Q.wild_index[(F.zero, c)] for c in Q.c_set[F.zero]):
        for y in range(len(wt)):
            if wt[z][y] != wt[y][z]:
                return False
    if not (_tables_hold(Q) and _law_holds(Q)):
        return False
    if n * n > 300_000:
        qmul, e = Q.mul, Q.identity()
        for x in els:
            a, b, c = x
            a_inv = F.pow(a, -1)
            x_inv = (a_inv, F.neg(F.mul(a_inv, b)), F.sub(Q.beta(b, b), c))
            if x != qmul(x, e) or x != qmul(e, x) or e != qmul(x, x_inv) or e != qmul(x_inv, x):
                return False
        draw = iter(random.Random(1).choices(els, k=3 * LAW_SAMPLES))
        for x, y, z in zip(draw, draw, draw):
            (a1, b1, c1), (a2, b2, c2) = x, y
            ab = F.mul(a1, b2)
            xy = qmul(x, y)
            if xy != (F.mul(a1, a2), F.add(b1, ab), F.add(F.add(c1, c2), Q.beta(b1, ab))):
                return False
            if qmul(xy, z) != qmul(x, qmul(y, z)):
                return False
        return True
    # closure is implied by a total multiplication table
    idx = {x: i for i, x in enumerate(els)}
    try:
        table = [[idx[Q.mul(x, y)] for y in els] for x in els]
    except KeyError:
        return False
    e_i = idx[Q.identity()]
    if any(table[i][e_i] != i or table[e_i][i] != i for i in range(n)):
        return False
    if any(e_i not in table[i] for i in range(n)):
        return False
    # Light's test on a greedy A (|A| = 5 at (3, 1)), one row per (x, a):
    # (xa)z = x(az) for every z at once
    gens, reach = [], {e_i}
    for a in range(n):
        if a not in reach:
            gens.append(a)
            new = reach
            while new:
                new = {table[x][g] for x in new for g in gens} - reach
                reach |= new
    for row in table:
        for a in gens:
            if table[row[a]] != list(map(row.__getitem__, table[a])):
                return False
    return True


def _tables_hold(Q: QGroup) -> bool:
    """`mul`'s log-form tables against F's calls, entry by entry (n = q - 1):
    ``_exp0`` over 0..4n and ``_log0`` on all of F along the walk g^(k+1) =
    F.mul(g^k, g), ``_zech0`` at -n < d < 2n by F.add(1, g^d), and
    ``_frob_log`` and ``_trace`` on all of F by iterated p-th powers."""
    F, p, e = Q.F, Q.params.p, Q.params.e
    n = F._order
    log, exp, zech = Q._log0, Q._exp0, Q._zech0
    if len(log) != F.q or log[F.zero] != 2 * n or len(exp) != 4 * n + 1 or len(zech) != 2 * n:
        return False
    if exp[n : 2 * n] != exp[:n] or any(exp[2 * n :]) or zech[n:] != zech[:n]:
        return False
    x = F.one
    for k in range(n):  # a repeat of x fails log[x] == k, so all of F is met
        if exp[k] != x or log[x] != k:
            return False
        x = F.mul(x, F.gen)
    if any(zech[d] != log[F.add(F.one, exp[d])] for d in range(n)):
        return False
    for x in F.elements():
        s = w = x  # w = x^(p^i), s = sum over i of w
        for _ in range(e - 1):
            w = F.pow(w, p)
            s = F.add(s, w)
        if Q._trace[x] != s or Q._frob_log[x] != log[F.pow(w, p)]:
            return False
    return True


def _law_holds(Q: QGroup) -> bool:
    """The law on Q's sets, with ``Q.beta`` as the c-correction, is a group
    law: a_set is the p^e + 1 roots of a^(p^e+1) = 1 and c_set[b] the p roots
    of c^p - c = -b^(p^e+1); b_set is an additive group (its greedy span),
    a-stable on a basis; beta is additive in each argument (each b = t + g of
    the span walk, t earlier, against all of b_set) and a-invariant on basis
    pairs, which gives associativity; and beta^p - beta = -(b1^(p^e) b2 +
    b1 b2^(p^e)) on all of b_set^2, which gives closure."""
    F, p, e = Q.F, Q.params.p, Q.params.e
    N = p**e + 1
    if len(set(Q.a_set)) != N or any(F.pow(a, N) != F.one for a in Q.a_set):
        return False
    for b, cs in Q.c_set.items():
        if len(set(cs)) != p or any(F.sub(F.pow(c, p), c) != F.neg(F.pow(b, N)) for c in cs):
            return False
    span, basis = {F.zero: ()}, []
    for b in Q.b_set:
        if b not in span:
            span = _extend(span, b, F.add, p)
            basis.append(b)
    if span.keys() != set(Q.b_set) or any(F.mul(a, g) not in span for a in Q.a_set for g in basis):
        return False
    beta = {b1: {b2: Q.beta(b1, b2) for b2 in Q.b_set} for b1 in Q.b_set}
    at = {k: b for b, k in span.items()}
    for b, k in span.items():
        if not any(k):
            continue
        i = max(i for i, j in enumerate(k) if j)
        t, g = at[k[:i] + (k[i] - 1,) + k[i + 1 :]], basis[i]
        rb, rt, rg = beta[b], beta[t], beta[g]
        if any(rb[y] != F.add(rt[y], rg[y]) for y in Q.b_set):
            return False
        if any(beta[y][b] != F.add(beta[y][t], beta[y][g]) for y in Q.b_set):
            return False
    if any(
        Q.beta(F.mul(a, g), F.mul(a, h)) != beta[g][h] for a in Q.a_set for g in basis for h in basis
    ):
        return False
    frob = {b: F.pow(b, p**e) for b in Q.b_set}
    return all(
        F.sub(F.pow(v, p), v) == F.neg(F.add(F.mul(frob[b1], b2), F.mul(b1, frob[b2])))
        for b1, row in beta.items()
        for b2, v in row.items()
    )


# ---------------------------------------------------------------------------
# the character table of Q'


def _extend(span, g, add, p):
    """The F_p-span of ``span`` (element -> coordinate tuple) and g: coset
    after coset, each s + j*g (j < p) gets the coordinates of s followed by j."""
    out, coset = {}, span.items()
    for j in range(p):
        out.update((t, c + (j,)) for t, c in coset)
        coset = [(add(t, g), c) for t, c in coset]
    return out


class QPrimeTable:
    """Exact character table of the Heisenberg group Q' = {(b, c)}, on the
    elements, index and multiplication table that Q holds for it.  One span
    walk, `_extend`, builds the b-group's coordinates, the isotropic
    subgroup and the coordinates on A that fix the split character."""

    def __init__(self, params: HeisParams):
        p = params.p
        self.params = params
        self.Q = q_group(params)
        F = self.Q.F
        self.p = p
        self.elements = self.Q.wild
        self.index = self.Q.wild_index
        self.n = len(self.elements)
        self.mtable = self.Q.wild_table
        e_i = self.index[(F.zero, F.zero)]
        self.itable = [row.index(e_i) for row in self.mtable]
        self.sq_idx = [self.mtable[i][i] for i in range(self.n)]
        self.classes = _class_reps(self)
        self.table = self.linear_characters() + self.big_characters()

    def center_int(self, x) -> int | None:
        """F_p-coordinate when x is central (b = 0), else None."""
        F = self.Q.F
        if x[0] != F.zero:
            return None
        if not F.in_prime_field(x[1]):
            raise IncompatibleParams("central coordinate outside the prime field")
        return x[1]

    def pairing(self, b1, b2) -> int:
        """Commutator pairing on the b-group with values in F_p."""
        F = self.Q.F
        v = F.sub(self.Q.beta(b1, b2), self.Q.beta(b2, b1))
        if not F.in_prime_field(v):
            raise IncompatibleParams("commutator pairing outside the prime field")
        return v

    # -- linear characters --------------------------------------------------

    def linear_characters(self):
        """(b, c) -> zeta^(w . coord(b)) for each w in F_p^dim, coord(b) on a
        greedy F_p-basis of the b-group; each value is one of p shared roots."""
        F, p = self.Q.F, self.p
        span = {F.zero: ()}
        for b in self.Q.b_set:
            if b not in span:
                span = _extend(span, b, F.add, p)
        dim = len(span[F.zero])
        roots = [Cyclo.zeta_pow(p, t) for t in range(p)]
        chars = []
        for code in range(p**dim):
            ws = p_digits(code, p, dim)
            at = {b: roots[sum(map(mul, ws, coord)) % p] for b, coord in span.items()}
            chars.append(("linear", tuple(ws), [at[b] for b, _c in self.elements]))
        return chars

    # -- the big characters --------------------------------------------------

    def isotropic_subgroup(self):
        """A maximal isotropic subgroup of the b-group for the pairing."""
        F = self.Q.F
        p, e = self.p, self.params.e
        span = {F.zero: ()}
        for b in self.Q.b_set:
            if b in span or any(self.pairing(b, s) != 0 for s in span):
                continue
            span = _extend(span, b, F.add, p)
            if len(span) == p**e:
                break
        if len(span) != p**e:
            raise IncompatibleParams("no maximal isotropic subgroup found")
        return list(span)

    def big_characters(self):
        """The p-1 irreducible characters of dimension p^e, induced from a
        character of a maximal abelian subgroup extending the center."""
        p = self.p
        B0 = self.isotropic_subgroup()
        A = [self.index[(b, c)] for b in B0 for c in self.Q.c_set[b]]
        ell = self._split_character(A)
        # histogram the ell-values of the A-landing conjugates x g x^-1 of
        # each class; they meet each member |Q'|/|class| times
        hists = [None] * self.n
        for _rep, cls in self.classes:
            hist = [0] * p
            for ci in cls:
                v = ell.get(ci)
                if v is not None:
                    hist[v] += self.n // len(cls)
            for gi in cls:
                hists[gi] = hist
        chars = []
        for j in range(1, p):
            vals = []
            for hist in hists:
                total = Cyclo(p)
                for t, cnt in enumerate(hist):
                    if cnt:
                        total = total + Cyclo.zeta_pow(p, j * t) * cnt
                val = total.exact_div(len(A))
                if val is None:
                    raise IncompatibleParams("induction arithmetic failed")
                vals.append(val)
            chars.append(("big", j, vals))
        return chars

    def _split_character(self, A):
        """An F_p-valued homomorphism, keyed by table index, on the abelian
        subgroup A (table indices) of exponent p, read off the coordinates on
        a greedy basis of A: a central generator takes its ``center_int``,
        any other 0, so it restricts to the identity coordinate on the center."""
        p, mt = self.p, self.mtable
        span, gens = {self.index[(self.Q.F.zero, self.Q.F.zero)]: ()}, []
        for g in A:
            if g not in span:
                span = _extend(span, g, lambda x, y: mt[x][y], p)
                gens.append(self.center_int(self.elements[g]) or 0)
        ell = {g: sum(map(mul, gens, coord)) % p for g, coord in span.items()}
        if ell.keys() != set(A) or any(
            ell.get(mt[x][y]) != (ell[x] + ell[y]) % p for x in A for y in A
        ):
            raise IncompatibleParams("no splitting character")
        for g in A:
            c = self.center_int(self.elements[g])
            if c is not None and ell[g] != c % p:
                raise IncompatibleParams("splitting misses the center")
        return ell

    def inner(self, vals1, vals2):
        # keyed by coefficient tuples: equal values are rarely the same object
        c1, c2 = [v.coeffs for v in vals1], [v.coeffs for v in vals2]
        conj = {c: Cyclo(self.p, c).conj().coeffs for c in set(c2)}
        codes, width = _pack(set(c1) | set(conj.values()), self.p, self.n)
        cell = sum(codes[x] * codes[conj[y]] for x, y in zip(c1, c2))
        c = _unpack(cell, self.p, width).exact_div(self.n)
        return None if c is None else c.as_integer()

    def dims(self):
        idx = self.index[(self.Q.F.zero, self.Q.F.zero)]
        return [vals[idx].as_integer() for (_, _, vals) in self.table]


@lru_cache(maxsize=None)
def qprime_char_table(p: int, e: int) -> QPrimeTable:
    return QPrimeTable(HeisParams(p, e))


def char_table_checks(p: int, e: int) -> dict:
    """Dimension count, constancy on conjugacy classes and the two
    orthogonality relations, exactly, on every pair (i, j).

    Both relations are sums over class representatives.  The first is
    weighted by class size, which equals the sum over all elements because
    every character is checked to be constant on every class.  Each is one
    `_gram_holds` call: one packed product per row of its Gram matrix.
    """
    T = qprime_char_table(p, e)
    tab = T.table
    dims = T.dims()
    report = {
        "n_linear": sum(1 for d in dims if d == 1),
        "n_big": sum(1 for d in dims if d > 1),
        "dims_sq_sum": sum(d * d for d in dims),
        "order": T.n,
    }
    classes = T.classes
    members = [g for _, cls in classes for g in cls]
    reps = [rep for rep, cls in classes for _ in cls]
    report["class_functions"] = all(
        list(map(vals.__getitem__, members)) == list(map(vals.__getitem__, reps))
        for _, _, vals in tab
    )
    sizes = [len(cls) for _, cls in classes]
    rows = [[vals[rep].coeffs for rep, _ in classes] for _, _, vals in tab]
    # each distinct value, keyed by its coefficients, is conjugated, and
    # scaled by each class size, once; every value is then packed once
    conj = {c: Cyclo(p, c).conj() for c in {c for row in rows for c in row}}
    weighted = {(c, s): (conj[c] * s).coeffs for c in conj for s in set(sizes)}
    values = set(conj) | {v.coeffs for v in conj.values()} | set(weighted.values())
    codes, width = _pack(values, p, max(len(tab), len(classes)), T.n)
    packed = [[codes[c] for c in row] for row in rows]
    bar_rows = [[codes[weighted[c, s]] for c, s in zip(row, sizes)] for row in rows]
    first = _gram_holds(packed, bar_rows, [T.n] * len(tab), p, width)
    report["first_orthogonality"] = first
    bar_cols = [[codes[conj[c].coeffs] for c in col] for col in zip(*rows)]
    second = _gram_holds(list(zip(*packed)), bar_cols, [T.n // s for s in sizes], p, width)
    report["second_orthogonality"] = second
    report["ok"] = (
        report["class_functions"]
        and first
        and second
        and report["dims_sq_sum"] == T.n
        and report["n_big"] == p - 1
        and report["n_linear"] == T.n // p
    )
    return report


def _pack(values, p, terms, diag=0):
    """Kronecker codes of the distinct cyclotomic integers ``values`` (their
    coefficient tuples), and their slot width, for sums of up to ``terms``
    products of codes compared with integers up to ``diag``.

    a + m * (1 + zeta + ... + zeta^{p-1}), m = max(0, -min a), is a again
    with p coordinates >= 0; they fill ``width``-bit slots of one int.  A
    product slot is at most p * top^2 (top: the largest coordinate), so a
    sum of ``terms`` products never carries from one slot into the next,
    and each of its slots and ``diag`` are below 2^(width - 1).
    """
    shifted = {}
    for v in values:
        m = max(0, -min(v))
        shifted[v] = [c + m for c in v] + [m]
    top = max((max(cs) for cs in shifted.values()), default=0)
    width = max(terms * p * top * top, diag).bit_length() + 1
    codes = {v: sum(c << (width * i) for i, c in enumerate(cs)) for v, cs in shifted.items()}
    return codes, width


def _unpack(code, p, width):
    """The Cyclo of a sum of products of `_pack` codes: its 2p - 1 slots,
    slot t + p folded onto slot t (zeta^p = 1), then `_reduced`."""
    mask = (1 << width) - 1
    slots = [(code >> (width * t)) & mask for t in range(2 * p - 1)] + [0]
    return _reduced(p, [slots[t] + slots[t + p] for t in range(p)])


def _gram_holds(left, right, diag, p, width):
    """Whether sum_r left[i][r] * right[j][r], over `_pack` codes of slot
    width ``width``, is the integer diag[i] at j = i and 0 at every other j.

    The vectors right[j] are stacked into one int per r, each j a cell of
    2p - 1 slots at bit S * j (S: the cell's bits rounded up to whole
    bytes), so row i of the Gram matrix is one sum of int products.  Masks
    fold slot t + p onto slot t in every cell and read its top slot m; a
    cell is the integer d exactly when its folded slots read (d + m, m, ...,
    m), so the row is compared as one int.  d must lie in [0, 2^(width-1)),
    where d + m cannot carry: any other d is refused.
    """
    if not all(0 <= d < 1 << (width - 1) for d in diag):
        raise IncompatibleParams("a diagonal value beyond the slot width")
    size, k = -(-(2 * p - 1) * width // 8), len(right)

    def stack(codes):
        return int.from_bytes(b"".join(c.to_bytes(size, "little") for c in codes), "little")

    stacked = [stack(col) for col in zip(*right)]
    shift = (p - 1) * width  # of the top slot
    low, high, top = (
        stack([mask] * k)
        for mask in ((1 << shift + width) - 1, (1 << shift) - 1, (1 << width) - 1 << shift)
    )
    ones = sum(1 << (width * t) for t in range(p))
    for i, row in enumerate(left):
        cells = sum(map(mul, row, stacked))
        folded = (cells & low) + (cells >> shift + width & high)
        if folded != ((folded & top) >> shift) * ones + (diag[i] << 8 * size * i):
            return False
    return True


def _class_reps(T: QPrimeTable):
    """Conjugacy classes of Q' as (representative index, member indices),
    through x g x^-1 on the table."""
    seen = set()
    reps = []
    mt, it = T.mtable, T.itable
    for gi in range(T.n):
        if gi in seen:
            continue
        cls = {mt[mt[xi][gi]][it[xi]] for xi in range(T.n)}
        seen |= cls
        reps.append((gi, cls))
    return reps


# ---------------------------------------------------------------------------
# tensor and exterior decompositions


def _decompose(T: QPrimeTable, vals):
    """Multiplicities of the exact character ``vals`` against the table."""
    out = []
    for name, tag, irr in T.table:
        m = T.inner(vals, irr)
        if m is None:
            raise IncompatibleParams("character does not decompose integrally")
        if m:
            out.append(((name, tag), m))
    return out


def _char_mul(v1, v2):
    return [a * b for a, b in zip(v1, v2)]


def _char_square_map(T, vals):
    return [vals[T.sq_idx[i]] for i in range(T.n)]


def _exterior_square(T, vals):
    """Exact character of the exterior square (values may need division by 2)."""
    sq = _char_mul(vals, vals)
    psq = _char_square_map(T, vals)
    out = []
    for a, b in zip(sq, psq):
        half = (a - b).exact_div(2)
        if half is None:
            raise IncompatibleParams("exterior square is not a character")
        out.append(half)
    return out


def tensor_decompositions(p: int, e: int) -> dict:
    """The tensor rules: tau x tau^{-1} splits into all linear characters,
    the exterior square of tau is (p^e - 1)/2 copies of the doubled-center
    one, and distinct-center tensors give p^e copies."""
    T = qprime_char_table(p, e)
    tab = T.table
    big = {tag: vals for name, tag, vals in tab if name == "big"}
    out = {}
    j = 1
    tau = big[j]
    tau_inv = big[p - 1]  # central character psi^{-1}
    dec = _decompose(T, _char_mul(tau, tau_inv))
    out["tau_times_dual_all_linear"] = (
        sorted(dec) == sorted(((("linear", tag), 1) for name, tag, _ in tab if name == "linear"))
    )
    ext = _decompose(T, _exterior_square(T, tau))
    out["exterior_square"] = ext == [(("big", (2 * j) % p), (p**e - 1) // 2)]
    # central characters add: big[1] x big[j2] is p^e copies of big[1 + j2];
    # at p = 3, j2 = 1 keeps 1 + j2 off the trivial central character
    j2 = min(2, p - 2)
    dec2 = _decompose(T, _char_mul(big[1], big[j2]))
    out["distinct_tensor"] = dec2 == [(("big", 1 + j2), p**e)]
    out["ok"] = all(v for k, v in out.items() if k != "ok")
    return out


# ---------------------------------------------------------------------------
# the wild restriction of the adjoint parameter, and conductors


@dataclass(frozen=True)
class FiltSpec:
    """Orders of the lower ramification subgroups, by integer index."""

    orders: tuple  # orders[j] = |Q_j| for j = 0..len-1 (then trivial)

    def ratio(self, j: int) -> Fraction:
        if j >= len(self.orders):
            return Fraction(0)
        return Fraction(self.orders[j], self.orders[0])


def ramification_stages(p: int, e: int, nprime: int):
    tame = PLFunc([], [Fraction(1, nprime * (p**e + 1))])
    middle = PLFunc([1], [Fraction(1), Fraction(1, p ** (2 * e))])
    top = PLFunc([p**e + 1], [Fraction(1), Fraction(1, p)])
    return [tame, middle, top]


def _check_tame_index(p: int, nprime: int):
    """The tame index of 2n = p^e * nprime: even, as p is odd, and a divisor
    of p - 1, so that F_p holds the central characters' roots of unity."""
    if nprime <= 0 or nprime % 2 or (p - 1) % nprime:
        raise InvalidParams(f"nprime {nprime} is not an even divisor of p - 1 = {p - 1}")


@lru_cache(maxsize=None)
def ramification_jumps(p: int, e: int, nprime: int) -> FiltSpec:
    """Compose the three Herbrand stages and read off the group orders (cached:
    the conductor suite reads it for its row and again in swan_artin_gamma)."""
    _check_tame_index(p, nprime)
    comp = herbrand_compose(ramification_stages(p, e, nprime))
    total = nprime * p ** (2 * e + 1) * (p**e + 1)
    orders = [total]
    j = 1
    while True:
        slope = comp.slopes[_segment_of(comp, Fraction(2 * j - 1, 2))]
        size = slope * total
        if size.denominator != 1:
            raise IncompatibleParams("non-integral ramification order")
        if size == 1:
            break
        orders.append(int(size))
        j += 1
    return FiltSpec(tuple(orders))


def _segment_of(f: PLFunc, u: Fraction) -> int:
    for i, b in enumerate(f.breaks):
        if u <= b:
            return i
    return len(f.breaks)


def ad_phi_restriction(p: int, e: int, nprime: int):
    """The wild-inertia restriction data of the adjoint of the parameter: the
    central-character orbit of the direct summands and the big-character
    count M of their exterior square, after checking the exterior square's
    decomposition and the det twist's central character."""
    _check_tame_index(p, nprime)
    two_n = p**e * nprime
    T = qprime_char_table(p, e)
    zeta = pow(make_field(p).gen.a, (p - 1) // nprime, p)
    orbit = [pow(zeta, i, p) for i in range(nprime)]
    if len(set(orbit)) != nprime:
        raise IncompatibleParams("central-character orbit is not free")
    # exterior square of the direct sum, decomposed exactly
    big = {tag: vals for name, tag, vals in T.table if name == "big"}
    total = [Cyclo(T.p) for _ in range(T.n)]
    for jj in orbit:
        total = [a + b for a, b in zip(total, big[jj])]
    ext = _decompose(T, _exterior_square(T, total))
    big_mult = sum(m for (name, tag), m in ext if name == "big")
    lin_mults = {tag: m for (name, tag), m in ext if name == "linear"}
    M = nprime * (two_n - p**e - 1) // 2
    if big_mult != M:
        raise IncompatibleParams(f"exterior big part {big_mult} != {M}")
    if any(m != nprime // 2 for m in lin_mults.values()) or len(lin_mults) != T.n // p:
        raise IncompatibleParams("linear part of the exterior square is off")
    # det-twist part: the det character is trivial on the center, so the
    # twisted sum restricts again to the same orbit of big characters
    det_central = sum(orbit) * (p**e) % p
    if det_central != 0:
        raise IncompatibleParams("det twist has nontrivial central character")
    return {"orbit": orbit, "M": M}


def swan_of_rep(T: QPrimeTable, vals, filt: FiltSpec) -> Fraction:
    """sum_j dim(V/V^{Q_j}) |Q_j|/|Q_0| from the restriction data; Q_1 is the
    whole wild part, Q_2..Q_{p^e+1} the center."""
    p, e = T.p, T.params.e
    F = T.Q.F
    dim = vals[T.index[(F.zero, F.zero)]].as_integer()
    center = [T.index[(F.zero, c)] for c in T.Q.c_set[F.zero]]
    inv_full = _invariant_dim(vals, range(T.n))
    inv_center = _invariant_dim(vals, center)
    total = Fraction(0)
    total += (dim - inv_full) * filt.ratio(1)
    for j in range(2, p**e + 2):
        total += (dim - inv_center) * filt.ratio(j)
    return total


def _invariant_dim(vals, subgroup) -> int:
    """The mean of the character over the subgroup (table indices)."""
    total = Cyclo(vals[0].p)
    for g in subgroup:
        total = total + vals[g]
    mean = total.exact_div(len(subgroup))
    if mean is None:
        raise IncompatibleParams("invariant dimension is not an integer")
    return mean.as_integer()


def swan_closed_values(p: int, e: int, nprime: int):
    """Per-irreducible closed Swan contributions to compare against."""
    return {
        "big": Fraction(1, nprime),
        "linear_nontrivial": Fraction(1, nprime * (p**e + 1)),
    }


def swan_artin_gamma(p: int, e: int, nprime: int) -> dict:
    """Swan and Artin conductors of the adjoint parameter and |gamma(0)|.

    Swan is computed twice: from the generic filtration sum over the actual
    restriction data, and from the closed per-irreducible values; both must
    give n.  Artin adds the full fixed-space codimension n(2n+1), giving
    2n^2 + 2n, so |gamma| = q^(n^2+n).
    """
    rest = ad_phi_restriction(p, e, nprime)
    filt = ramification_jumps(p, e, nprime)
    T = qprime_char_table(p, e)
    two_n = p**e * nprime
    n = two_n // 2
    closed = swan_closed_values(p, e, nprime)
    # exterior-square part
    swan_ext = rest["M"] * closed["big"] + Fraction(nprime, 2) * (
        (T.n // p - 1) * closed["linear_nontrivial"]
    )
    # det-twist part: nprime big summands
    swan_det = nprime * closed["big"]
    swan_total = swan_ext + swan_det
    # generic filtration route on one big and one nontrivial linear character
    big_vals = next(vals for name, tag, vals in T.table if name == "big")
    lin_vals = next(
        vals
        for name, tag, vals in T.table
        if name == "linear" and any(t != 0 for t in tag)
    )
    triv_vals = next(
        vals
        for name, tag, vals in T.table
        if name == "linear" and all(t == 0 for t in tag)
    )
    check_big = swan_of_rep(T, big_vals, filt)
    check_lin = swan_of_rep(T, lin_vals, filt)
    check_triv = swan_of_rep(T, triv_vals, filt)
    if (
        check_big != closed["big"]
        or check_lin != closed["linear_nontrivial"]
        or check_triv != 0
    ):
        raise IncompatibleParams(
            f"filtration route {check_big}, {check_lin}, {check_triv} "
            f"disagrees with the closed Swan values"
        )
    if swan_total != n:
        raise IncompatibleParams(f"Swan {swan_total} != n = {n}")
    artin = swan_total + n * (2 * n + 1)
    return {
        "n": n,
        "swan": swan_total,
        "swan_exterior_part": swan_ext,
        "swan_det_part": swan_det,
        "artin": artin,
        "log_q_gamma": artin / 2,
    }
