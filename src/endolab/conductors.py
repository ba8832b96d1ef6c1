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
from functools import lru_cache
from types import MappingProxyType

from .errors import CapExceeded, IncompatibleParams
from .padic import PLFunc, herbrand_compose
from .residue import is_prime, make_field, make_gf, p_digits

ENUM_CAP = 3000
ASSOC_SAMPLES = 20_000


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

    @classmethod
    def integer(cls, p, n):
        return cls(p, [n] + [0] * (p - 2))

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

    def is_zero(self):
        return all(a == 0 for a in self.coeffs)

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
    indices.  Building the table raises KeyError when a product leaves Q'.
    """

    def __init__(self, params: HeisParams):
        self.params = params
        p, e = params.p, params.e
        if params.q_order > 10 * ENUM_CAP:
            raise CapExceeded(f"|Q| = {params.q_order} beyond enumeration cap")
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
        self.wild = tuple((b, c) for b in self.b_set for c in self.c_set[b])
        self.wild_index = MappingProxyType({x: i for i, x in enumerate(self.wild)})
        self.wild_table = tuple(
            tuple(self.wild_index[self.mul((F.one, *x), (F.one, *y))[1:]] for y in self.wild)
            for x in self.wild
        )

    def elements(self):
        for a in self.a_set:
            for b in self.b_set:
                for c in self.c_set[b]:
                    yield (a, b, c)

    def beta(self, b1, b2):
        """The c-correction sum((b1^{p^e} b2)^{p^i}, i < e); a product
        (a1, b1, c1)(a2, b2, c2) takes it at (b1, a1*b2)."""
        F = self.F
        p, e = self.params.p, self.params.e
        t = F.mul(F.pow(b1, p**e), b2)
        out = F.zero
        for _ in range(e):
            out = F.add(out, t)
            t = F.pow(t, p)
        return out

    def mul(self, x, y):
        a1, b1, c1 = x
        a2, b2, c2 = y
        F = self.F
        a1b2 = F.mul(a1, b2)
        return (F.mul(a1, a2), F.add(b1, a1b2), F.add(F.add(c1, c2), self.beta(b1, a1b2)))

    def identity(self):
        return (self.F.one, self.F.zero, self.F.zero)


@lru_cache(maxsize=None)
def q_group(params: HeisParams) -> QGroup:
    """Construct (and cache) Q for (p, e); its element sets are immutable."""
    return QGroup(params)


def q_group_check(params: HeisParams) -> bool:
    """Q' exhaustively on its table: closure (the table exists), inverses
    and a c-part central in it.  Q: identity, inverses and associativity on
    its full table when |Q|^2 is small; otherwise closure, identity and
    associativity on deterministically sampled triples."""
    try:
        Q = q_group(params)
    except KeyError:  # a product of Q' leaves Q'
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
    idx = {x: i for i, x in enumerate(els)}
    if n * n > 300_000:
        rng = random.Random(1)
        for _ in range(ASSOC_SAMPLES):
            x, y, z = (els[rng.randrange(n)] for _ in range(3))
            xy = Q.mul(x, y)
            if xy not in idx:
                return False
            if Q.mul(xy, z) != Q.mul(x, Q.mul(y, z)):
                return False
            if Q.mul(x, Q.identity()) != x:
                return False
        return True
    # closure is implied by a total multiplication table
    try:
        table = [[idx[Q.mul(x, y)] for y in els] for x in els]
    except KeyError:
        return False
    e_i = idx[Q.identity()]
    if any(table[i][e_i] != i or table[e_i][i] != i for i in range(n)):
        return False
    if any(e_i not in table[i] for i in range(n)):
        return False
    # under the caps only |Q| = 108 (p = 3, e = 1) has |Q|^2 <= 300,000, and
    # its 108^3 < 1.3 * 10^6 triples are all checked
    for i in range(n):
        for j in range(n):
            for kk in range(n):
                if table[table[i][j]][kk] != table[i][table[j][kk]]:
                    return False
    return True


# ---------------------------------------------------------------------------
# the character table of Q'


class QPrimeTable:
    """Exact character table of the Heisenberg group Q' = {(b, c)}, on the
    elements, index and multiplication table that Q holds for it."""

    def __init__(self, params: HeisParams):
        p = params.p
        if params.qprime_order > ENUM_CAP:
            raise CapExceeded(f"|Q'| = {params.qprime_order} beyond cap")
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

    def b_basis(self):
        """Greedy F_p-basis of the b-group with a coordinate map."""
        F = self.Q.F
        basis = []
        span = {F.zero: ()}
        for b in self.Q.b_set:
            if b in span:
                continue
            basis.append(b)
            new = {}
            for s, coord in span.items():
                t = s
                for j in range(1, self.p):
                    t = F.add(t, b)
                    new[t] = coord + (j,)
            for s in list(span):
                span[s] = span[s] + (0,)
            for s, coord in new.items():
                span[s] = coord
        return basis, span

    def linear_characters(self):
        basis, span = self.b_basis()
        dim = len(basis)
        p = self.p
        chars = []
        for code in range(p**dim):
            ws = p_digits(code, p, dim)
            vals = []
            for (b, _c) in self.elements:
                coord = span[b]
                t = sum(w * x for w, x in zip(ws, coord)) % p
                vals.append(Cyclo.zeta_pow(p, t))
            chars.append(("linear", tuple(ws), vals))
        return chars

    # -- the big characters --------------------------------------------------

    def isotropic_subgroup(self):
        """A maximal isotropic subgroup of the b-group for the pairing."""
        F = self.Q.F
        p, e = self.p, self.params.e
        span = [F.zero]
        for b in self.Q.b_set:
            if b in span:
                continue
            if any(self.pairing(b, s) != 0 for s in span):
                continue
            new = list(span)
            t = b
            for _ in range(1, p):
                new.extend(F.add(t, s) for s in span)
                t = F.add(t, b)
            span = list(dict.fromkeys(new))
            if len(span) == p**e:
                break
        if len(span) != p**e:
            raise IncompatibleParams("no maximal isotropic subgroup found")
        return span

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
        subgroup A (table indices) restricting to the identity coordinate on
        the center (exists: A has exponent p)."""
        p, mt = self.p, self.mtable
        ell = {self.index[(self.Q.F.zero, self.Q.F.zero)]: 0}
        for g in A:
            if g in ell:
                continue
            forced = self.center_int(self.elements[g])
            ell[g] = forced if forced is not None else 0
            changed = True
            while changed:
                changed = False
                for x in list(ell):
                    for y in list(ell):
                        z = mt[x][y]
                        v = (ell[x] + ell[y]) % p
                        if z in ell:
                            if ell[z] != v:
                                raise IncompatibleParams("no splitting character")
                        else:
                            ell[z] = v
                            changed = True
        for g in A:
            c = self.center_int(self.elements[g])
            if c is not None and ell[g] != c % p:
                raise IncompatibleParams("splitting misses the center")
        return ell

    def inner(self, vals1, vals2):
        c = _dot(vals1, [v.conj() for v in vals2], self.p).exact_div(self.n)
        return None if c is None else c.as_integer()

    def dims(self):
        idx = self.index[(self.Q.F.zero, self.Q.F.zero)]
        return [vals[idx].as_integer() for (_, _, vals) in self.table]


@lru_cache(maxsize=None)
def qprime_char_table(p: int, e: int) -> QPrimeTable:
    return QPrimeTable(HeisParams(p, e))


def char_table_checks(p: int, e: int) -> dict:
    """Dimension count, constancy on conjugacy classes and the two
    orthogonality relations, exactly.

    Both relations are sums over class representatives.  The first is
    weighted by class size, which equals the sum over all elements because
    every character is checked to be constant on every class.
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
    report["class_functions"] = all(
        vals[g] == vals[rep] for _, _, vals in tab for rep, cls in classes for g in cls
    )
    sizes = [len(cls) for _, cls in classes]
    rows = [[vals[rep] for rep, _ in classes] for _, _, vals in tab]
    # each distinct value is conjugated, and scaled by each class size, once;
    # the cells share those objects
    conj = {v: v.conj() for v in {v for row in rows for v in row}}
    weighted = {(v, s): conj[v] * s for v in conj for s in set(sizes)}
    bar_rows = [[weighted[v, s] for v, s in zip(row, sizes)] for row in rows]
    k = len(tab)
    first = all(
        _dot(rows[i], bar_rows[j], p) == Cyclo.integer(p, T.n if i == j else 0)
        for i in range(k)
        for j in range(i, k)
    )
    report["first_orthogonality"] = first
    # like the first, the second relation is Hermitian: (d, c) is the
    # conjugate of (c, d), so c <= d covers every pair
    cols = list(zip(*rows))
    bar_cols = [[conj[v] for v in col] for col in cols]
    second = all(
        _dot(cols[c], bar_cols[d], p) == Cyclo.integer(p, T.n // sizes[c] if c == d else 0)
        for c in range(len(cols))
        for d in range(c, len(cols))
    )
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


def _dot(xs, ys, p):
    """sum(x * y) over paired cyclotomic integers, added coefficient-wise."""
    return Cyclo(p, [sum(c) for c in zip(*[(x * y).coeffs for x, y in zip(xs, ys)])])


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


def ramification_jumps(p: int, e: int, nprime: int) -> FiltSpec:
    """Compose the three Herbrand stages and read off the group orders."""
    if (p - 1) % nprime != 0:
        raise IncompatibleParams("nprime must divide p - 1")
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
    """The wild-inertia restriction data of the adjoint of the parameter:
    central-character indices of the direct summands, the exterior-square
    bookkeeping count, and the det-twist part."""
    if (p - 1) % nprime != 0 or nprime % 2 != 0:
        raise IncompatibleParams("need an even nprime dividing p - 1")
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
    return {
        "orbit": orbit,
        "ext_big_count": big_mult,
        "ext_linear_mult": nprime // 2,
        "det_twist_orbit": orbit,
        "M": M,
    }


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
        "trivial": Fraction(0),
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
    out = {
        "p": p,
        "e": e,
        "nprime": nprime,
        "n": n,
        "swan": swan_total,
        "swan_exterior_part": swan_ext,
        "swan_det_part": swan_det,
        "artin": artin,
        "log_q_gamma": artin / 2,
        "fdc_pass": artin == 2 * n * n + 2 * n,
        "s_phi_order": 2,
        "jumps": filt.orders,
    }
    return out
