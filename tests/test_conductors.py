import copy
import gc
import hashlib
import json
import random
import weakref
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from endolab import conductors
from endolab.conductors import (
    Cyclo,
    HeisParams,
    QGroup,
    QPrimeTable,
    ad_phi_restriction,
    char_table_checks,
    q_group,
    q_group_check,
    qprime_char_table,
    ramification_jumps,
    swan_artin_gamma,
    swan_closed_values,
    swan_of_rep,
    tensor_decompositions,
)
from endolab.errors import CapExceeded, IncompatibleParams, InvalidParams
from endolab.residue import GF, make_field, make_gf


def test_gf_basic():
    F = GF(3, 4, make_gf(3, 4).modulus)
    els = list(F.elements())
    assert els == list(range(81))
    a = els[5]
    assert F.mul(a, F.one) == a
    assert F.pow(a, 81) == a  # Frobenius^4 fixes everything


def test_cyclo_arithmetic():
    z = Cyclo.zeta_pow(3, 1)
    assert (z * z * z) == Cyclo(3, [1, 0])
    s = Cyclo(3, [1, 0]) + z + z * z
    assert s == Cyclo(3)
    assert z.conj() == Cyclo.zeta_pow(3, 2)


def _digits(F, a):
    return [(a // F.p**i) % F.p for i in range(F.m)]


def _code(F, digits):
    return sum((c % F.p) * F.p**i for i, c in enumerate(digits))


def _schoolbook_mul(F, a, b):
    """a * b by polynomial long multiplication, then division by F.modulus."""
    m = F.m
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(_digits(F, a)):
        for j, y in enumerate(_digits(F, b)):
            prod[i + j] += x * y
    # x^m = -(modulus[0] + ... + modulus[m-1] x^{m-1}), from the top down
    for d in reversed(range(m, 2 * m - 1)):
        top, prod[d] = prod[d], 0
        for i, c in enumerate(F.modulus):
            prod[d - m + i] -= top * c
    return _code(F, prod[:m])


@pytest.mark.parametrize(
    "p,m", [(3, 8), (5, 4), (3, 4)] + [(p, 2) for p in (3, 5, 7, 11, 13)]
)
def test_gf_log_tables_are_inverse_bijections(p, m):
    F = make_gf(p, m)
    nonzero = [x for x in F.elements() if x != F.zero]
    assert sorted(F._exp) == nonzero
    assert len(F._log) == F.q and F._log[F.zero] is None
    assert all(F._log[x] == k for k, x in enumerate(F._exp))
    # consecutive entries are consecutive powers of one generator
    g = F._exp[1]
    assert g == F.gen
    assert all(
        _schoolbook_mul(F, x, g) == F._exp[(k + 1) % len(nonzero)]
        for k, x in enumerate(F._exp)
    )


def test_gf_products_match_schoolbook_on_all_pairs():
    F = make_gf(3, 4)
    for a in F.elements():
        for b in F.elements():
            assert F.mul(a, b) == _schoolbook_mul(F, a, b)


def _digitwise(F, a, b, sign):
    return _code(F, [x + sign * y for x, y in zip(_digits(F, a), _digits(F, b))])


def _check_zech_addition(F, pairs):
    for a, b in pairs:
        assert F.add(a, b) == _digitwise(F, a, b, 1)
        assert F.sub(a, b) == _digitwise(F, a, b, -1)
        assert F.neg(b) == _digitwise(F, 0, b, -1)


def test_gf_zech_addition_is_digitwise():
    F = make_gf(3, 4)
    _check_zech_addition(F, [(a, b) for a in F.elements() for b in F.elements()])
    F = make_gf(3, 8)
    rng = random.Random(0)
    _check_zech_addition(F, [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(20000)])


def test_gf_prime_field_is_the_small_codes():
    F = make_gf(5, 4)
    subfield = [x for x in F.elements() if F.pow(x, F.p) == x]
    assert subfield == list(range(F.p))
    assert all(F.in_prime_field(x) == (x < F.p) for x in F.elements())


def test_gf_cached_per_field():
    assert make_gf(3, 4) is make_gf(3, 4)
    assert make_gf(3, 4) is not make_gf(5, 4)
    assert QGroup(HeisParams(3, 1)).F is make_gf(3, 4)
    # the residue fields read the same tables
    assert make_field(5, 2)._log is make_gf(5, 2)._log


def _add_term(out, p, k, c):
    """out += c * zeta^k, reducing zeta^{p-1} = -(1 + ... + zeta^{p-2}) at once."""
    k %= p
    if k < p - 1:
        out[k] += c
    else:
        for t in range(p - 1):
            out[t] -= c


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cyclo_kernel_matches_schoolbook(p):
    rng = random.Random(p)
    for _ in range(50):
        a = [rng.randint(-9, 9) for _ in range(p - 1)]
        b = [rng.randint(-9, 9) for _ in range(p - 1)]
        prod = [0] * (p - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                _add_term(prod, p, i + j, x * y)
        bar = [0] * (p - 1)
        for k, x in enumerate(a):
            _add_term(bar, p, -k, x)
        assert (Cyclo(p, a) * Cyclo(p, b)).coeffs == tuple(prod)
        assert (Cyclo(p, b) * Cyclo(p, a)).coeffs == tuple(prod)
        assert Cyclo(p, a).conj().coeffs == tuple(bar)
        assert (3 * Cyclo(p, a)).coeffs == tuple(3 * x for x in a)


def _dot_termwise(xs, ys, p):
    """sum(x * y) by Cyclo.__mul__, one product at a time."""
    total = Cyclo(p)
    for x, y in zip(xs, ys):
        total = total + x * y
    return total


@pytest.mark.parametrize("length", [0, 1, 300])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_packed_dot_matches_termwise_products(p, length):
    rng = random.Random(1000 * p + length)

    def vector(lo, hi):
        return [Cyclo(p, [rng.randint(lo, hi) for _ in range(p - 1)]) for _ in range(length)]

    big = 10**6
    cases = [
        (vector(-big, big), vector(-big, big)),
        (vector(-big, -1), vector(-big, -1)),  # every coordinate shifted
        (vector(-big, -1), vector(1, big)),
        (vector(big, big), vector(-big, -big)),  # the largest slot sums
    ]
    for xs, ys in cases:
        codes, width = conductors._pack({v.coeffs for v in xs + ys}, p, length)
        cell = sum(codes[x.coeffs] * codes[y.coeffs] for x, y in zip(xs, ys))
        assert conductors._unpack(cell, p, width) == _dot_termwise(xs, ys, p)


def _gram_by_cells(left, right, diag, p, width):
    """The Gram check cell by cell: each sum of products through `_unpack`."""
    return all(
        conductors._unpack(sum(map(mul, row, col)), p, width)
        == Cyclo(p, [diag[i] if i == j else 0] + [0] * (p - 2))
        for i, row in enumerate(left)
        for j, col in enumerate(right)
    )


@pytest.mark.parametrize("p", [3, 5, 7])
def test_gram_rows_agree_with_per_cell_unpack(p):
    """`_gram_holds` against `_gram_by_cells` on random vectors, on a Gram
    matrix that is exactly diagonal, on that matrix with one cell off by one
    unit in one slot (each slot, at a diagonal and an off-diagonal cell), and
    at the diagonal's 2^(width - 1) edge, where a value is refused unless the
    packing's bound covers it."""
    rng = random.Random(70 + p)
    k, length = 5, 8
    zero, one = Cyclo(p), Cyclo(p, [1] + [0] * (p - 2))

    def vectors(count, size):
        return [
            [Cyclo(p, [rng.randint(-50, 50) for _ in range(p - 1)]) for _ in range(size)]
            for _ in range(count)
        ]

    def verdicts(left, right, diag, bound=0):
        codes, width = conductors._pack(
            {v.coeffs for vec in left + right for v in vec}, p, len(left[0]), bound
        )
        left, right = ([[codes[v.coeffs] for v in vec] for vec in vs] for vs in (left, right))
        return conductors._gram_holds(left, right, diag, p, width), _gram_by_cells(
            left, right, diag, p, width
        )

    # left[i] is the unit vector e_i, then a random tail; right[j] is d_j e_j
    # less the tails' products, then a random tail: the Gram matrix is diag(d)
    tails_l, tails_r = vectors(k, length), vectors(k, length)
    diag = [rng.randint(1, 99) for _ in range(k)]
    left = [[one if r == i else zero for r in range(k)] + tails_l[i] for i in range(k)]
    right = [
        [one * (diag[j] if i == j else 0) - _dot_termwise(tails_l[i], tails_r[j], p) for i in range(k)]
        + tails_r[j]
        for j in range(k)
    ]
    assert verdicts(left, right, diag) == (True, True)
    assert verdicts(vectors(k, k + length), vectors(k, k + length), diag) == (False, False)
    # only cell (i, j) moves when right[j][i] does, as left[i'][i] = 0 for i' != i
    for i, j in ((2, 2), (1, 3)):
        for t in range(p):
            off = [list(vec) for vec in right]
            off[j][i] = off[j][i] + Cyclo.zeta_pow(p, t)
            assert verdicts(left, off, diag) == (False, False), (i, j, t)
    values = {v.coeffs for vec in left + right for v in vec}
    edge = 1 << (conductors._pack(values, p, k + length)[1] - 1)
    for d in (edge, edge + diag[0], -1):
        with pytest.raises(IncompatibleParams, match="beyond the slot width"):
            verdicts(left, right, [d] + diag[1:])
    assert verdicts(left, right, [edge - 1] + diag[1:]) == (False, False)
    assert verdicts(left, right, [edge] + diag[1:], bound=edge) == (False, False)
    assert verdicts(left, right, diag, bound=edge) == (True, True)


def test_q_group_orders():
    Q = QGroup(HeisParams(3, 1))
    els = list(Q.elements())
    assert len(els) == 108
    assert len(Q.b_set) == 9
    assert len(Q.c_set[Q.F.zero]) == 3


def _beta_by_field_calls(Q, b1, b2):
    """sum((b1^{p^e} b2)^{p^i}, i < e) by F.mul, F.pow and F.add calls."""
    F, p, e = Q.F, Q.params.p, Q.params.e
    w = F.mul(F.pow(b1, p**e), b2)
    return reduce(F.add, [F.pow(w, p**i) for i in range(e)])


def _product_by_field_calls(Q, x, y):
    """(a1 a2, b1 + a1 b2, c1 + c2 + beta(b1, a1 b2)), one field call per
    operation."""
    F = Q.F
    (a1, b1, c1), (a2, b2, c2) = x, y
    a1b2 = F.mul(a1, b2)
    beta = _beta_by_field_calls(Q, b1, a1b2)
    return (F.mul(a1, a2), F.add(b1, a1b2), F.add(F.add(c1, c2), beta))


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2)])
def test_q_group_products_are_the_field_formula(p, e):
    """Q.mul and Q.beta read the field's tables in their own log form; both
    equal the formula by field calls: products on all of Q x Q at (3, 1) and
    on 20,000 random pairs otherwise, beta on random pairs of F, zero too."""
    Q = q_group(HeisParams(p, e))
    F = Q.F
    els = list(Q.elements())
    rng = random.Random(p * 10 + e)
    if len(els) ** 2 <= 20_000:
        pairs = [(x, y) for x in els for y in els]
    else:
        pairs = [(rng.choice(els), rng.choice(els)) for _ in range(20_000)]
    assert all(Q.mul(x, y) == _product_by_field_calls(Q, x, y) for x, y in pairs)
    codes = [rng.choice((F.zero, rng.randrange(F.q))) for _ in range(4_000)]
    pairs = list(zip(codes[::2], codes[1::2]))
    assert all(Q.beta(b1, b2) == _beta_by_field_calls(Q, b1, b2) for b1, b2 in pairs)


def test_q_group_axioms_small():
    assert q_group_check(HeisParams(3, 1))


def test_q_group_built_once_per_params(monkeypatch):
    built = []
    init = QGroup.__init__

    def counting_init(self, params):
        built.append(params)
        init(self, params)

    monkeypatch.setattr(QGroup, "__init__", counting_init)
    q_group.cache_clear()
    assert q_group_check(HeisParams(3, 1))
    T = QPrimeTable(HeisParams(3, 1))
    assert T.Q is q_group(HeisParams(3, 1))
    assert built == [HeisParams(3, 1)]
    # the shared sets cannot be changed in place
    assert isinstance(T.Q.a_set, tuple) and isinstance(T.Q.b_set, tuple)
    with pytest.raises(TypeError):
        T.Q.c_set[T.Q.F.zero] = ()
    assert all(isinstance(cs, tuple) for cs in T.Q.c_set.values())
    assert isinstance(T.Q.wild, tuple) and isinstance(T.Q.wild_table, tuple)
    assert all(isinstance(row, tuple) for row in T.Q.wild_table)
    with pytest.raises(TypeError):
        T.Q.wild_index[T.Q.wild[0]] = 1
    # the character table reads Q's wild subgroup and its table
    assert T.elements is T.Q.wild and T.index is T.Q.wild_index
    assert T.mtable is T.Q.wild_table


# sha256 of the dump below: the elements, multiplication table and exact
# character table of Q' at (p, e) in (3, 1), (5, 1), (3, 2).
QPRIME_PIN = "c6b63d50084405d5cf4096756c80ca5a1787630c9a3290d1ee87f1c1d45c7978"


def test_qprime_tables_are_pinned():
    dump = []
    for p, e in ((3, 1), (5, 1), (3, 2)):
        T = qprime_char_table(p, e)
        chars = [
            [name, list(tag) if isinstance(tag, tuple) else tag, [list(v.coeffs) for v in vals]]
            for name, tag, vals in T.table
        ]
        dump.append([[list(x) for x in T.elements], T.mtable, chars])
    assert hashlib.sha256(json.dumps(dump).encode()).hexdigest() == QPRIME_PIN


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2)])
def test_q_group_check_catches_a_broken_beta(monkeypatch, p, e):
    """(3, 1) runs the full-table regime, (5, 1) and (3, 2) the certificate
    with its sample."""
    beta = QGroup.beta

    def broken(self, b1, b2):
        out = beta(self, b1, b2)
        if b1 == self.b_set[1] and b2 != self.F.zero:
            out = self.F.add(out, self.F.one)
        return out

    monkeypatch.setattr(QGroup, "beta", broken)
    q_group.cache_clear()
    try:
        assert not q_group_check(HeisParams(p, e))
    finally:
        q_group.cache_clear()


@pytest.mark.parametrize("p,e", [(5, 1), (3, 2)])
def test_q_group_check_catches_a_broken_left_identity(monkeypatch, p, e):
    """e * x0 gives another element x1 for one x0 with a != 1, while x0 * e
    stays x0: the sampled regime sees it through the identity law, which it
    checks on both sides of every element."""
    params = HeisParams(p, e)
    q_group.cache_clear()
    Q = q_group(params)
    ident = Q.identity()
    x0, x1 = [g for g in Q.elements() if g[0] != Q.F.one][:2]
    mul = QGroup.mul
    monkeypatch.setattr(
        QGroup, "mul", lambda self, g, h: x1 if (g, h) == (ident, x0) else mul(self, g, h)
    )
    try:
        assert Q.mul(ident, x0) == x1 and Q.mul(x0, ident) == x0
        assert not q_group_check(params)
    finally:
        q_group.cache_clear()


@pytest.mark.parametrize("p,e", [(5, 1), (3, 2)])
def test_q_group_check_catches_a_broken_inverse(monkeypatch, p, e):
    """x0 * y gives x0 instead of e, for the first x0 with a != 1 and x0^2 !=
    e, and y its inverse (found by search, not by the closed form), while
    y * x0 stays e: the sampled regime sees it through the inverse law, which
    it checks on both sides of every element."""
    params = HeisParams(p, e)
    q_group.cache_clear()
    Q = q_group(params)
    ident = Q.identity()
    x0 = next(g for g in Q.elements() if g[0] != Q.F.one and Q.mul(g, g) != ident)
    y = next(g for g in Q.elements() if Q.mul(x0, g) == ident)
    mul = QGroup.mul
    monkeypatch.setattr(
        QGroup, "mul", lambda self, g, h: x0 if (g, h) == (x0, y) else mul(self, g, h)
    )
    try:
        assert Q.mul(x0, y) == x0 and Q.mul(y, x0) == ident
        assert not q_group_check(params)
    finally:
        q_group.cache_clear()


def test_q_group_check_catches_one_swapped_table_entry(monkeypatch):
    """Two products of one row of Q's table swapped: the row is still a
    permutation and the identity's row and column are intact, so only the
    exhaustive associativity check can see the swap."""
    params = HeisParams(3, 1)
    q_group.cache_clear()
    Q = q_group(params)
    x, y1, y2 = [g for g in Q.elements() if g != Q.identity()][:3]
    swapped = {(x, y1): Q.mul(x, y2), (x, y2): Q.mul(x, y1)}
    mul = QGroup.mul
    monkeypatch.setattr(QGroup, "mul", lambda self, g, h: swapped.get((g, h)) or mul(self, g, h))
    try:
        assert Q.mul(x, y1) != mul(Q, x, y1)
        assert not q_group_check(params)
    finally:
        q_group.cache_clear()


@pytest.mark.parametrize("both_copies", [False, True], ids=["d=7", "d=7,n+7"])
@pytest.mark.parametrize("p,e", [(5, 1), (3, 2)])
def test_q_group_check_catches_a_wrong_zech_entry(monkeypatch, p, e, both_copies):
    """The Zech log Z(7) off by one in the cached Q's table, after Q' was
    built from the true one: alone, or with its copy at n + 7, so that the
    two copies still agree."""
    params = HeisParams(p, e)
    Q = q_group(params)
    zech = list(Q._zech0)
    for d in (7, Q.F._order + 7) if both_copies else (7,):
        zech[d] += 1
    monkeypatch.setattr(Q, "_zech0", tuple(zech))
    assert not q_group_check(params)


@pytest.mark.parametrize("p,e", [(5, 1), (3, 2)])
def test_q_group_check_catches_a_wrong_frobenius_entry(monkeypatch, p, e):
    """The log of b^(p^e) off by one in the cached Q's table at the last b
    of b_set, which beta reads as its first argument."""
    params = HeisParams(p, e)
    Q = q_group(params)
    frob_log = list(Q._frob_log)
    b = Q.b_set[-1]
    frob_log[b] = (frob_log[b] + 1) % Q.F._order
    monkeypatch.setattr(Q, "_frob_log", tuple(frob_log))
    assert not q_group_check(params)


@pytest.mark.parametrize("p,e", [(5, 1), (3, 2)])
def test_q_group_check_catches_a_beta_that_is_not_a_invariant(monkeypatch, p, e):
    """beta plus d(b1, b2) = c1(b1) c1(b2) in F_p, c1 the coefficient of x in
    a field code: beta stays additive in each argument and keeps the
    Artin-Schreier identity (d^p = d), so Q' stays closed, but some a moves
    d, and the law is then not associative."""
    params = HeisParams(p, e)
    beta = QGroup.beta

    def skewed(self, b1, b2):
        return self.F.add(beta(self, b1, b2), b1 // p % p * (b2 // p % p) % p)

    monkeypatch.setattr(QGroup, "beta", skewed)
    q_group.cache_clear()
    try:
        Q = q_group(params)
        F = Q.F
        assert any(
            skewed(Q, F.mul(a, g), F.mul(a, h)) != skewed(Q, g, h)
            for a in Q.a_set
            for g in Q.b_set
            for h in Q.b_set
        )
        assert not q_group_check(params)
    finally:
        q_group.cache_clear()


@pytest.mark.parametrize("fault", [None, "not a-invariant", "not additive"])
def test_the_certificate_agrees_with_the_full_table(monkeypatch, fault):
    """At (3, 1), the one size with a full table of Q, the law's certificate
    and the brute force over all triples give the same verdict on the true
    beta and on two faulty ones that keep Q' closed."""
    params = HeisParams(3, 1)
    beta = QGroup.beta

    def faulty(self, b1, b2):
        out = beta(self, b1, b2)
        if fault == "not a-invariant":
            return self.F.add(out, b1 // 3 % 3 * (b2 // 3 % 3) % 3)
        if fault == "not additive" and b1 == self.b_set[1] and b2 != self.F.zero:
            return self.F.add(out, self.F.one)
        return out

    monkeypatch.setattr(QGroup, "beta", faulty)
    q_group.cache_clear()
    try:
        certified = conductors._tables_hold(q_group(params)) and conductors._law_holds(q_group(params))
        monkeypatch.setattr(conductors, "_law_holds", lambda Q: True)
        assert q_group_check(params) == certified == (fault is None)
    finally:
        q_group.cache_clear()


def _all_triples_verdict(Q):
    """Q's full table with an identity, inverses and (xy)z = x(yz) on all
    |Q|^3 triples, one row per (x, y): the brute force that Light's test in
    `q_group_check` stands for, kept as its reference."""
    els = list(Q.elements())
    idx = {x: i for i, x in enumerate(els)}
    try:
        table = [[idx[Q.mul(x, y)] for y in els] for x in els]
    except KeyError:
        return False
    e = idx[Q.identity()]
    if any(row[e] != i or table[e][i] != i or e not in row for i, row in enumerate(table)):
        return False
    return all(
        table[ij] == list(map(row.__getitem__, table[j]))
        for row in table
        for j, ij in enumerate(row)
    )


@pytest.mark.parametrize("fault", [None, "swapped entry", "not a-invariant", "not additive"])
def test_lights_test_agrees_with_all_triples(monkeypatch, fault):
    """At (3, 1), with the two exhaustive routes taken as passed, the full
    table's verdict is that of the brute force over all triples: on the true
    Q, on two swapped products of one row, and on the two faulty betas of
    `test_the_certificate_agrees_with_the_full_table`."""
    params = HeisParams(3, 1)
    beta, mul_ = QGroup.beta, QGroup.mul

    def faulty(self, b1, b2):
        out = beta(self, b1, b2)
        if fault == "not a-invariant":
            return self.F.add(out, b1 // 3 % 3 * (b2 // 3 % 3) % 3)
        if fault == "not additive" and b1 == self.b_set[1] and b2 != self.F.zero:
            return self.F.add(out, self.F.one)
        return out

    monkeypatch.setattr(QGroup, "beta", faulty)
    q_group.cache_clear()
    try:
        Q = q_group(params)
        if fault == "swapped entry":
            x, y1, y2 = [g for g in Q.elements() if g != Q.identity()][:3]
            swapped = {(x, y1): Q.mul(x, y2), (x, y2): Q.mul(x, y1)}
            monkeypatch.setattr(
                QGroup, "mul", lambda self, g, h: swapped.get((g, h)) or mul_(self, g, h)
            )
        monkeypatch.setattr(conductors, "_tables_hold", lambda Q: True)
        monkeypatch.setattr(conductors, "_law_holds", lambda Q: True)
        assert q_group_check(params) == _all_triples_verdict(Q) == (fault is None)
    finally:
        q_group.cache_clear()


@pytest.mark.parametrize("p,e,calls", [(5, 1, 11_000), (3, 2, 17_720)])
def test_q_group_check_mul_calls_are_pinned(monkeypatch, p, e, calls):
    """Four `mul` calls per element of Q (identity and inverse on both
    sides) and four per sampled triple; the two exhaustive routes make none."""
    params = HeisParams(p, e)
    q_group(params)  # Q' is built with mul, outside the count
    count = 0
    mul = QGroup.mul

    def counting(self, x, y):
        nonlocal count
        count += 1
        return mul(self, x, y)

    monkeypatch.setattr(QGroup, "mul", counting)
    assert q_group_check(params)
    assert count == calls == 4 * params.q_order + 4 * conductors.LAW_SAMPLES


def test_pairing_outside_prime_field_raises(monkeypatch):
    T = QPrimeTable(HeisParams(3, 1))
    F = T.Q.F
    b1, b2 = T.Q.b_set[1], T.Q.b_set[2]
    monkeypatch.setattr(
        QGroup, "beta", lambda self, x, y: F.gen if (x, y) == (b1, b2) else F.zero
    )
    with pytest.raises(IncompatibleParams):
        T.pairing(b1, b2)
    with pytest.raises(IncompatibleParams):
        T.center_int((F.zero, F.gen))


def _table_and_a(p, e):
    """A copy of the (p, e) table, to patch freely, and its subgroup A."""
    T = copy.copy(qprime_char_table(p, e))
    A = [T.index[(b, c)] for b in T.isotropic_subgroup() for c in T.Q.c_set[b]]
    return T, A


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2)])
def test_split_character_refuses_a_set_beyond_a(p, e):
    T, A = _table_and_a(p, e)
    outside = next(g for g in range(T.n) if g not in A)
    with pytest.raises(IncompatibleParams, match="no splitting character"):
        T._split_character(A + [outside])


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2)])
def test_split_character_refuses_a_misread_center(p, e):
    T, A = _table_and_a(p, e)
    F, center_int = T.Q.F, T.center_int
    z = (F.zero, F.one)  # a central element other than the identity
    T.center_int = lambda x: (center_int(x) + 1) % p if x == z else center_int(x)
    with pytest.raises(IncompatibleParams, match="splitting misses the center"):
        T._split_character(A)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2)])
def test_isotropic_subgroup_refuses_a_pairing_with_no_isotropic_line(p, e):
    T, _A = _table_and_a(p, e)
    T.pairing = lambda b1, b2: 1
    with pytest.raises(IncompatibleParams, match="no maximal isotropic subgroup found"):
        T.isotropic_subgroup()


def test_qprime_center_is_prime_field():
    T = qprime_char_table(3, 1)
    centrals = [g for g in T.elements if g[0] == T.Q.F.zero]
    assert len(centrals) == 3
    assert all(T.center_int(g) is not None for g in centrals)


def test_commutators_central():
    T = qprime_char_table(3, 1)
    mt, it = T.mtable, T.itable
    for x in range(9):
        for y in range(9):
            comm = mt[mt[x][y]][it[mt[y][x]]]
            assert T.elements[comm][0] == T.Q.F.zero


def test_char_table_31():
    rep = char_table_checks(3, 1)
    assert rep["ok"]
    assert rep["n_linear"] == 9 and rep["n_big"] == 2
    assert rep["dims_sq_sum"] == 27


def test_qprime_table_holds_no_hidden_cache():
    T = QPrimeTable(HeisParams(3, 1))
    assert T.table is T.table
    ref = weakref.ref(T)
    del T
    gc.collect()
    assert ref() is None


def _checks_on_mutated_copy(monkeypatch, p, e, mutate):
    """char_table_checks on a copy of the (p, e) table changed by ``mutate``."""
    T = copy.copy(qprime_char_table(p, e))
    T.table = [(name, tag, list(vals)) for name, tag, vals in T.table]
    linear = next(vals for name, tag, vals in T.table if name == "linear" and any(tag))
    cls = next(cls for rep, cls in conductors._class_reps(T) if len(cls) > 1)
    mutate(T, linear, cls)
    monkeypatch.setattr(conductors, "qprime_char_table", lambda p_, e_: T)
    return char_table_checks(p, e)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2)])
def test_char_table_checks_catch_a_non_class_function(monkeypatch, p, e):
    def perturb_one_member(T, vals, cls):
        g = max(cls)  # not the representative, which is the smallest index
        vals[g] = vals[g] + Cyclo(p, [1] + [0] * (p - 2))

    rep = _checks_on_mutated_copy(monkeypatch, p, e, perturb_one_member)
    assert not rep["class_functions"]
    # the relations read representatives only, so only the class check sees it
    assert rep["first_orthogonality"] and rep["second_orthogonality"]
    assert not rep["ok"]


@pytest.mark.parametrize(
    "p,e,change",
    [pytest.param(p, e, "times zeta", id=f"{p}-{e}") for p, e in ((3, 1), (5, 1), (3, 2))]
    + [pytest.param(p, e, "plus one", id=f"{p}-{e}-plus-one") for p, e in ((3, 1), (5, 1), (3, 2))],
)
def test_char_table_checks_catch_broken_orthogonality(monkeypatch, p, e, change):
    """A nontrivial linear character times zeta, or plus 1, on the whole of
    one non-central class: still a class function, orthogonal no more."""
    step = Cyclo.zeta_pow(p, 1) if change == "times zeta" else Cyclo(p, [1] + [0] * (p - 2))

    def change_one_class(T, vals, cls):
        for g in cls:
            vals[g] = vals[g] * step if change == "times zeta" else vals[g] + step

    rep = _checks_on_mutated_copy(monkeypatch, p, e, change_one_class)
    assert rep["class_functions"]
    assert not rep["first_orthogonality"]
    assert not rep["second_orthogonality"]
    assert not rep["ok"]


def test_big_character_supported_on_center_with_central_character():
    T = qprime_char_table(3, 1)
    bigs = [(tag, vals) for name, tag, vals in T.table if name == "big"]
    assert len(bigs) == 2
    for tag, vals in bigs:
        for g in T.elements:
            v = vals[T.index[g]]
            c = T.center_int(g)
            if c is None:
                assert v == Cyclo(3)
            else:
                assert v == Cyclo.zeta_pow(3, tag * c) * 3


def test_unique_irreducible_per_central_character():
    T = qprime_char_table(5, 1)
    tags = sorted(tag for name, tag, _ in T.table if name == "big")
    assert tags == [1, 2, 3, 4]


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1)])
def test_tensor_rules(p, e):
    out = tensor_decompositions(p, e)
    assert out["ok"], out


def test_ad_phi_restriction_counts():
    out = ad_phi_restriction(3, 1, 2)
    assert out["M"] == 2
    assert len(out["orbit"]) == 2
    out = ad_phi_restriction(5, 1, 4)
    assert out["M"] == 4 * (20 - 5 - 1) // 2 == 28
    with pytest.raises(InvalidParams):
        ad_phi_restriction(5, 1, 3)  # odd nprime


def test_ramification_jumps_values():
    filt = ramification_jumps(3, 1, 2)
    assert filt.orders == (216, 27, 3, 3, 3)
    filt = ramification_jumps(5, 1, 4)
    assert filt.orders == (4 * 125 * 6, 125) + (5,) * 5
    with pytest.raises(InvalidParams):
        ramification_jumps(5, 1, 3)


@pytest.mark.parametrize("p,nprime", [(5, 3), (7, 3), (7, 4), (5, 0), (5, -2)])
def test_tame_index_outside_its_domain_is_invalid(p, nprime):
    """Both conductor routes refuse the same nprime: each one that is not an
    even divisor of p - 1."""
    for route in (ramification_jumps, ad_phi_restriction):
        with pytest.raises(InvalidParams, match="even divisor"):
            route(p, 1, nprime)


def test_swan_per_irreducible():
    p, e, npr = 3, 1, 2
    T = qprime_char_table(p, e)
    filt = ramification_jumps(p, e, npr)
    closed = swan_closed_values(p, e, npr)
    tab = T.table
    big = next(vals for name, _, vals in tab if name == "big")
    lin = next(
        vals for name, tag, vals in tab if name == "linear" and any(tag)
    )
    triv = next(
        vals for name, tag, vals in tab if name == "linear" and not any(tag)
    )
    assert swan_of_rep(T, big, filt) == closed["big"] == Fraction(1, 2)
    assert swan_of_rep(T, lin, filt) == closed["linear_nontrivial"] == Fraction(1, 8)
    assert swan_of_rep(T, triv, filt) == 0


@pytest.mark.parametrize(
    "p,e,npr,n", [(3, 1, 2, 3), (5, 1, 4, 10), (5, 1, 2, 5)]
)
def test_swan_artin_gamma(p, e, npr, n):
    r = swan_artin_gamma(p, e, npr)
    assert r["swan"] == n
    assert r["artin"] == 2 * n * n + 2 * n
    assert r["log_q_gamma"] == n * n + n
    assert r["swan_exterior_part"] == n - 1
    assert r["swan_det_part"] == 1


@pytest.mark.parametrize("p,e", [(7, 1), (5, 2), (3, 3)])
def test_heisenberg_cap_holds_on_every_path(p, e):
    """|Q'| = p^(2e+1) beyond 3^5 is refused by the parameters themselves, so
    the tables and the conductor route refuse it too; (3, 2) sits at 3^5."""
    assert HeisParams(3, 2).qprime_order == 3**5
    with pytest.raises(CapExceeded):
        HeisParams(p, e)
    with pytest.raises(CapExceeded):
        swan_artin_gamma(p, e, 2)


def test_swan_artin_examples_31():
    r = swan_artin_gamma(3, 1, 2)
    assert (r["swan"], r["artin"], r["log_q_gamma"]) == (3, 24, 12)
