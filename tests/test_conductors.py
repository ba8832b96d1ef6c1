import copy
import gc
import hashlib
import json
import random
import weakref
from fractions import Fraction

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
from endolab.errors import IncompatibleParams
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
    assert (z * z * z) == Cyclo.integer(3, 1)
    s = Cyclo.integer(3, 1) + z + z * z
    assert s.is_zero()
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


def test_q_group_orders():
    Q = QGroup(HeisParams(3, 1))
    els = list(Q.elements())
    assert len(els) == 108
    assert len(Q.b_set) == 9
    assert len(Q.c_set[Q.F.zero]) == 3


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


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1)])
def test_q_group_check_catches_a_broken_beta(monkeypatch, p, e):
    """(3, 1) runs the full-table regime, (5, 1) the sampled one."""
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


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1)])
def test_char_table_checks_catch_a_non_class_function(monkeypatch, p, e):
    def perturb_one_member(T, vals, cls):
        g = max(cls)  # not the representative, which is the smallest index
        vals[g] = vals[g] + Cyclo.integer(p, 1)

    rep = _checks_on_mutated_copy(monkeypatch, p, e, perturb_one_member)
    assert not rep["class_functions"]
    # the relations read representatives only, so only the class check sees it
    assert rep["first_orthogonality"] and rep["second_orthogonality"]
    assert not rep["ok"]


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1)])
def test_char_table_checks_catch_broken_orthogonality(monkeypatch, p, e):
    def rotate_one_class(T, vals, cls):
        for g in cls:
            vals[g] = vals[g] * Cyclo.zeta_pow(p, 1)

    rep = _checks_on_mutated_copy(monkeypatch, p, e, rotate_one_class)
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
                assert v.is_zero()
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
    with pytest.raises(IncompatibleParams):
        ad_phi_restriction(5, 1, 3)  # odd nprime


def test_ramification_jumps_values():
    filt = ramification_jumps(3, 1, 2)
    assert filt.orders == (216, 27, 3, 3, 3)
    filt = ramification_jumps(5, 1, 4)
    assert filt.orders == (4 * 125 * 6, 125) + (5,) * 5
    with pytest.raises(IncompatibleParams):
        ramification_jumps(5, 1, 3)


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
    assert r["fdc_pass"]
    assert r["swan_exterior_part"] == n - 1
    assert r["swan_det_part"] == 1


def test_swan_artin_examples_31():
    r = swan_artin_gamma(3, 1, 2)
    assert (r["swan"], r["artin"], r["log_q_gamma"]) == (3, 24, 12)
