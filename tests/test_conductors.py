import copy
import gc
import random
import weakref
from fractions import Fraction

import pytest

from endolab import conductors
from endolab.conductors import (
    Cyclo,
    GF,
    HeisParams,
    QGroup,
    QPrimeTable,
    ad_phi_restriction,
    char_table_checks,
    make_gf,
    q_group_check,
    qprime_char_table,
    ramification_jumps,
    swan_artin_gamma,
    swan_closed_values,
    swan_of_rep,
    tensor_decompositions,
)
from endolab.errors import IncompatibleParams


def test_gf_basic():
    F = GF(3, 4)
    els = list(F.elements())
    assert len(els) == 81
    a = els[5]
    assert F.mul(a, F.one) == a
    assert F.pow(a, 81) == a  # Frobenius^4 fixes everything


def test_cyclo_arithmetic():
    z = Cyclo.zeta_pow(3, 1)
    assert (z * z * z) == Cyclo.integer(3, 1)
    s = Cyclo.integer(3, 1) + z + z * z
    assert s.is_zero()
    assert z.conj() == Cyclo.zeta_pow(3, 2)


@pytest.mark.parametrize("p,m", [(3, 8), (5, 4)])
def test_gf_log_tables_are_inverse_bijections(p, m):
    F = make_gf(p, m)
    nonzero = [x for x in F.elements() if x != F.zero]
    assert sorted(F._exp) == sorted(nonzero)
    assert len(F._dlog) == len(nonzero)
    assert all(F._dlog[x] == k for k, x in enumerate(F._exp))
    # consecutive entries are consecutive powers of one generator
    g = F._exp[1]
    assert all(
        F._mul_mod(x, g, F.modulus) == F._exp[(k + 1) % len(nonzero)]
        for k, x in enumerate(F._exp)
    )


def test_gf_cached_per_field():
    assert make_gf(3, 4) is make_gf(3, 4)
    assert make_gf(3, 4) is not make_gf(5, 4)
    assert QGroup(HeisParams(3, 1)).F is make_gf(3, 4)


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


def test_qprime_center_is_prime_field():
    T = qprime_char_table(3, 1)
    centrals = [g for g in T.elements if g[0] == T.Q.F.zero]
    assert len(centrals) == 3
    assert all(T.center_int(g) is not None for g in centrals)


def test_commutators_central():
    T = qprime_char_table(3, 1)
    for x in T.elements[:9]:
        for y in T.elements[:9]:
            comm = T.mul(T.mul(x, y), T.inv(T.mul(y, x)))
            assert comm[0] == T.Q.F.zero


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
