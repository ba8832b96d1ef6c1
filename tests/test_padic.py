from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from endolab import padic
from endolab.errors import (
    EndolabError,
    IndistinguishableFromZero,
    NonMonotone,
    RootOfUnityUnavailable,
    WrongField,
)
from endolab.padic import (
    PLFunc,
    TowerSpec,
    extract_jumps,
    herbrand_compose,
    tame_hilbert,
)


@pytest.fixture
def T():
    return TowerSpec(5, e=4, u0=1, prec=6)


def test_defining_relation(T):
    assert T.phi() ** 4 == T.from_int(5)
    assert T.phi().valuation() == Fraction(1, 4)


def test_product_difference_of_squares(T):
    one, phi = T.one(), T.phi()
    assert (one + phi) * (one - phi) == one - phi**2


def test_geometric_inverse(T):
    one, phi = T.one(), T.phi()
    inv = (one - phi).inv()
    assert inv * (one - phi) == one
    # matches the truncated geometric series
    series = T.zero()
    for k in range(T.rprec_cap):
        series = series + phi**k
    assert inv.equal_mod(series, T.rprec_cap - 1)


def test_leading_units(T):
    assert T.pi().leading_unit() == T.residue_field.one
    assert (T.phi() * T.from_int(3)).leading_unit() == T.residue_field.elem(3)
    with pytest.raises(IndistinguishableFromZero):
        T.zero().valuation()


@settings(max_examples=60, deadline=None)
@given(
    xs=st.lists(st.integers(0, 7**5 - 1), min_size=3, max_size=3),
    ys=st.lists(st.integers(0, 7**5 - 1), min_size=3, max_size=3),
)
def test_valuation_laws(xs, ys):
    T = TowerSpec(7, e=3, u0=2, prec=6)
    x = T.from_coeffs(xs)
    y = T.from_coeffs(ys)
    if x.is_zero() or y.is_zero():
        return
    assert (x * y).valuation() == x.valuation() + y.valuation()
    s = x + y
    if not s.is_zero():
        assert s.valuation() >= min(x.valuation(), y.valuation())
        if x.valuation() != y.valuation():
            assert s.valuation() == min(x.valuation(), y.valuation())


def test_root_of_unity_eigenvalue_valuation():
    # (1 + phi z)/(1 - phi z) - 1 has valuation 1/(2n) for a 2n-th root z
    T = TowerSpec(5, e=4, u0=2, prec=6)
    z = T.zeta(4)
    one, phi = T.one(), T.phi()
    y = (one + phi * z) / (one - phi * z)
    assert (y - one).valuation() == Fraction(1, 4)
    with pytest.raises(RootOfUnityUnavailable):
        T.zeta(3)


def test_tau_involution(T, tau):
    y = (T.one() + T.phi()) / (T.one() - T.phi())
    assert y * tau(y) == T.one()
    assert tau(T.phi()) == -T.phi()


def _schoolbook(xs, ys, p, u0):
    """Exact product of sum xs[i] phi^i and sum ys[j] phi^j, folding
    phi^(k+e) = p*u0 * phi^k."""
    e = len(xs)
    c = [0] * (2 * e)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            c[i + j] += x * y
    return [c[k] + c[k + e] * p * u0 for k in range(e)]


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("u0", [2, 3])
@pytest.mark.parametrize("e", [2, 3, 4])
def test_products_match_schoolbook_reference(p, e, u0):
    import random

    rng = random.Random(p * 100 + e * 10 + u0)
    T = TowerSpec(p, e=e, u0=u0, prec=6)
    wrapped = 0
    for _ in range(30):
        xs = [rng.randrange(p**6) for _ in range(e)]
        ys = [rng.randrange(p**6) for _ in range(e)]
        x, y = T.from_coeffs(xs), T.from_coeffs(ys)
        if x.is_zero() or y.is_zero():
            continue
        wrapped += any(xs[i] * ys[j] for i in range(e) for j in range(e) if i + j >= e)
        assert x * y == T.from_coeffs(_schoolbook(xs, ys, p, u0))
        assert y * x == x * y
        assert x * x.inv() == T.one()
    assert wrapped >= 20


def _inv_fixed_steps(x):
    """x's inverse by a fixed number of Newton steps y <- y*(2 - u*y), with no
    early stop.  Returns the inverse and whether its steps reached their fixed
    point: u * y exactly one mod store."""
    t = x.tower
    one = [1] + [0] * (t.e - 1)
    y = [pow(x.unit[0], -1, t.store)] + one[1:]
    steps = max(1, (x.rprec).bit_length() + t.e.bit_length())
    for _ in range(steps):
        corr = [-c for c in padic._poly_mul(t, x.unit, y)]
        corr[0] += 2
        y = padic._poly_mul(t, y, corr)
    return padic._make(t, -x.shift, y, x.rprec), padic._poly_mul(t, x.unit, y) == one


@pytest.mark.parametrize("e", [1, 2, 4, 6])
@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_inv_stops_at_the_fixed_point_with_the_same_result(p, e):
    """inv equals fixed Newton steps within precision, and digit for digit
    wherever those steps reached their fixed point."""
    import random

    rng = random.Random(100 * p + e)
    T = TowerSpec(p, e=e, u0=rng.randrange(1, p), prec=6)
    fixed = 0
    for rprec in sorted({1, 2, 3, e + 1, T.rprec_cap // 2, T.rprec_cap}):
        for _ in range(8):
            coeffs = [rng.randrange(1, p)] + [rng.randrange(T.store) for _ in range(e - 1)]
            if rng.random() < 0.25:  # exact inverses: a unit of F_p, or 1
                coeffs = [rng.randrange(1, p)] + [0] * (e - 1)
            x = padic._make(T, rng.randrange(-3, 4), coeffs, rprec)
            got = x.inv()
            want, at_fixed_point = _inv_fixed_steps(x)
            assert got == want
            assert (got.shift, got.rprec) == (want.shift, want.rprec)
            if at_fixed_point:
                fixed += 1
                assert got.unit == want.unit
    assert fixed > 0


def _make_general(tower, shift, coeffs, rprec):
    """padic._make without its unit-constant return: every call scans the
    phi-valuation and shifts down by it."""
    rprec = min(rprec, tower.rprec_cap)
    if rprec <= 0:
        return padic.LocalElem(tower, shift + rprec, None, 0)
    t = padic._poly_valuation(tower, coeffs)
    if t is None or t >= rprec:
        return padic.LocalElem(tower, shift + rprec, None, 0)
    coeffs = padic._poly_shift_down(tower, coeffs, t)
    return padic.LocalElem(tower, shift + t, tuple(coeffs), rprec - t)


def _pow_general(x, n):
    """LocalElem.__pow__ starting from one(), squaring once past the top bit."""
    if n < 0:
        return _pow_general(x.inv(), -n)
    out = x.tower.one()
    base = x
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def _digits(f):
    """(shift, unit, rprec) of f(), or the name of the error it raises."""
    try:
        x = f()
    except EndolabError as exc:  # both kernels must raise alike
        return type(exc).__name__
    return (x.shift, x.unit, x.rprec)


@pytest.mark.parametrize("e", [1, 2, 4, 6])
@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_kernel_fast_paths_keep_every_digit(monkeypatch, p, e):
    """_make's return on a unit constant term and __pow__ without one() give
    the general kernel's shift, unit and rprec, on units, on constant terms
    divisible by p and on zero, at every rprec regime."""
    import random

    rng = random.Random(1000 * p + e)
    T = TowerSpec(p, e=e, u0=rng.randrange(1, p), prec=6)

    def coeffs(kind):
        if kind == "zero":
            return [0] * e
        rest = [rng.randrange(T.store) for _ in range(e - 1)]
        if kind == "unit":
            return [rng.randrange(1, p) + p * rng.randrange(T.store // p)] + rest
        if kind == "p_all":  # valuation at least e
            return [p * rng.randrange(T.store // p) for _ in range(e)]
        return [p * rng.randrange(T.store // p)] + rest

    cases = [
        (rng.randrange(-3, 4), coeffs(kind), rprec)
        for kind in ("unit", "p_const", "p_all", "zero")
        for rprec in (-1, 0, 1, 2, e + 1, T.rprec_cap // 2, T.rprec_cap, T.rprec_cap + 3)
        for _ in range(2)
    ]
    exps = range(-3, 10)
    made = [_digits(lambda: padic._make(T, s, list(c), r)) for s, c, r in cases]
    elements = [padic._make(T, s, list(c), r) for s, c, r in cases]
    powers = [[_digits(lambda: x**n) for n in exps] for x in elements]
    with monkeypatch.context() as m:
        m.setattr(padic, "_make", _make_general)
        assert made == [_digits(lambda: padic._make(T, s, list(c), r)) for s, c, r in cases]
        assert powers == [[_digits(lambda: _pow_general(x, n)) for n in exps] for x in elements]
    # every regime was reached: unit constants, a shift down, zeros
    assert any(x.unit is not None and x.shift == s for x, (s, _, _) in zip(elements, cases))
    assert any(x.unit is not None and x.shift > s for x, (s, _, _) in zip(elements, cases))
    assert any(x.unit is None for x in elements)
    assert "DivisionByNonUnitBeyondPrecision" in {d for row in powers for d in row}


def _tower_cases(p, e, seed):
    """A tower over (p, e) and, at every rprec from 1 to its cap, elements
    with a unit constant term, with one divisible by p, and zero."""
    import random

    rng = random.Random(seed)
    T = TowerSpec(p, e=e, u0=rng.randrange(1, p), prec=6)

    def element(kind, rprec):
        rest = [rng.randrange(T.store) for _ in range(e - 1)]
        if kind == "unit":
            coeffs = [rng.randrange(1, p) + p * rng.randrange(T.store // p)] + rest
        elif kind == "sparse":  # 1 + c * phi^k: most of the matrix is zero
            coeffs = [1] + [0] * (e - 1)
            coeffs[rng.randrange(e)] += rng.randrange(1, T.store)
        elif kind == "p_const":
            coeffs = [p * rng.randrange(T.store // p)] + rest
        else:
            coeffs = [0] * e
        return padic._make(T, rng.randrange(-3, 4), coeffs, rprec)

    kinds = ("unit", "unit", "sparse", "p_const", "zero")
    return T, [element(kind, rprec) for rprec in range(1, T.rprec_cap + 1) for kind in kinds]


@pytest.mark.parametrize("e", [1, 2, 4, 6])
@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_inverse_is_exact_mod_store(p, e):
    """u * inv(u) is exactly one on every stored digit, at every rprec."""
    T, xs = _tower_cases(p, e, 2000 * p + e)
    one = [1] + [0] * (e - 1)
    units = [x for x in xs if not x.is_zero()]
    assert {x.rprec for x in units} >= {1, T.rprec_cap}
    for x in units:
        assert padic._poly_mul(T, x.unit, x.inv().unit) == one


@pytest.mark.parametrize("e", [1, 2, 4, 6])
@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_quotient_is_the_product_with_the_inverse(p, e):
    """a / b has the digits of a * b.inv(), or raises the same error, on units,
    non-units and zeros on either side."""
    import random

    T, xs = _tower_cases(p, e, 3000 * p + e)
    rng = random.Random(p + e)
    pairs = [(rng.choice(xs), rng.choice(xs)) for _ in range(4 * len(xs))]
    got = [_digits(lambda: a / b) for a, b in pairs]
    assert got == [_digits(lambda: a * b.inv()) for a, b in pairs]
    assert "DivisionByNonUnitBeyondPrecision" in got
    assert any(d != "DivisionByNonUnitBeyondPrecision" and d[1] is None for d in got)
    assert sum(d != "DivisionByNonUnitBeyondPrecision" and d[1] is not None for d in got) > len(xs)


# tame symbols -----------------------------------------------------------------


@pytest.fixture
def K():
    # Q_7 presented as the index-2 subtower of a ramified quadratic tower
    return TowerSpec(7, e=2, u0=1, prec=6)


def test_tame_symbol_units(K):
    assert tame_hilbert(K.from_int(3), K.from_int(5), sub=2) == 1


def test_tame_symbol_uniformizer_eps(K):
    eps = K.from_int(K.residue_field.eps.a)
    assert tame_hilbert(K.phi(2), eps, sub=2) == -1


def test_tame_symbol_pi_pi_is_norm_membership(K):
    """(pi, pi) from the formula matches the explicit norm scan for
    K(sqrt(pi))/K at residue level."""
    got = tame_hilbert(K.phi(2), K.phi(2), sub=2)
    # norms from K(sqrt(pi)): a^2 - pi b^2; scan residue data of valuation-1
    # elements pi*w: w must be a square residue times -1^... the scan:
    p = 7
    norms_val1_units = set()
    for a in range(p):
        for b in range(1, p):
            # val(a^2 - pi b^2) = 1 exactly when a = 0 mod p
            if a % p == 0:
                norms_val1_units.add((-(b * b)) % p)
    w0 = lambda t: 1 if pow(t, (p - 1) // 2, p) == 1 else -1
    expected = 1 if 1 in norms_val1_units else -1
    assert got == expected == w0(p - 1)


def test_tame_bilinearity_and_antisymmetry():
    K = TowerSpec(5, e=2, u0=1, prec=6)
    import random

    rng = random.Random(1)
    elems = []
    while len(elems) < 6:
        x = K.from_coeffs([rng.randrange(25), rng.randrange(25)])
        if not x.is_zero() and x.shift % 2 == 0 and all(
            (x.shift + i) % 2 != 0 or True for i in range(2)
        ):
            # force into the subtower: clear the odd coefficient
            x = K.from_coeffs([rng.randrange(1, 25), 0]) * K.phi(2) ** rng.randrange(2)
            elems.append(x)
    for a1 in elems[:3]:
        for a2 in elems[:3]:
            for b in elems[3:]:
                lhs = tame_hilbert(a1 * a2, b, sub=2)
                rhs = tame_hilbert(a1, b, sub=2) * tame_hilbert(a2, b, sub=2)
                assert lhs == rhs
    for a in elems:
        assert tame_hilbert(a, -a, sub=2) == 1


def test_sgn_quad_norms(tau):
    # x is a norm from K(sqrt(d)) iff the tame symbol (x, d) is +1
    K = TowerSpec(7, e=2, u0=1, prec=6)
    d = K.phi(2)  # the uniformizer class
    import random

    rng = random.Random(3)
    for _ in range(5):
        y = K.from_coeffs([rng.randrange(1, 49), rng.randrange(49)])
        nrm = y * tau(y)
        assert tame_hilbert(nrm, d, sub=2) == 1
    eps = K.from_int(K.residue_field.eps.a)
    y = K.one() + K.phi() * K.from_int(3)
    assert tame_hilbert(eps * (y * tau(y)), d, sub=2) == -1


def test_sgn_quad_at_discriminant():
    # sgn(d, d) = w0(-1)^{v(d)}; +1 at p = 5, -1 at p = 7 for a uniformizer
    for p, expect in ((5, 1), (7, -1)):
        K = TowerSpec(p, e=2, u0=1, prec=6)
        assert tame_hilbert(K.phi(2), K.phi(2), sub=2) == expect


def test_subtower_membership_enforced():
    K = TowerSpec(5, e=2, u0=1, prec=6)
    with pytest.raises(WrongField):
        tame_hilbert(K.phi(), K.from_int(2), sub=2)


@pytest.mark.parametrize("sub", [0, -1, -2])
def test_subtower_index_must_be_positive(sub):
    K = TowerSpec(5, e=2, u0=1, prec=6)
    with pytest.raises(WrongField):
        tame_hilbert(K.from_int(2), K.from_int(3), sub=sub)


def test_sgn_quad_index_two():
    """The +1 locus is an index-2 subgroup of K^x mod squares, checked on
    residue-level representatives."""
    for p in (5, 7):
        K = TowerSpec(p, e=2, u0=1, prec=6)
        d = K.phi(2)
        values = []
        for r in range(1, p):
            for v in (0, 1):
                x = K.from_int(r) * K.phi(2) ** v
                values.append(tame_hilbert(x, d, sub=2))
        assert values.count(1) == len(values) // 2


# Herbrand functions ------------------------------------------------------------


def test_plfunc_identity_and_validation():
    ident = PLFunc.identity()
    assert herbrand_compose([ident, ident]) == ident
    with pytest.raises(NonMonotone):
        PLFunc([1], [Fraction(1, 2), 1])  # increasing slopes
    with pytest.raises(NonMonotone):
        PLFunc([2, 1], [1, 1, 1])


def test_single_tame_stage_has_no_interior_jump():
    f = PLFunc([], [Fraction(1, 8)])
    comp = herbrand_compose([f])
    assert extract_jumps(comp) == []


@pytest.mark.parametrize("p,e,npr", [(3, 1, 2), (5, 1, 4), (3, 2, 2)])
def test_three_stage_jumps(p, e, npr):
    from endolab.conductors import ramification_stages

    comp = herbrand_compose(ramification_stages(p, e, npr))
    jumps = extract_jumps(comp)
    assert [b for b, _ in jumps] == [1, p**e + 1]
    assert [r for _, r in jumps] == [p ** (2 * e) // p ** (2 * e - 1) * p ** (2 * e - 1), p]
    assert jumps[0][1] == p ** (2 * e)
