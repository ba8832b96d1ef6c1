import cmath

import pytest
from hypothesis import given, settings, strategies as st

from endolab.errors import (
    CapExceeded,
    EndolabError,
    HypothesisFailed,
    InvalidParams,
    WrongField,
    ZeroPoint,
)
from endolab import sums
from endolab.characters import zeta_unit
from endolab.groups import GroupKind
from endolab.residue import FiniteField, MultCharacter, field_size, make_field, quad_extension
from endolab.sums import (
    KloostermanSpec,
    catalog,
    fourier_check,
    gauss_sum,
    gauss_sum_ext,
    hd_lift_check,
    hd_product_check,
    kl_simple,
    kloosterman_eval,
    kloosterman_eval_direct,
    kloosterman_table,
    sp_spec,
    so_split_spec,
    so_unramified_spec,
)


def test_gauss_trivial_is_minus_one():
    for p in (3, 5, 7):
        k = make_field(p)
        assert abs(gauss_sum(k.trivial_char(), k) + 1) < 1e-10


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_gauss_quadratic_square(q):
    """G(w0, psi)^2 = w0(-1) q, and Gauss's sign: G = zeta_unit q^(1/2), with
    the base value i exactly when -1 is not a square in F_q (so 1 at q = 9,
    where G = -G(w0, psi_3)^2 = 3)."""
    k = make_field(*field_size(q))
    w0 = k.omega0()
    G = gauss_sum(w0, k)
    assert abs(G * G - q * w0(k.coerce(-1))) < 1e-9
    assert abs(G - zeta_unit(GroupKind.TWISTED_GL, q) * q**0.5) < 1e-9


@pytest.mark.parametrize("q", [3, 5, 7])
def test_gauss_modulus(q):
    k = make_field(q)
    for idx in range(1, q - 1):
        assert abs(abs(gauss_sum(MultCharacter(k, idx), k)) - q**0.5) < 1e-9


def test_kl_one_variable_is_psi():
    k = make_field(7)
    spec = kl_simple(k, 1)
    for u in k.units():
        assert abs(kloosterman_eval(spec, u) - k.psi(u)) < 1e-12


def test_kl2_at_one_over_f3():
    k = make_field(3)
    # enumerate t in {1, 2}: psi(1 + 1) + psi(2 + 2) = exp(4pi i/3)+exp(2pi i/3)
    expected = cmath.exp(4j * cmath.pi / 3) + cmath.exp(2j * cmath.pi / 3)
    assert abs(expected + 1) < 1e-12
    assert abs(kloosterman_eval(kl_simple(k, 2), k.one) + 1) < 1e-9


def test_kl_zero_point_rejected():
    k = make_field(5)
    with pytest.raises(ZeroPoint):
        kloosterman_eval(kl_simple(k, 2), k.zero)


def test_quadratic_twist_vanishing_at_nonsquares():
    k = make_field(5)
    spec = sp_spec(k, 2, twisted=True)
    for u in k.units():
        if not u.is_square():
            assert abs(kloosterman_eval(spec, u)) < 1e-10


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_table_matches_direct_enumeration(q):
    k = make_field(3, 2) if q == 9 else make_field(q)
    for spec in (
        sp_spec(k, 2, twisted=False),
        sp_spec(k, 2, twisted=True),
        so_unramified_spec(k, 2, twisted=False),
        so_unramified_spec(k, 2, twisted=True),
    ):
        for u in k.units():
            assert abs(
                kloosterman_eval(spec, u) - kloosterman_eval_direct(spec, u)
            ) < 1e-9


def test_fourier_trivial_spec():
    k = make_field(5)
    spec = kl_simple(k, 1)
    lhs, rhs, ok = fourier_check(spec, k.trivial_char())
    assert ok and abs(lhs + 1) < 1e-9 and abs(rhs + 1) < 1e-9


def test_fourier_sp4_over_f5_all_chars():
    k = make_field(5)
    spec = sp_spec(k, 2, twisted=False)
    for idx in range(4):
        _, _, ok = fourier_check(spec, MultCharacter(k, idx))
        assert ok


def test_fourier_norm_spec_rhs_is_extension_gauss_sum():
    k = make_field(5)
    triv = k.trivial_char()
    spec = KloostermanSpec(k, (), (), (1,), (triv,), name="norm")
    for idx in range(4):
        chi = MultCharacter(k, idx)
        lhs, rhs, ok = fourier_check(spec, chi)
        assert ok
        assert abs(rhs - gauss_sum_ext(chi, k)) < 1e-12


@pytest.mark.parametrize("q", [7])
def test_hd_product_all_chars(q):
    k = make_field(q)
    for idx in range(q - 1):
        assert hd_product_check(MultCharacter(k, idx))


def test_hd_product_special_cases():
    k = make_field(5)
    assert hd_product_check(k.trivial_char())
    assert hd_product_check(k.omega0())


@pytest.mark.parametrize("q", [3, 5])
def test_hd_lift_all_chars(q):
    k = make_field(q)
    for idx in range(q - 1):
        assert hd_lift_check(MultCharacter(k, idx))


def test_hd_lift_trivial():
    k = make_field(3)
    assert abs(gauss_sum_ext(k.trivial_char(), k) + 1) < 1e-9


# nonvanishing and Fourier uniqueness: properties of the tables that only
# these tests check


def nonvanishing_scan(spec, tol=sums.TOL):
    """Return (a unit u with Kl_u != 0 or None, whether u -> Kl_u is constant)."""
    table = kloosterman_table(spec)
    witness = next(
        (spec.field._units_by_index[d] for d, v in enumerate(table) if abs(v) > tol), None
    )
    return witness, all(abs(v - table[0]) <= tol for v in table)


def ft_uniqueness_check(spec, a, b, c, tol=sums.TOL):
    """Given Kl_{ua} = c*Kl_{ub} for all u, conclude c = 1 and a = b."""
    fld = spec.field
    a, b = fld.coerce(a), fld.coerce(b)
    table = kloosterman_table(spec)
    order = fld.q - 1
    da, db = fld.dlog(a), fld.dlog(b)
    for d in range(order):
        if abs(table[(d + da) % order] - c * table[(d + db) % order]) > tol:
            raise HypothesisFailed(f"Kl_{{ua}} = c*Kl_{{ub}} fails at u = gen^{d}")
    return abs(c - 1) <= tol and a == b


def test_nonvanishing_scan():
    k = make_field(5)
    w, const = nonvanishing_scan(kl_simple(k, 1))
    assert w == k.one and not const
    w, const = nonvanishing_scan(sp_spec(k, 2, twisted=False))
    assert w is not None and not const


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_catalog_nonconstant_nonvanishing(q):
    k = make_field(3, 2) if q == 9 else make_field(q)
    for spec in catalog(k):
        w, const = nonvanishing_scan(spec)
        assert w is not None and not const, spec.name


def test_ft_uniqueness():
    k = make_field(5)
    spec = sp_spec(k, 2, twisted=False)
    assert ft_uniqueness_check(spec, k.one, k.one, 1.0)
    with pytest.raises(HypothesisFailed):
        ft_uniqueness_check(spec, k.coerce(2), k.one, 1.0)
    with pytest.raises(HypothesisFailed):
        ft_uniqueness_check(spec, k.one, k.one, 2.0)


def test_ft_uniqueness_full_scan():
    k = make_field(5)
    spec = sp_spec(k, 2, twisted=False)
    table = [kloosterman_eval(spec, u) for u in k.units()]
    # every (a, b, c) satisfying the hypothesis has a = b, c = 1
    for a in k.units():
        for b in k.units():
            for c in (1.0, -1.0, 2.0):
                try:
                    ok = ft_uniqueness_check(spec, a, b, c)
                except HypothesisFailed:
                    continue
                assert ok and a == b and c == 1.0


def test_variable_cap_guard():
    k = make_field(5)
    triv = k.trivial_char()
    big = KloostermanSpec(k, (1,) * 6, (triv,) * 6)
    with pytest.raises(CapExceeded):
        kloosterman_eval(big, k.one)


def test_table_cache_survives_freed_fields():
    """FiniteField returns the one field of each size, so no field is freed
    between lookups; lookups over three sizes in turn each return the table
    of their own field."""
    for i in range(120):
        fld = FiniteField((3, 5, 7)[i % 3])
        spec = kl_simple(fld, 2)
        table = kloosterman_table(spec)
        assert len(table) == fld.q - 1
        assert abs(table[0] - kloosterman_eval_direct(spec, fld.one)) < 1e-9


def test_cap_guard_runs_on_cache_hit(monkeypatch):
    k = make_field(7)
    spec = kl_simple(k, 2)
    kloosterman_table(spec)
    monkeypatch.setattr(sums, "BRUTE_Q_CAP", 5)
    with pytest.raises(CapExceeded):
        kloosterman_table(spec)


@settings(max_examples=20, deadline=None)
@given(
    perm_seed=st.integers(0, 10**6),
    u_idx=st.integers(0, 3),
)
def test_variable_order_invariance(perm_seed, u_idx):
    """Permuting the plain variables leaves every value fixed."""
    import random

    k = make_field(5)
    rng = random.Random(perm_seed)
    weights = [2, 2, 1]
    chis = [k.trivial_char(), k.omega0(), k.trivial_char()]
    order = list(range(3))
    rng.shuffle(order)
    a = KloostermanSpec(k, tuple(weights), tuple(chis))
    b = KloostermanSpec(
        k, tuple(weights[i] for i in order), tuple(chis[i] for i in order)
    )
    u = k.units()[u_idx]
    assert abs(kloosterman_eval(a, u) - kloosterman_eval(b, u)) < 1e-9


@pytest.mark.parametrize("gauss", [gauss_sum, gauss_sum_ext])
def test_gauss_sums_refuse_a_character_of_another_field(gauss):
    """The sums are cached by (p, f, index), so the field is checked before
    the cache is read: a character of F_5 is not evaluated over F_7."""
    chi = MultCharacter(make_field(5), 1)
    gauss(chi, make_field(5))
    with pytest.raises(WrongField):
        gauss(chi, make_field(7))


def test_specs_refuse_a_character_of_another_field():
    chi = MultCharacter(make_field(5), 1)
    other = make_field(7)
    with pytest.raises(WrongField):
        KloostermanSpec(other, (1,), (chi,))
    with pytest.raises(WrongField):
        KloostermanSpec(other, (), (), (1,), (chi,))


@pytest.mark.parametrize("build", [sp_spec, so_split_spec, so_unramified_spec])
def test_named_specs_take_twisted_by_keyword_only(build):
    """Each (field, n, twisted) is one cache entry: ``twisted`` has no
    default and cannot be passed by position."""
    k = make_field(5)
    specs = [build(k, 2, twisted=t) for t in (False, True)]
    size = build.cache_info().currsize
    assert all(build(k, 2, twisted=t) is s for t, s in zip((False, True), specs))
    assert specs[0] is not specs[1]
    assert build.cache_info().currsize == size
    with pytest.raises(TypeError):
        build(k, 2)
    with pytest.raises(TypeError):
        build(k, 2, True)
    assert build.cache_info().currsize == size


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("build", [so_split_spec, so_unramified_spec])
def test_even_orthogonal_specs_refuse_rank_1(build, twisted):
    """so_spl and so_ur start at rank 2: at n = 1 (and below) the builders
    raise InvalidParams, a library error."""
    for n in (1, 0):
        with pytest.raises(InvalidParams, match="rank 2") as info:
            build(make_field(5), n, twisted=twisted)
        assert isinstance(info.value, EndolabError)
    build(make_field(5), 2, twisted=twisted)  # rank 2 builds


# the walks over field elements that the per-field tables replaced


def _walk_gauss_sum(chi, fld):
    return sum(chi(t) * fld.psi(t) for t in fld.units())


def _walk_gauss_sum_ext(chi, fld):
    ext = quad_extension(fld)
    total = 0j
    for y in ext.units():
        nr = ext.norm(y)
        total += chi(nr) * ext.psi_tilde(y)
    return total


def _walk_position_tables(spec):
    fld = spec.field
    order = fld.q - 1
    psi_by_index = [fld.psi(fld._units_by_index[m]) for m in range(order)]
    tables = []
    for k, chi in zip(spec.weights, spec.chis):
        t = [0j] * order
        for m in range(order):
            t[(k * m) % order] += psi_by_index[m] * chi.value_at_index(m)
        tables.append(t)
    if spec.m:
        ext = quad_extension(fld)
        for l, eta in zip(spec.norm_weights, spec.etas):
            t = [0j] * order
            for y in ext.units():
                nr = ext.norm(y)
                t[(l * fld.dlog(nr)) % order] += ext.psi_tilde(y) * eta(nr)
            tables.append(t)
    return tables


def _bits(x):
    """A complex number, or nested sequences of them, as exact float bits
    (signed zeros told apart)."""
    if isinstance(x, complex):
        return (x.real.hex(), x.imag.hex())
    return tuple(_bits(v) for v in x)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_table_sums_equal_the_field_walks_bit_for_bit(q):
    """Gauss sums, position tables and Kloosterman tables read the per-field
    tables; each equals the walk over field elements float for float."""
    for cache in (sums._psi_table, sums._ext_table, sums._gauss_sum, sums._gauss_sum_ext):
        cache.cache_clear()
    sums._TABLE_CACHE.clear()
    k = make_field(*field_size(q))
    for idx in range(q - 1):
        chi = MultCharacter(k, idx)
        assert _bits(gauss_sum(chi, k)) == _bits(_walk_gauss_sum(chi, k)), idx
        assert _bits(gauss_sum_ext(chi, k)) == _bits(_walk_gauss_sum_ext(chi, k)), idx
    for spec in catalog(k):
        walked = _walk_position_tables(spec)
        assert _bits(sums._position_tables(spec)) == _bits(walked), spec.name
        table = walked[0]
        for t in walked[1:]:
            table = sums._convolve(table, t, q - 1)
        assert _bits(kloosterman_table(spec)) == _bits(table), spec.name
