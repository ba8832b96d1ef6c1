"""The value caches under the Gauss-sum, transfer, disc and family-matrix
routes hold field, tower and matrix data only: a cached value equals a cold
recomputation digit for digit, and a perturbed table reaches a warm cache as
it reaches a cold one."""

from fractions import Fraction

import pytest

from endolab import endoscopy, families, sums
from endolab.characters import ElementDescriptor
from endolab.endoscopy import (
    ETA_CLOSED,
    PAIR_GROUP,
    Pair,
    delta_iv_walds,
    norm_family_check,
    pair_variants,
    pol_products,
    so_even_coset_verify,
)
from endolab.errors import InvalidU
from endolab.families import (
    DISC_TABLE,
    FAMILY_VARIANTS,
    WaldsFamilyData,
    family_eigenvalues,
    family_matrix,
    nu_of_u,
    walds_family,
    weyl_disc_val,
)
from endolab.groups import GroupId, GroupKind, GroupMatrix
from endolab.padic import LocalElem
from endolab.residue import MultCharacter, make_field
from endolab.suites import exp_sums_suite

# n, p with p = 1 mod 2n, so the eigenvalue routes run
N, P = 2, 5
UNITS = range(1, P)
CACHES = (
    families.y_element,
    families.family_eigenvalues,
    families.walds_family,
    families._q_pair,
    families.family_matrix,
    families._root_pair_val,
    endoscopy.pol_products,
    endoscopy.sign_terms,
    endoscopy.so_factors,
    endoscopy.coset_descriptor,
    sums._psi_table,
    sums._ext_table,
    sums._gauss_sum,
    sums._gauss_sum_ext,
)
SO_EVEN = (GroupKind.SO_SPL, GroupKind.SO_UR)
# keyed by (p, f) or (p, f, index)
SUMS_CACHES = CACHES[-4:]


def _clear():
    for cache in CACHES:
        cache.cache_clear()
    sums._TABLE_CACHE.clear()


def _gid(kind, u):
    return GroupId(kind, N, nu_of_u(make_field(P), N, u) if kind is GroupKind.SO_RAM else 0)


def _plain(x):
    """A cached value as plain data, every tower element as (shift, unit,
    rprec) with its unit a tuple."""
    if isinstance(x, LocalElem):
        assert isinstance(x.unit, tuple)
        return (x.shift, x.unit, x.rprec)
    if isinstance(x, WaldsFamilyData):
        consts = (x.y, x.x_gl, x.c_sp, x.c_plus)
        return (x.p, x.n, x.u, x.tower.e, x.tower.u0, _plain(consts))
    if isinstance(x, GroupMatrix):
        return (x.group, x.p, x.a, x.s, x.prec)
    if isinstance(x, ElementDescriptor):
        comps = tuple((c.field.p, c.field.f, c.a, c.b) for c in x.components)
        return (x.group, comps, x.phi, x.sign)
    if isinstance(x, (Fraction, int)):
        return x
    if isinstance(x, complex):
        return (x.real.hex(), x.imag.hex())
    return tuple(_plain(v) for v in x)


def _run_routes():
    for pair in Pair:
        for var in pair_variants(pair):
            for u in UNITS:
                for direct in (False, True):
                    delta_iv_walds(pair, P, N, u, var, direct)
    for kind, var in DISC_TABLE:
        for u in UNITS:
            weyl_disc_val(_gid(kind, u), P, u, var, direct=True)
    for kind, variants in FAMILY_VARIANTS.items():
        for u in UNITS:
            for var in variants:
                family_matrix(_gid(kind, u), P, u, var)
    for u in UNITS:
        assert norm_family_check(Pair.GL_ODD_SP, P, N, u)
    # each u is admissible at one nu, where its phi-coset element is described;
    # the G-side a run through both nu
    for kind in SO_EVEN:
        for a in range(1, P):
            so_even_coset_verify(kind, N, P, a)
    k = make_field(P)
    for idx in range(P - 1):
        sums.gauss_sum(MultCharacter(k, idx), k)
        sums.gauss_sum_ext(MultCharacter(k, idx), k)
    for spec in sums.catalog(k):
        sums.kloosterman_table(spec)


def test_cached_values_equal_a_cold_recomputation():
    _clear()
    _run_routes()
    keys = {
        walds_family: [(P, N, u) for u in UNITS],
        family_eigenvalues: [(P, N, u) for u in UNITS],
        pol_products: [(P, N, u, s, d) for u in UNITS for s in "+-" for d in (False, True)],
        endoscopy.sign_terms: [(P, N, u, minus) for u in UNITS for minus in (False, True)],
        endoscopy.so_factors: [
            (PAIR_GROUP[pair], P, N, u, var)
            for pair in (Pair.SOSPL_H, Pair.SOUR_H)
            for u in UNITS
            for var in pair_variants(pair)
        ],
        endoscopy.coset_descriptor: [(kind, N, P, u) for kind in SO_EVEN for u in UNITS],
        # shared by the Sp and the three orthogonal kinds
        families._root_pair_val: [(P, N, u) for u in UNITS],
        # one field; the catalog tables read the per-field ones
        sums._psi_table: [(P, 1)],
        sums._ext_table: [(P, 1)],
        sums._gauss_sum: [(P, 1, idx) for idx in range(P - 1)],
        sums._gauss_sum_ext: [(P, 1, idx) for idx in range(P - 1)],
        # norm_family_check's Sp matrices among them, under the same keys
        family_matrix: [
            (_gid(kind, u), P, u, var)
            for kind, variants in FAMILY_VARIANTS.items()
            for u in UNITS
            for var in variants
        ],
    }
    # no field object and no id() among the keys
    assert all(type(v) is int for cache in SUMS_CACHES for a in keys[cache] for v in a)
    warm = {}
    for cache, args in keys.items():
        # the routes filled the cache with exactly these values
        assert cache.cache_info().currsize == len(args), cache
        warm[cache] = [cache(*a) for a in args]
        assert cache.cache_info().currsize == len(args), cache
    _clear()
    for cache, args in keys.items():
        for a, value in zip(args, warm[cache]):
            assert _plain(value) == _plain(cache.__wrapped__(*a)), (cache.__name__, a)


def test_a_table_perturbation_reaches_a_warm_cache(monkeypatch):
    """ETA_CLOSED and DISC_TABLE are read on every call, never cached: a
    perturbation after the caches are warm gives what it gives on cold
    caches, and it does change the result."""
    so_spl = [(Pair.SOSPL_H, var) for var in pair_variants(Pair.SOSPL_H)]
    assert PAIR_GROUP[Pair.SOSPL_H] is GroupKind.SO_SPL
    sp = GroupId(GroupKind.SP, N)

    def outcome():
        signs = tuple(
            delta_iv_walds(pair, P, N, u, var, direct)
            for pair, var in so_spl
            for u in UNITS
            for direct in (False, True)
        )
        try:
            disc = weyl_disc_val(sp, P, 1, "plus", direct=True)
        except InvalidU as exc:
            disc = str(exc)
        return signs, disc

    _clear()
    before = outcome()
    assert before[1] == Fraction(N, 2)
    eta = ETA_CLOSED[GroupKind.SO_SPL]
    # 2 is not a square mod 5, so doubling eta flips the sign character
    monkeypatch.setitem(ETA_CLOSED, GroupKind.SO_SPL, lambda n: 2 * eta(n))
    monkeypatch.setitem(DISC_TABLE, (GroupKind.SP, "plus"), lambda n: Fraction(n, 2) + 1)
    warm = outcome()
    _clear()
    cold = outcome()
    assert warm == cold
    assert warm[0] == tuple(-s for s in before[0])
    with pytest.raises(InvalidU):
        weyl_disc_val(sp, P, 1, "plus", direct=True)


def _rows(suite_rows):
    return {(r.suite, r.parameters): r.passed for r in suite_rows}


@pytest.fixture
def cold_after(monkeypatch):
    """Clear every cache when the test ends, before its monkeypatches are
    undone, so no perturbed value outlives the test."""
    yield monkeypatch
    _clear()


def test_an_extension_table_perturbation_fails_hd_lift_on_warm_caches(cold_after):
    """The extension Gauss sums are cached above the extension table, and
    hd_lift compares them with the base-field sums: one perturbed entry, with
    the caches that read the table cleared, fails that row and no other."""
    before = _rows(exp_sums_suite(qs=(P,)))
    assert all(before.values())
    entries = list(sums._ext_table(P, 1))
    d, psi = entries[0]
    entries[0] = (d, -psi)
    real = sums._ext_table
    cold_after.setattr(sums, "_ext_table", lambda p, f: tuple(entries) if (p, f) == (P, 1) else real(p, f))
    sums._gauss_sum_ext.cache_clear()
    sums._TABLE_CACHE.clear()
    # the base-field tables stay warm
    assert sums._psi_table.cache_info().currsize and sums._gauss_sum.cache_info().currsize
    after = _rows(exp_sums_suite(qs=(P,)))
    assert after.keys() == before.keys()
    assert [key for key, passed in after.items() if not passed] == [("hd_lift", f"q={P}")]


def test_a_kloosterman_table_perturbation_fails_its_fourier_row(cold_after):
    """The fourier rows read the cached Kloosterman table, and their Gauss
    side reads no table: one perturbed entry of a warm table fails its row
    and no other."""
    spec = sums.sp_spec(make_field(P), 2)
    _clear()
    table = sums.kloosterman_table(spec)
    (key,) = sums._TABLE_CACHE
    before = _rows(exp_sums_suite(qs=(P,)))
    assert all(before.values())
    assert sums.kloosterman_table(spec) is table
    cold_after.setitem(sums._TABLE_CACHE, key, [table[0] + 1] + table[1:])
    after = _rows(exp_sums_suite(qs=(P,)))
    assert [key for key, passed in after.items() if not passed] == [("fourier", f"q={P} spec={spec.name}")]


def test_the_direct_oracle_reads_none_of_the_sum_tables(cold_after):
    """With the per-field tables and Gauss sums raising, the table route
    fails and kloosterman_eval_direct still evaluates every catalog spec."""
    k = make_field(P)
    specs = sums.catalog(k)
    expect = [sums.kloosterman_eval(spec, k.one) for spec in specs]

    class TableRead(Exception):
        pass

    def refuse(*args):
        raise TableRead(args)

    for cache in SUMS_CACHES:
        cold_after.setattr(sums, cache.__name__, refuse)
    for spec, value in zip(specs, expect):
        with pytest.raises(TableRead):
            sums._position_tables(spec)
        assert abs(sums.kloosterman_eval_direct(spec, k.one) - value) < 1e-9, spec.name
