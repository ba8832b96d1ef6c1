"""Verification suites mirroring the acceptance criteria, shared by the CLI
and the test-suite.  Each suite body yields report rows, and `_suite` runs it
into the list its callers get; a row records one identity (or one aggregated
grid cell) with its two sides, tolerance verdict and wall time."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import product

from .conductors import (
    HeisParams,
    char_table_checks,
    q_group_check,
    ramification_jumps,
    swan_artin_gamma,
    tensor_decompositions,
)
from .characters import (
    KAPPA_KINDS,
    XI_KINDS,
    ZETA_KINDS,
    SSCParams,
    char_brute_force,
    char_closed_form,
    describe,
    family_element,
    formal_degree_ineq,
    random_affine_generic,
)
from .endoscopy import (
    DELTA_IV_EXPECTED,
    Pair,
    delta4,
    delta_iv_walds,
    ecr_gl_lift_verify,
    ecr_ram_descent_verify,
    epsilon_factor,
    norm_family_check,
    pair_variants,
    so_even_packet_verify,
    transfer_factor,
)
from .errors import CapExceeded, EndolabError, IdentityFailed
from .families import DISC_TABLE, FAMILY_VARIANTS, nu_of_u, weyl_disc_val
from .groups import (
    GroupId,
    GroupKind,
    charpoly_eisenstein_check,
    in_px_plus,
    is_affine_generic,
    iwahori_mask_at,
    px_plus_mask_at,
    sample_iplus,
    twisted_norm_charpoly_check,
)
from .residue import MultCharacter, field_size, make_field
from .sums import (
    BRUTE_Q_CAP,
    TOL,
    catalog,
    fourier_check,
    gauss_sum,
    hd_lift_check,
    hd_product_check,
    kloosterman_eval,
    sp_spec,
)


@dataclass
class ReportRow:
    suite: str
    parameters: str
    lhs: str
    rhs: str
    delta: float
    passed: bool
    elapsed: float = 0.0

    def as_dict(self, timings=False):
        """The report's row; `elapsed` is zeroed unless `timings`, so a report
        is byte-stable."""
        return {
            "suite": self.suite,
            "parameters": self.parameters,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "delta": self.delta,
            "pass": self.passed,
            "elapsed": self.elapsed if timings else 0.0,
        }


def _row(suite, params, lhs, rhs, delta, passed):
    return ReportRow(suite, params, str(lhs), str(rhs), float(delta), bool(passed))


def _bit_row(suite, params, lhs, rhs, passed):
    """A pass/fail-only row: delta 0.0 on pass, 1.0 on fail."""
    return _row(suite, params, lhs, rhs, 0.0 if passed else 1.0, passed)


def _suite(body):
    """A suite from a body that yields its rows: the rows come back as a list,
    each with `elapsed` set to the wall time since the previous row, or since
    the suite began for the first."""

    @wraps(body)
    def run(*args, **kwargs):
        rows = []
        t0 = time.perf_counter()
        for row in body(*args, **kwargs):
            t1 = time.perf_counter()
            row.elapsed = round(t1 - t0, 3)
            rows.append(row)
            t0 = t1
        return rows

    return run


def field_for(q: int):
    """F_q for a field size q = p or p^2 of the suites (see `field_size`):
    p above the evaluation cap raises CapExceeded."""
    p, f = field_size(q)
    if p > BRUTE_Q_CAP:
        raise CapExceeded(f"field size {q} beyond the cap p <= {BRUTE_Q_CAP}")
    return make_field(p, f)


# 1 -------------------------------------------------------------------------


@_suite
def exp_sums_suite(qs=(3, 5, 7, 9, 11, 13), tol=TOL):
    for q in qs:
        k = field_for(q)
        w0 = k.omega0()
        g2 = gauss_sum(w0, k) ** 2
        target = q * w0(k.coerce(-1))
        yield _row("gauss_square", f"q={q}", g2, target, abs(g2 - target), abs(g2 - target) <= tol)
        for spec in catalog(k):
            worst = 0.0
            ok = True
            for idx in range(q - 1):
                lhs, rhs, passed = fourier_check(spec, MultCharacter(k, idx), tol)
                worst = max(worst, abs(lhs - rhs))
                ok = ok and passed
            yield _row("fourier", f"q={q} spec={spec.name}", "sum_u chi(u) Kl_u", "prod G", worst, ok)
        okp = all(hd_product_check(MultCharacter(k, i), tol) for i in range(q - 1))
        yield _bit_row("hd_product", f"q={q}", "G(chi w0)G(chi)", "G(chi^2)G(w0)/chi(4)", okp)
        okl = all(hd_lift_check(MultCharacter(k, i), tol) for i in range(q - 1))
        yield _bit_row("hd_lift", f"q={q}", "G(chi o Nr, psi o Tr)", "-G(chi)^2", okl)
    # vanishing at nonsquares, exact to 1e-10
    for q in (3, 5, 7, 11):
        k = field_for(q)
        worst = 0.0
        for n in (1, 2, 3):
            spec = sp_spec(k, n, twisted=True)
            for u in k.units():
                if not u.is_square():
                    worst = max(worst, abs(kloosterman_eval(spec, u)))
        yield _row("kl_vanishing", f"q={q} n<=3", "Kl at nonsquare", "0", worst, worst <= 1e-10)


# 2 -------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _params_grid(group: GroupId, q: int) -> tuple:
    """The character parameters at F_q: a over the units, slowest, then xi,
    kappa and zeta, each over its values on the kind (the ``*_KINDS`` sets).
    Built once per (group, q), both frozen, so the cache is keyed by value."""
    return tuple(
        SSCParams(group, a, xi, kappa, zeta)
        for a in range(1, field_for(q).p)
        for xi in ((1, -1) if group.kind in XI_KINDS else (1,))
        for kappa in ((0, 1) if group.kind in KAPPA_KINDS else (0,))
        for zeta in ((1, -1) if group.kind in ZETA_KINDS else (1,))
    )


@_suite
def char_oracle_suite(
    ns=(2, 3),
    qs=(3, 5, 7),
    n_random=20,
    seed=0,
    tol=TOL,
    kinds=tuple(FAMILY_VARIANTS),
):
    for kind in kinds:  # a rank below a kind's floor refuses the grid up front
        for n in ns:
            GroupId(kind, n)
    for kind in kinds:
        variants = FAMILY_VARIANTS[kind]
        for n in ns:
            for q in qs:
                rng = random.Random(seed + 1000 * n + q)
                elements = [family_element(kind, n, q, u, var) for u in range(1, q) for var in variants]
                for _ in range(n_random):
                    gid = GroupId(kind, n, rng.choice((0, 1)) if kind is GroupKind.SO_RAM else 0)
                    elements.append(random_affine_generic(gid, q, rng))
                worst = 0.0
                count = 0
                ok = True
                for el in elements:
                    desc = describe(el)
                    for params in _params_grid(el.group, q):
                        bf = char_brute_force(params, el).value
                        cf = char_closed_form(params, desc).value
                        d = abs(bf - cf)
                        worst = max(worst, d)
                        ok = ok and d <= tol
                        count += 1
                yield _row(
                    "char_oracle",
                    f"group={kind.value} n={n} q={q} ({count} comparisons)",
                    "brute_force",
                    "closed_form",
                    worst,
                    ok,
                )


# 3, 4, 5 ---------------------------------------------------------------------


def _chain_rows(suite, lhs, rhs, cells, chain):
    """One bit row per cell (n, q) or (kind, n, q): `chain` runs at each unit
    a of the cell, on the xi = 1 packet.  The packet map is odd in xi, so each
    xi = -1 identity is its xi = 1 one negated, and the row covers every
    (xi, a).  Every call is made; one that returns a false value or raises
    IdentityFailed fails the row, and the message of the last one raised
    replaces `rhs`."""
    for cell in cells:
        *kind, n, q = cell
        ok, msg = True, ""
        for a in range(1, q):
            try:
                ok = chain(*cell, a) and ok
            except IdentityFailed as exc:
                ok, msg = False, str(exc)
        label = f"kind={kind[0].value} " if kind else ""
        yield _bit_row(suite, f"{label}n={n} q={q} all (xi,a)", lhs, msg or rhs, ok)


@_suite
def ecr_ram_suite(ns=(2, 3), qs=(3, 5, 7, 11)):
    yield from _chain_rows(
        "ecr_ram_descent",
        "character difference",
        "weighted orthogonal side",
        product(ns, qs),
        ecr_ram_descent_verify,
    )


@_suite
def ecr_gl_suite(ns=(2, 3), qs=(3, 5, 7), tol=1e-9):
    """`tol` is read by nothing; it stays because the benchmark's suite
    workloads (perfbench/child.py) pass it."""
    yield from _chain_rows(
        "ecr_gl_lift", "twisted character", "symplectic difference", product(ns, qs), ecr_gl_lift_verify
    )


@_suite
def ecr_soeven_suite(ns=(2,), qs=(3, 5, 7)):
    yield from _chain_rows(
        "ecr_so_even",
        "even orthogonal difference",
        "ramified side",
        product((GroupKind.SO_SPL, GroupKind.SO_UR), ns, qs),
        so_even_packet_verify,
    )


# 6, 7 -------------------------------------------------------------------------


ALL_PAIRS = (Pair.GL_SORAM, Pair.SP_SORAM, Pair.SOSPL_H, Pair.SOUR_H)


# the benchmark's query loop (perfbench/child.py) reads the variants by this name
_variants = pair_variants


@_suite
def transfer_suite(
    ns=(2, 3), ps=(3, 5, 7, 11, 13), direct=((2, 5), (2, 13), (3, 7), (3, 13))
):
    # (n, p, direct route, suite, parameters, lhs), closed-form cells first
    cells = [
        (n, p, False, "delta_iv_closed", f"n={n} p={p} all pairs, all u", "sign formula")
        for n in ns
        for p in ps
    ] + [(n, p, True, "delta_iv_direct", f"n={n} p={p}", "root-product route") for n, p in direct]
    # a closed cell reads each sign through the whole transfer factor, the
    # value `transfer eval` prints; delta4 and epsilon are factors of both sides
    for n, p, is_direct, suite, params, lhs in cells:
        k = make_field(p)
        ok = True
        for pair in ALL_PAIRS:
            for var in pair_variants(pair):
                table = DELTA_IV_EXPECTED[(pair, var)]
                if is_direct:
                    expect = table.evaluate(k)
                    got = [delta_iv_walds(pair, p, n, u, var, direct=True) for u in range(1, p)]
                    ok = ok and all(abs(g - expect) < 1e-9 for g in got)
                else:
                    expect = (table * delta4(pair, n, var) * epsilon_factor(pair)).canonical(k)
                    got = [transfer_factor(pair, p, n, u, var).canonical(k) for u in range(1, p)]
                    ok = ok and all(g == expect for g in got)
        yield _bit_row(suite, params, lhs, "tabulated constant", ok)


@_suite
def disc_suite(cases=((2, 5), (2, 13), (3, 7), (3, 13))):
    for n, p in cases:
        ok = True
        for kind, var in DISC_TABLE:
            for u in (1, 2):
                nu = nu_of_u(make_field(p), n, u) if kind is GroupKind.SO_RAM else 0
                try:
                    weyl_disc_val(GroupId(kind, n, nu), p, u, var)
                except EndolabError:
                    ok = False
        yield _bit_row("weyl_disc", f"n={n} p={p}", "eigenvalue route", "closed table", ok)


# 8 -------------------------------------------------------------------------


@_suite
def charpoly_suite(q=3, n=2, samples=100, seed=0):
    rng = random.Random(seed)
    gid = GroupId(GroupKind.TWISTED_GL, n)
    iplus = iwahori_mask_at(gid, Fraction(1, gid.coxeter))
    ok = True
    for _ in range(samples):
        g = sample_iplus(gid, q, iplus, rng, is_affine_generic)
        passed, _ = charpoly_eisenstein_check(g)
        ok = ok and passed
    params = f"q={q} N={2*n} {samples} random"
    yield _bit_row("charpoly_eisenstein", params, "shifted coefficients", "maximal-ideal pattern", ok)
    # random odd-size twisted-norm checks
    N = 2 * n + 1
    gid5 = GroupId(GroupKind.GL, N)
    ok = True
    for _ in range(samples):
        x = sample_iplus(gid5, q, px_plus_mask_at(n), rng, in_px_plus)
        passed, _ = twisted_norm_charpoly_check(x)
        ok = ok and passed
    params = f"q={q} N={N} {samples} random"
    yield _bit_row("charpoly_twisted_norm", params, "a0, a1", "vanishing and entry product", ok)
    # factorization against the supplied norm on the family
    ok = True
    for u in range(1, q):
        ok = ok and norm_family_check(q, n, u)
    yield _bit_row("charpoly_factorization", f"q={q} n={n} family", "p_(x,theta)", "p_y * (T-1)", ok)


# 9, 10 ----------------------------------------------------------------------


@_suite
def heisenberg_suite(cases=((3, 1), (5, 1), (3, 2))):
    for p, e in cases:
        params = f"p={p} e={e}"
        ok = q_group_check(HeisParams(p, e))
        yield _bit_row("heis_group_axioms", params, "multiplication table", "group laws", ok)
        try:
            rep = char_table_checks(p, e)
        except EndolabError as exc:
            yield _bit_row("heis_char_table", params, "error", exc, False)
        else:
            yield _bit_row(
                "heis_char_table",
                params,
                f"{rep['n_linear']} linear + {rep['n_big']} big, dims^2 = {rep['dims_sq_sum']}",
                f"order {rep['order']}",
                rep["ok"],
            )
        try:
            td_ok = tensor_decompositions(p, e)["ok"]
        except EndolabError as exc:
            yield _bit_row("heis_tensor_rules", params, "error", exc, False)
        else:
            yield _bit_row("heis_tensor_rules", params, "character products", "stated decompositions", td_ok)


@_suite
def conductor_suite(cases=((3, 1, 2), (5, 1, 4), (3, 2, 2))):
    for p, e, nprime in cases:
        filt = ramification_jumps(p, e, nprime)
        expected = (
            nprime * p ** (2 * e + 1) * (p**e + 1),
            p ** (2 * e + 1),
        ) + (p,) * (p**e)
        params = f"p={p} e={e} n'={nprime}"
        ok = filt.orders == expected
        yield _bit_row("ramification_jumps", params, filt.orders, expected, ok)
        try:
            r = swan_artin_gamma(p, e, nprime)
        except EndolabError as exc:
            yield _bit_row("swan_artin", params, "error", exc, False)
            continue
        n = r["n"]
        ok = r["swan"] == n
        yield _bit_row(
            "swan_artin",
            params,
            f"swan={r['swan']} artin={r['artin']} log_q|gamma|={r['log_q_gamma']}",
            f"n={n}, 2n^2+2n={2*n*n+2*n}, n^2+n={n*n+n}",
            ok,
        )


# 11 ---------------------------------------------------------------------------


@_suite
def formal_degree_suite(ns=(1, 2, 3, 4), qs=(3, 5, 7, 9)):
    for n in ns:
        for q in qs:
            rep = formal_degree_ineq(n, q)
            label = "exceptional" if rep["exceptional"] else "generic"
            yield _bit_row(
                "formal_degree",
                f"n={n} q={q} ({label})",
                "cuspidal dimension bound",
                "Iwahori volume bound",
                rep["holds"],
            )


# orchestration ----------------------------------------------------------------


SUITES = {
    "exp_sums": exp_sums_suite,
    "char_oracle": char_oracle_suite,
    "ecr_ram": ecr_ram_suite,
    "ecr_gl": ecr_gl_suite,
    "ecr_soeven": ecr_soeven_suite,
    "transfer": transfer_suite,
    "disc": disc_suite,
    "charpoly": charpoly_suite,
    "heisenberg": heisenberg_suite,
    "conductor": conductor_suite,
    "formal_degree": formal_degree_suite,
}


def run_all(names=None, seed=0, tol=TOL, jobs=1):
    calls = []
    for name in names or SUITES:
        kwargs = {}
        if name in ("exp_sums", "char_oracle"):
            kwargs["tol"] = tol
        if name in ("char_oracle", "charpoly"):
            kwargs["seed"] = seed
        calls.append((name, kwargs))
    workers = min(jobs, len(calls))
    if workers > 1:
        import multiprocessing as mp

        with mp.Pool(workers) as pool:
            results = pool.map(_run_one, calls)
    else:
        results = map(_run_one, calls)
    return [row for rows in results for row in rows]


def _run_one(call):
    name, kwargs = call
    return SUITES[name](**kwargs)
