"""Verification suites mirroring the acceptance criteria, shared by the CLI
and the test-suite.  Each suite returns a list of report rows; a row records
one identity (or one aggregated grid cell) with its two sides and tolerance
verdict."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
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
    TRANSFER_EXPECTED,
    delta_iv_walds,
    ecr_gl_lift_verify,
    ecr_ram_descent_verify,
    norm_family_check,
    pair_variants,
    so_even_packet_verify,
    transfer_factor,
)
from .errors import EndolabError, IdentityFailed
from .families import FAMILY_VARIANTS, base_field, nu_of_u, weyl_disc_val
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
from .residue import MultCharacter, make_field
from .sums import (
    catalog,
    fourier_check,
    gauss_sum,
    hd_lift_check,
    hd_product_check,
    kloosterman_eval,
    sp_spec,
)

DEFAULT_TOL = 1e-6


@dataclass
class ReportRow:
    suite: str
    parameters: str
    lhs: str
    rhs: str
    delta: float
    passed: bool
    elapsed: float = 0.0

    def as_dict(self):
        return {
            "suite": self.suite,
            "parameters": self.parameters,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "delta": self.delta,
            "pass": self.passed,
            "elapsed": self.elapsed,
        }


def _row(suite, params, lhs, rhs, delta, passed, t0=None, timings=False):
    elapsed = round(time.perf_counter() - t0, 3) if (timings and t0) else 0.0
    return ReportRow(suite, params, str(lhs), str(rhs), float(delta), bool(passed), elapsed)


def _bit_row(suite, params, lhs, rhs, passed, t0=None, timings=False):
    """A pass/fail-only row: delta 0.0 on pass, 1.0 on fail."""
    return _row(suite, params, lhs, rhs, 0.0 if passed else 1.0, passed, t0, timings)


def _identity_row(suite, params, lhs, rhs, checks, t0=None, timings=False):
    """A bit row over identity checks.  Every check is called; one that returns
    a false value or raises IdentityFailed fails the row, and the message of
    the last one raised replaces `rhs`."""
    ok = True
    msg = ""
    for check in checks:
        try:
            ok = check() and ok
        except IdentityFailed as exc:
            ok = False
            msg = str(exc)
    return _bit_row(suite, params, lhs, msg or rhs, ok, t0, timings)


def _field_for(q: int):
    for p in (3, 5, 7, 11, 13):
        if q == p:
            return make_field(p)
        if q == p * p:
            return make_field(p, 2)
    raise EndolabError(f"unsupported field size {q}")


# 1 -------------------------------------------------------------------------


def exp_sums_suite(qs=(3, 5, 7, 9, 11, 13), tol=DEFAULT_TOL, timings=False):
    rows = []
    for q in qs:
        k = _field_for(q)
        t0 = time.perf_counter()
        w0 = k.omega0()
        g2 = gauss_sum(w0, k) ** 2
        target = q * w0(k.coerce(-1))
        rows.append(
            _row("gauss_square", f"q={q}", g2, target, abs(g2 - target), abs(g2 - target) <= tol, t0, timings)
        )
        for spec in catalog(k):
            t0 = time.perf_counter()
            worst = 0.0
            ok = True
            for idx in range(q - 1):
                lhs, rhs, passed = fourier_check(spec, MultCharacter(k, idx), tol)
                worst = max(worst, abs(lhs - rhs))
                ok = ok and passed
            rows.append(
                _row("fourier", f"q={q} spec={spec.name}", "sum_u chi(u) Kl_u", "prod G", worst, ok, t0, timings)
            )
        t0 = time.perf_counter()
        okp = all(hd_product_check(MultCharacter(k, i), tol) for i in range(q - 1))
        rows.append(_bit_row("hd_product", f"q={q}", "G(chi w0)G(chi)", "G(chi^2)G(w0)/chi(4)", okp, t0, timings))
        t0 = time.perf_counter()
        okl = all(hd_lift_check(MultCharacter(k, i), tol) for i in range(q - 1))
        rows.append(_bit_row("hd_lift", f"q={q}", "G(chi o Nr, psi o Tr)", "-G(chi)^2", okl, t0, timings))
    # vanishing at nonsquares, exact to 1e-10
    for q in (3, 5, 7, 11):
        k = _field_for(q)
        t0 = time.perf_counter()
        worst = 0.0
        for n in (1, 2, 3):
            spec = sp_spec(k, n, twisted=True)
            for u in k.units():
                if not u.is_square():
                    worst = max(worst, abs(kloosterman_eval(spec, u)))
        rows.append(
            _row("kl_vanishing", f"q={q} n<=3", "Kl at nonsquare", "0", worst, worst <= 1e-10, t0, timings)
        )
    return rows


# 2 -------------------------------------------------------------------------


def _gl_zeta(k):
    w0m1 = 1 if k.dlog(k.coerce(-1)) % 2 == 0 else -1
    return 1.0 if w0m1 == 1 else 1.0j


def _params_grid(group: GroupId, q: int):
    k = _field_for(q)
    units = range(1, k.p)
    if group.kind is GroupKind.TWISTED_GL:
        z0 = _gl_zeta(k)
        return [SSCParams(group, a, zeta=z) for a in units for z in (z0, -z0)]
    if group.kind is GroupKind.SP:
        return [SSCParams(group, a, xi, kp) for a in units for xi in (1, -1) for kp in (0, 1)]
    if group.kind is GroupKind.SO_RAM:
        return [SSCParams(group, a, xi) for a in units for xi in (1, -1)]
    return [
        SSCParams(group, a, xi, kp, z)
        for a in units
        for xi in (1, -1)
        for kp in (0, 1)
        for z in (1, -1)
    ]


def char_oracle_suite(
    ns=(2, 3), qs=(3, 5, 7), n_random=20, seed=0, tol=DEFAULT_TOL, timings=False
):
    rows = []
    for kind, variants in FAMILY_VARIANTS.items():
        for n in ns:
            for q in qs:
                rng = random.Random(seed + 1000 * n + q)
                t0 = time.perf_counter()
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
                rows.append(
                    _row(
                        "char_oracle",
                        f"group={kind.value} n={n} q={q} ({count} comparisons)",
                        "brute_force",
                        "closed_form",
                        worst,
                        ok,
                        t0,
                        timings,
                    )
                )
    return rows


# 3, 4, 5 ---------------------------------------------------------------------


def ecr_ram_suite(ns=(2, 3), qs=(3, 5, 7, 11), timings=False):
    def check(n, q, xi, a):
        return ecr_ram_descent_verify(n, q, xi, a).genericity_sign == 1

    rows = []
    for n in ns:
        for q in qs:
            t0 = time.perf_counter()
            checks = [partial(check, n, q, xi, a) for xi in (1, -1) for a in range(1, q)]
            rows.append(
                _identity_row(
                    "ecr_ram_descent",
                    f"n={n} q={q} all (xi,a)",
                    "character difference",
                    "weighted orthogonal side",
                    checks,
                    t0,
                    timings,
                )
            )
    return rows


def ecr_gl_suite(ns=(2, 3), qs=(3, 5, 7), tol=1e-9, timings=False):
    def check(n, q, xi, a, w0m1):
        b, zeta, passed = ecr_gl_lift_verify(n, q, xi, a)
        return passed and b == (4 * a) % q and abs(zeta**2 - w0m1) <= tol

    rows = []
    for n in ns:
        for q in qs:
            t0 = time.perf_counter()
            k = make_field(q)
            w0m1 = k.omega0()(k.coerce(-1))
            checks = [partial(check, n, q, xi, a, w0m1) for xi in (1, -1) for a in range(1, q)]
            rows.append(
                _identity_row(
                    "ecr_gl_lift",
                    f"n={n} q={q} all (xi,a)",
                    "twisted character",
                    "symplectic difference",
                    checks,
                    t0,
                    timings,
                )
            )
    return rows


def ecr_soeven_suite(ns=(2,), qs=(3, 5, 7), timings=False):
    def check(kind, n, q, xi_p, a_p, nu):
        so_even_packet_verify(kind, n, q, xi_p, a_p, nu)
        return True

    rows = []
    for kind in (GroupKind.SO_SPL, GroupKind.SO_UR):
        for n in ns:
            for q in qs:
                t0 = time.perf_counter()
                checks = [partial(check, kind, n, q, *c) for c in product((1, -1), range(1, q), (0, 1))]
                rows.append(
                    _identity_row(
                        "ecr_so_even",
                        f"kind={kind.value} n={n} q={q} all (xi+,a+,nu)",
                        "even orthogonal difference",
                        "ramified side",
                        checks,
                        t0,
                        timings,
                    )
                )
    return rows


# 6, 7 -------------------------------------------------------------------------


ALL_PAIRS = (Pair.GL_SORAM, Pair.SP_SORAM, Pair.SOSPL_H, Pair.SOUR_H)


# the benchmark's query loop (perfbench/child.py) reads the variants by this name
_variants = pair_variants


def transfer_suite(
    ns=(2, 3), ps=(3, 5, 7, 11, 13), direct=((2, 5), (2, 13), (3, 7), (3, 13)), timings=False
):
    rows = []
    # (n, p, direct route, suite, parameters, lhs), closed-form cells first
    cells = [
        (n, p, False, "delta_iv_closed", f"n={n} p={p} all pairs, all u", "sign formula")
        for n in ns
        for p in ps
    ] + [(n, p, True, "delta_iv_direct", f"n={n} p={p}", "root-product route") for n, p in direct]
    for n, p, is_direct, suite, params, lhs in cells:
        t0 = time.perf_counter()
        k = make_field(p)
        ok = True
        for pair in ALL_PAIRS:
            for var in pair_variants(pair):
                expect = DELTA_IV_EXPECTED[(pair, var)].evaluate(k)
                for u in range(1, p):
                    got = delta_iv_walds(pair, p, n, u, var, direct=is_direct)
                    ok = ok and abs(got - expect) < 1e-9
        rows.append(_bit_row(suite, params, lhs, "tabulated constant", ok, t0, timings))
    t0 = time.perf_counter()
    ok = True
    k5 = make_field(5)
    for (pair, var), expect in TRANSFER_EXPECTED.items():
        for n in (2, 3):
            got = transfer_factor(pair, 5, n, 1, var)
            ok = ok and got.symbolic_eq(expect, k5)
    rows.append(
        _bit_row("transfer_symbolic", "p=5 n in (2,3)", "Delta product", "tabulated", ok, t0, timings)
    )
    return rows


def disc_suite(cases=((2, 5), (2, 13), (3, 7), (3, 13)), timings=False):
    rows = []
    for n, p in cases:
        t0 = time.perf_counter()
        ok = True
        for kind, variants in (
            (GroupKind.SP, ("plus",)),
            (GroupKind.TWISTED_GL, ("plus", "minus")),
            (GroupKind.SO_RAM, ("plus",)),
            (GroupKind.SO_SPL, ("plus", "phi_coset")),
            (GroupKind.SO_UR, ("plus", "phi_coset")),
        ):
            for var in variants:
                for u in (1, 2):
                    nu = nu_of_u(make_field(p), n, u) if kind is GroupKind.SO_RAM else 0
                    gid = GroupId(kind, n, nu)
                    try:
                        weyl_disc_val(gid, p, u, var, direct=True)
                    except EndolabError:
                        ok = False
        rows.append(
            _bit_row("weyl_disc", f"n={n} p={p}", "eigenvalue route", "closed table", ok, t0, timings)
        )
    return rows


# 8 -------------------------------------------------------------------------


def charpoly_suite(q=3, n=2, samples=100, seed=0, timings=False):
    rows = []
    rng = random.Random(seed)
    base = base_field(q)
    gid = GroupId(GroupKind.TWISTED_GL, n)
    iplus = iwahori_mask_at(gid, Fraction(1, gid.coxeter))
    t0 = time.perf_counter()
    ok = True
    for _ in range(samples):
        g = sample_iplus(gid, base, iplus, rng, is_affine_generic)
        passed, _ = charpoly_eisenstein_check(g)
        ok = ok and passed
    params = f"q={q} N={2*n} {samples} random"
    rows.append(
        _bit_row("charpoly_eisenstein", params, "shifted coefficients", "maximal-ideal pattern", ok, t0, timings)
    )
    # random odd-size twisted-norm checks
    N = 2 * n + 1
    gid5 = GroupId(GroupKind.GL, N)
    t0 = time.perf_counter()
    ok = True
    for _ in range(samples):
        x = sample_iplus(gid5, base, px_plus_mask_at(n), rng, in_px_plus)
        passed, _ = twisted_norm_charpoly_check(x)
        ok = ok and passed
    params = f"q={q} N={N} {samples} random"
    rows.append(
        _bit_row("charpoly_twisted_norm", params, "a0, a1", "vanishing and entry product", ok, t0, timings)
    )
    # factorization against the supplied norm on the family
    t0 = time.perf_counter()
    ok = True
    for u in range(1, q):
        ok = ok and norm_family_check(Pair.GL_ODD_SP, q, n, u)
    rows.append(
        _bit_row("charpoly_factorization", f"q={q} n={n} family", "p_(x,theta)", "p_y * (T-1)", ok, t0, timings)
    )
    return rows


# 9, 10 ----------------------------------------------------------------------


def heisenberg_suite(cases=((3, 1), (5, 1), (3, 2)), timings=False):
    rows = []
    for p, e in cases:
        params = f"p={p} e={e}"
        t0 = time.perf_counter()
        ok = q_group_check(HeisParams(p, e))
        rows.append(
            _bit_row("heis_group_axioms", params, "multiplication table", "group laws", ok, t0, timings)
        )
        t0 = time.perf_counter()
        rep = char_table_checks(p, e)
        rows.append(
            _bit_row(
                "heis_char_table",
                params,
                f"{rep['n_linear']} linear + {rep['n_big']} big, dims^2 = {rep['dims_sq_sum']}",
                f"order {rep['order']}",
                rep["ok"],
                t0,
                timings,
            )
        )
        t0 = time.perf_counter()
        td = tensor_decompositions(p, e)
        rows.append(
            _bit_row("heis_tensor_rules", params, "character products", "stated decompositions", td["ok"], t0, timings)
        )
    return rows


def conductor_suite(cases=((3, 1, 2), (5, 1, 4), (3, 2, 2)), timings=False):
    rows = []
    for p, e, nprime in cases:
        t0 = time.perf_counter()
        filt = ramification_jumps(p, e, nprime)
        expected = (
            nprime * p ** (2 * e + 1) * (p**e + 1),
            p ** (2 * e + 1),
        ) + (p,) * (p**e)
        params = f"p={p} e={e} n'={nprime}"
        ok = filt.orders == expected
        rows.append(
            _bit_row("ramification_jumps", params, filt.orders, expected, ok, t0, timings)
        )
        t0 = time.perf_counter()
        try:
            r = swan_artin_gamma(p, e, nprime)
        except EndolabError as exc:
            rows.append(_bit_row("swan_artin", params, "error", exc, False, t0, timings))
            continue
        n = r["n"]
        ok = r["swan"] == n and r["artin"] == 2 * n * n + 2 * n and r["fdc_pass"]
        rows.append(
            _bit_row(
                "swan_artin",
                params,
                f"swan={r['swan']} artin={r['artin']} log_q|gamma|={r['log_q_gamma']}",
                f"n={n}, 2n^2+2n={2*n*n+2*n}, n^2+n={n*n+n}",
                ok,
                t0,
                timings,
            )
        )
    return rows


# 11 ---------------------------------------------------------------------------


def formal_degree_suite(ns=(1, 2, 3, 4), qs=(3, 5, 7, 9), timings=False):
    rows = []
    for n in ns:
        for q in qs:
            t0 = time.perf_counter()
            rep = formal_degree_ineq(n, q)
            label = "exceptional" if rep["exceptional"] else "generic"
            rows.append(
                _bit_row(
                    "formal_degree",
                    f"n={n} q={q} ({label})",
                    "cuspidal dimension bound",
                    "Iwahori volume bound",
                    rep["holds"],
                    t0,
                    timings,
                )
            )
    return rows


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


def run_all(names=None, seed=0, tol=DEFAULT_TOL, timings=False, jobs=1):
    names = list(names or SUITES)
    calls = []
    for name in names:
        fn = SUITES[name]
        kwargs = {"timings": timings}
        if name in ("exp_sums", "char_oracle"):
            kwargs["tol"] = tol
        if name in ("char_oracle", "charpoly"):
            kwargs["seed"] = seed
        calls.append((name, fn, kwargs))
    if jobs > 1:
        import multiprocessing as mp

        with mp.Pool(jobs) as pool:
            results = pool.map(_run_one, calls)
    else:
        results = [_run_one(c) for c in calls]
    out = []
    for rows in results:
        out.extend(rows)
    return out


def _run_one(call):
    name, fn, kwargs = call
    return fn(**kwargs)
