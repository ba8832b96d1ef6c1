"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import time

from endolab import suites


def _run(name, fn, **kw):
    t0 = time.perf_counter()
    rows = fn(**kw)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in rows)
    print(f"[{'PASS' if ok else 'FAIL'}] {name} ({len(rows)} rows, {elapsed:.1f}s)")
    for r in rows:
        if not r.passed:
            print(f"       failed: {r.parameters}: {r.lhs} vs {r.rhs} (delta {r.delta})")
    return rows, elapsed, ok


def test_criterion_01_exponential_sums():
    rows, elapsed, ok = _run(
        "criterion 1: exponential sums (q in 3..13, all characters, full catalog)",
        suites.exp_sums_suite,
        qs=(3, 5, 7, 9, 11, 13),
        tol=1e-6,
    )
    assert ok
    assert elapsed < 60


def test_criterion_02_character_oracles():
    rows, elapsed, ok = _run(
        "criterion 2: character oracle equivalence (5 kinds, n in 2,3, q in 3,5,7)",
        suites.char_oracle_suite,
        ns=(2, 3),
        qs=(3, 5, 7),
        n_random=20,
        seed=0,
        tol=1e-6,
    )
    assert ok
    assert elapsed < 60


def test_criterion_03_ram_descent():
    rows, _, ok = _run(
        "criterion 3: ramified descent identities (n in 2,3; q in 3,5,7,11)",
        suites.ecr_ram_suite,
        ns=(2, 3),
        qs=(3, 5, 7, 11),
    )
    assert ok


def test_criterion_04_gl_lift():
    rows, _, ok = _run(
        "criterion 4: linear-group lift identities (n in 2,3; q in 3,5,7)",
        suites.ecr_gl_suite,
        ns=(2, 3),
        qs=(3, 5, 7),
        tol=1e-9,
    )
    assert ok


def test_criterion_05_so_even_packets():
    rows, _, ok = _run(
        "criterion 5: even-orthogonal packet chains (n=2; q in 3,5,7; both zeta branches)",
        suites.ecr_soeven_suite,
        ns=(2,),
        qs=(3, 5, 7),
    )
    assert ok


def test_criterion_06_transfer_factors():
    rows, _, ok = _run(
        "criterion 6: transfer-factor oracle (closed path p<=13, direct spots)",
        suites.transfer_suite,
        ns=(2, 3),
        ps=(3, 5, 7, 11, 13),
        direct=((2, 5), (2, 13), (3, 7), (3, 13)),
    )
    assert ok


def test_criterion_07_weyl_discriminants():
    rows, _, ok = _run(
        "criterion 7: Weyl discriminant valuations (p = 1 mod 2n)",
        suites.disc_suite,
        cases=((2, 5), (2, 13), (3, 7), (3, 13)),
    )
    assert ok


def test_criterion_08_charpoly_lemmas():
    rows, _, ok = _run(
        "criterion 8: characteristic-polynomial checks (100 random samples, q=3)",
        suites.charpoly_suite,
        q=3,
        n=2,
        samples=100,
        seed=0,
    )
    assert ok


def test_criterion_09_heisenberg():
    rows, elapsed, ok = _run(
        "criterion 9: Heisenberg suite ((3,1),(5,1),(3,2)), exact",
        suites.heisenberg_suite,
        cases=((3, 1), (5, 1), (3, 2)),
    )
    assert ok
    assert elapsed < 5


def test_criterion_10_conductors():
    rows, _, ok = _run(
        "criterion 10: conductor suite ((3,1,2),(5,1,4),(3,2,2)), exact",
        suites.conductor_suite,
        cases=((3, 1, 2), (5, 1, 4), (3, 2, 2)),
    )
    assert ok


def test_criterion_11_formal_degree():
    rows, _, ok = _run(
        "criterion 11: formal-degree inequality (n<=4, q in 3,5,7,9)",
        suites.formal_degree_suite,
        ns=(1, 2, 3, 4),
        qs=(3, 5, 7, 9),
    )
    assert ok
