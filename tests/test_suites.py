"""Report-row plumbing of the suites: identity rows that fail, one `_row`
call per row, the wall time of each row, the keyword arguments `run_all`
hands each suite and the worker count it asks for, the table keys the
discriminant suite reads, the filtrations the conductor suite composes, and
the character parameter grid."""

import hashlib
import json
import multiprocessing
from types import SimpleNamespace

import pytest

from endolab import characters, conductors, endoscopy, suites
from endolab.characters import SSCParams
from endolab.errors import IdentityFailed
from endolab.families import DISC_TABLE, FAMILY_VARIANTS
from endolab.groups import GroupId, GroupKind

# the smallest arguments each suite accepts; every suite in SUITES is listed
SMALL = {
    "exp_sums": dict(qs=(3,)),
    "char_oracle": dict(ns=(2,), qs=(3,), n_random=1),
    "ecr_ram": dict(ns=(2,), qs=(3,)),
    "ecr_gl": dict(ns=(2,), qs=(3,)),
    "ecr_soeven": dict(ns=(2,), qs=(3,)),
    "transfer": dict(ns=(2,), ps=(3,), direct=((2, 5),)),
    "disc": dict(cases=((2, 5),)),
    "charpoly": dict(samples=2),
    "heisenberg": dict(cases=((3, 1),)),
    "conductor": dict(cases=((3, 1, 2),)),
    "formal_degree": dict(ns=(1,), qs=(3,)),
}


def _fake_descent(monkeypatch, bad, failure):
    """Replace the descent check: the unit `bad` fails through `failure`,
    every other unit passes.  Returns the list of a called."""
    calls = []

    def verify(n, q, a):
        calls.append(a)
        if a == bad:
            return failure()
        return endoscopy.packet_solution(endoscopy.Pair.SP_SORAM, n, q, 1, a)

    monkeypatch.setattr(suites, "ecr_ram_descent_verify", verify)
    return calls


def test_identity_row_fails_on_raised_identity(monkeypatch):
    q = 7
    msg = "main identity fails at u=3"

    def raise_failure():
        raise IdentityFailed(msg)

    calls = _fake_descent(monkeypatch, 2, raise_failure)
    [row] = suites.ecr_ram_suite(ns=(2,), qs=(q,))
    assert not row.passed and row.delta == 1.0
    assert row.rhs == msg
    # every unit is still verified after the failing one, once
    assert calls == list(range(1, q))


def test_identity_row_fails_on_false_check(monkeypatch):
    q = 5
    # a verify function that returns a false value instead of raising
    calls = _fake_descent(monkeypatch, 4, lambda: None)
    [row] = suites.ecr_ram_suite(ns=(2,), qs=(q,))
    assert not row.passed and row.delta == 1.0
    assert row.rhs == "weighted orthogonal side"
    assert calls == list(range(1, q))


def test_identity_row_passes():
    [row] = suites.ecr_ram_suite(ns=(2,), qs=(3,))
    assert row.passed and row.delta == 0.0
    assert row.rhs == "weighted orthogonal side"


def test_the_coset_identity_runs_once_per_a(monkeypatch):
    """The phi-coset identity reads no xi, so one default ecr_soeven suite run
    evaluates each of its closed-form characters once: 224 calls on 224
    distinct (parameters, element) pairs."""
    real = characters.char_closed_form
    calls = []

    def counting(params, desc):
        calls.append((params, desc))
        return real(params, desc)

    monkeypatch.setattr(characters, "char_closed_form", counting)
    assert all(row.passed for row in suites.ecr_soeven_suite())
    assert len(calls) == len(set(calls)) == 224


def test_each_chain_runs_once_per_a(monkeypatch):
    """The chains run at xi = 1 only (the packet map is odd in xi), so one
    default run of each ECR suite evaluates each Kloosterman side of a chain
    once per (cell, a, u): 312, 224 (two sides) and 112 direct
    kloosterman_eval calls.  Running both xi made 624, 448 and 224."""
    real = endoscopy.kloosterman_eval
    calls = []

    def counting(spec, x):
        calls.append(x)
        return real(spec, x)

    monkeypatch.setattr(endoscopy, "kloosterman_eval", counting)
    for suite, expect in (("ecr_ram", 312), ("ecr_gl", 224), ("ecr_soeven", 112)):
        calls.clear()
        assert all(row.passed for row in suites.SUITES[suite]()), suite
        assert len(calls) == expect, suite


def test_conductor_suite_composes_each_case_once(monkeypatch):
    """The `ramification_jumps` row and `swan_artin_gamma` read one
    filtration per case: one default run composes the Herbrand stages 3 times
    for its 3 cases (6 when each computed its own)."""
    real = conductors.herbrand_compose
    calls = []

    def counting(stages):
        calls.append(stages)
        return real(stages)

    monkeypatch.setattr(conductors, "herbrand_compose", counting)
    conductors.ramification_jumps.cache_clear()
    assert all(row.passed for row in suites.conductor_suite())
    assert len(calls) == 3


@pytest.mark.parametrize("shift", ["one", "gen"])
def test_a_faulty_heisenberg_group_gives_failing_rows(monkeypatch, shift):
    """beta plus 1 (closed on Q', no splitting character) or plus the field
    generator (a product of Q' leaves Q') at the second b: every row of the
    case fails, and the suite still reports."""
    beta = conductors.QGroup.beta

    def broken(self, b1, b2):
        out = beta(self, b1, b2)
        if b1 == self.b_set[1] and b2 != self.F.zero:
            out = self.F.add(out, self.F.one if shift == "one" else self.F.gen)
        return out

    monkeypatch.setattr(conductors.QGroup, "beta", broken)
    conductors.q_group.cache_clear()
    conductors.qprime_char_table.cache_clear()
    try:
        rows = suites.heisenberg_suite(cases=((3, 1),))
    finally:
        conductors.q_group.cache_clear()
        conductors.qprime_char_table.cache_clear()
    assert [row.suite for row in rows] == ["heis_group_axioms", "heis_char_table", "heis_tensor_rules"]
    assert not any(row.passed for row in rows)
    expected = "no splitting character" if shift == "one" else "a product of Q' leaves Q'"
    assert rows[1].rhs == rows[2].rhs == expected


def test_every_row_goes_through_row(monkeypatch):
    assert set(SMALL) == set(suites.SUITES)
    make_row = suites._row
    made = []

    def counting_row(*args, **kwargs):
        made.append(args[0])
        return make_row(*args, **kwargs)

    monkeypatch.setattr(suites, "_row", counting_row)
    for name, kwargs in SMALL.items():
        made.clear()
        rows = suites.SUITES[name](**kwargs)
        assert rows, name
        assert made == [r.suite for r in rows], name


def test_run_all_passes_tol_and_seed_by_name(monkeypatch):
    seen = {}
    for name in suites.SUITES:

        def record(name=name, **kwargs):
            seen[name] = kwargs
            return []

        monkeypatch.setitem(suites.SUITES, name, record)
    assert suites.run_all(seed=5, tol=1e-3) == []
    extra = {
        "exp_sums": {"tol": 1e-3},
        "char_oracle": {"tol": 1e-3, "seed": 5},
        "charpoly": {"seed": 5},
    }
    assert set(seen) == set(suites.SUITES)
    for name, kwargs in seen.items():
        assert kwargs == extra.get(name, {}), name


def test_run_all_forks_the_same_rows():
    names = ["formal_degree", "disc"]
    forked = suites.run_all(names=names, jobs=2)
    assert [r.as_dict() for r in forked] == [r.as_dict() for r in suites.run_all(names=names)]


def test_run_all_opens_no_more_workers_than_suites(monkeypatch):
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    names = ["formal_degree", "disc"]
    rows = suites.run_all(names=names, jobs=64)
    assert sizes == [2]
    assert [r.as_dict() for r in rows] == [r.as_dict() for r in suites.run_all(names=names)]
    # one suite runs in this process
    assert suites.run_all(names=["formal_degree"], jobs=64)
    assert sizes == [2]


def test_rows_carry_the_wall_time_since_the_previous_row(monkeypatch):
    ticks = iter([10.0, 10.25, 11.0, 11.0])
    monkeypatch.setattr(suites, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))

    @suites._suite
    def body(n):
        for i in range(n):
            yield suites._bit_row("tick", f"i={i}", "a", "b", True)

    rows = body(n=3)
    assert [r.elapsed for r in rows] == [0.25, 0.75, 0.0]
    assert all(r.as_dict()["elapsed"] == 0.0 for r in rows)
    assert [r.as_dict(timings=True)["elapsed"] for r in rows] == [0.25, 0.75, 0.0]


# sha256 of the character oracle rows over the family elements at
# n in (2, 3), q in (3, 5, 7): every row's values and float residual.
CHAR_GRID_PIN = "95f6e00c0b8df7463005a6fb074dd1e2f671d2c0581694031e2576a41fc2e6bc"


def test_family_character_grid_is_pinned():
    rows = suites.char_oracle_suite(ns=(2, 3), qs=(3, 5, 7), n_random=0)
    digest = hashlib.sha256(json.dumps([r.as_dict() for r in rows]).encode()).hexdigest()
    assert digest == CHAR_GRID_PIN


def test_disc_suite_reads_every_disc_table_key(monkeypatch):
    """The discriminant rows run the eigenvalue route on every tabulated
    (kind, variant), the ones the families have no suite for included."""
    seen = set()
    weyl_disc_val = suites.weyl_disc_val

    def spy(gid, p, u, variant):
        seen.add((gid.kind, variant))
        return weyl_disc_val(gid, p, u, variant)

    monkeypatch.setattr(suites, "weyl_disc_val", spy)
    rows = suites.disc_suite(cases=((2, 5),))
    assert [r.passed for r in rows] == [True]
    assert seen == set(DISC_TABLE)


def _reference_params_grid(group: GroupId, q: int):
    """The character parameter grid written out kind by kind."""
    k = suites.field_for(q)
    units = range(1, k.p)
    if group.kind is GroupKind.TWISTED_GL:
        return [SSCParams(group, a, zeta=z) for a in units for z in (1, -1)]
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


@pytest.mark.parametrize("kind", list(FAMILY_VARIANTS))
def test_params_grid_is_the_kind_by_kind_grid(kind):
    """Same tuples in the same order, the types of xi, kappa and zeta
    included (repr tells 1 from 1.0), built once per (group, q): an equal
    group built anew gets the same tuple object back."""
    for n in (2, 3):
        for q in (3, 5, 7, 11, 13):
            for nu in (0, 1) if kind is GroupKind.SO_RAM else (0,):
                group = GroupId(kind, n, nu)
                grid = suites._params_grid(group, q)
                reference = tuple(_reference_params_grid(group, q))
                assert grid == reference
                assert repr(grid) == repr(reference), (kind.value, n, q)
                assert suites._params_grid(GroupId(kind, n, nu), q) is grid
