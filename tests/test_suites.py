"""Report-row plumbing of the suites: identity rows that fail, one `_row`
call per row, the wall time of each row, the keyword arguments `run_all`
hands each suite, and the table keys the discriminant suite reads."""

import hashlib
import json
from types import SimpleNamespace

from endolab import characters, endoscopy, suites
from endolab.errors import IdentityFailed
from endolab.families import DISC_TABLE

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
    """Replace the descent check: the pair `bad` fails through `failure`,
    every other pair passes.  Returns the list of (xi, a) called."""
    calls = []

    def verify(n, q, xi, a):
        calls.append((xi, a))
        if (xi, a) == bad:
            return failure()
        return endoscopy.packet_solution(endoscopy.Pair.SP_SORAM, n, q, xi, a)

    monkeypatch.setattr(suites, "ecr_ram_descent_verify", verify)
    return calls


def test_identity_row_fails_on_raised_identity(monkeypatch):
    q = 7
    msg = "main identity fails at u=3"

    def raise_failure():
        raise IdentityFailed(msg)

    calls = _fake_descent(monkeypatch, (1, 2), raise_failure)
    [row] = suites.ecr_ram_suite(ns=(2,), qs=(q,))
    assert not row.passed and row.delta == 1.0
    assert row.rhs == msg
    # every pair is still verified after the failing one
    assert sorted(calls) == sorted((xi, a) for xi in (1, -1) for a in range(1, q))
    assert len(calls) == 2 * (q - 1)


def test_identity_row_fails_on_false_check(monkeypatch):
    q = 5
    # a verify function that returns a false value instead of raising
    calls = _fake_descent(monkeypatch, (-1, 4), lambda: None)
    [row] = suites.ecr_ram_suite(ns=(2,), qs=(q,))
    assert not row.passed and row.delta == 1.0
    assert row.rhs == "weighted orthogonal side"
    assert len(calls) == 2 * (q - 1)


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
CHAR_GRID_PIN = "a52f69ee7d05f3d210ca07d41085c58ba90e58df09b93a165f70d511a5fa09b0"


def test_family_character_grid_is_pinned():
    rows = suites.char_oracle_suite(ns=(2, 3), qs=(3, 5, 7), n_random=0)
    digest = hashlib.sha256(json.dumps([r.as_dict() for r in rows]).encode()).hexdigest()
    assert digest == CHAR_GRID_PIN


def test_disc_suite_reads_every_disc_table_key(monkeypatch):
    """The discriminant rows run the eigenvalue route on every tabulated
    (kind, variant), the ones the families have no suite for included."""
    seen = set()
    weyl_disc_val = suites.weyl_disc_val

    def spy(gid, p, u, variant, direct):
        seen.add((gid.kind, variant))
        return weyl_disc_val(gid, p, u, variant, direct)

    monkeypatch.setattr(suites, "weyl_disc_val", spy)
    rows = suites.disc_suite(cases=((2, 5),))
    assert [r.passed for r in rows] == [True]
    assert seen == set(DISC_TABLE)
