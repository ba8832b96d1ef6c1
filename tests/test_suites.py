"""Report-row plumbing of the suites: identity rows that fail, one `_row`
call per row, and the keyword arguments `run_all` hands each suite."""

import hashlib
import json
from types import SimpleNamespace

from endolab import suites
from endolab.errors import IdentityFailed

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
        return SimpleNamespace(genericity_sign=1)

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
    calls = _fake_descent(monkeypatch, (-1, 4), lambda: SimpleNamespace(genericity_sign=-1))
    [row] = suites.ecr_ram_suite(ns=(2,), qs=(q,))
    assert not row.passed and row.delta == 1.0
    assert row.rhs == "weighted orthogonal side"
    assert len(calls) == 2 * (q - 1)


def test_identity_row_passes():
    [row] = suites.ecr_ram_suite(ns=(2,), qs=(3,))
    assert row.passed and row.delta == 0.0
    assert row.rhs == "weighted orthogonal side"


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
    assert suites.run_all(seed=5, tol=1e-3, timings=True) == []
    extra = {
        "exp_sums": {"tol": 1e-3},
        "char_oracle": {"tol": 1e-3, "seed": 5},
        "charpoly": {"seed": 5},
    }
    assert set(seen) == set(suites.SUITES)
    for name, kwargs in seen.items():
        assert kwargs == {"timings": True, **extra.get(name, {})}, name


# sha256 of the character oracle rows over the family elements at
# n in (2, 3), q in (3, 5, 7): every row's values and float residual.
CHAR_GRID_PIN = "a52f69ee7d05f3d210ca07d41085c58ba90e58df09b93a165f70d511a5fa09b0"


def test_family_character_grid_is_pinned():
    rows = suites.char_oracle_suite(ns=(2, 3), qs=(3, 5, 7), n_random=0)
    digest = hashlib.sha256(json.dumps([r.as_dict() for r in rows]).encode()).hexdigest()
    assert digest == CHAR_GRID_PIN
