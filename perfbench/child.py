"""One measured run of one workload, in a fresh interpreter.

    python3 perfbench/child.py <workload> --seed N --mode {time,span,count,probe}

The parent (`run.py`) starts this with `src` on PYTHONPATH and reads the JSON
object it prints as its last line.  `ready` is CLOCK_MONOTONIC after the
imports, so the parent can compute the set-up time from its own spawn time.
Modes: `time` runs the workload untraced, sampling the machine's speed
(`speed.Sampler`); `span` installs the spans and call counters of
`tracing.SPANS`/`CALL_COUNTERS`; `count` installs only the value-type counters;
`probe` imports and exits.  `time` and `probe` also report `setup_speed`, the
machine's speed right after the imports.

Each verdict's interval (previous verdict, or the suite's start, to this one)
is reported raw in `service_raw` and in `service`, scaled by the machine's
speed during it when the speed is sampled (see speed.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import time
import traceback

import speed
import tracing
from endolab import characters, cli, endoscopy, suites, sums
from endolab.groups import GroupId, GroupKind
from endolab.residue import make_field

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

clock = time.perf_counter

# Suite workloads: (suite, keyword arguments, takes the benchmark seed).
# Arguments are those of the acceptance gate, except `n_random` (20 there):
# with 20 a run takes about 66 s, and the seed-dependent cost of each random
# element moves the time until half the rows are out by up to half from seed
# to seed.  point_queries evaluates random elements instead.
SUITE_WORKLOADS = {
    "oracle_grid": (
        ("char_oracle", dict(ns=(2, 3), qs=(3, 5, 7), n_random=0, tol=1e-6), True),
    ),
    "tower_chains": (
        ("exp_sums", dict(qs=(3, 5, 7, 9, 11, 13), tol=1e-6), False),
        ("ecr_ram", dict(ns=(2, 3), qs=(3, 5, 7, 11)), False),
        ("ecr_gl", dict(ns=(2, 3), qs=(3, 5, 7), tol=1e-9), False),
        ("ecr_soeven", dict(ns=(2,), qs=(3, 5, 7)), False),
        (
            "transfer",
            dict(ns=(2, 3), ps=(3, 5, 7, 11, 13), direct=((2, 5), (2, 13), (3, 7), (3, 13))),
            False,
        ),
        ("disc", dict(cases=((2, 5), (2, 13), (3, 7), (3, 13))), False),
        ("charpoly", dict(q=3, n=2, samples=100), True),
        ("formal_degree", dict(ns=(1, 2, 3, 4), qs=(3, 5, 7, 9)), False),
    ),
    "exact_tables": (
        ("heisenberg", dict(cases=((3, 1), (5, 1), (3, 2))), False),
        ("conductor", dict(cases=((3, 1, 2), (5, 1, 4), (3, 2, 2))), False),
    ),
}

# point_queries: a closed loop of single-value queries in one process.  The
# stream is dealt in shuffled decks of one query per cell, so every seed has
# the same class mix: 30 family-element character cells, 10 random-element
# character cells at q=3 (the random part of the character oracle) and 10
# transfer cells.  The SO_UR n=3 q=7 cell has three cards: its kappa=1
# queries, the slowest class, are then about 1.9% of the stream, so p99 lies
# inside that class rather than on the edge between it and the next one.
QUERIES_PER_RUN = 1200  # at least ten queries beyond p99
CHAR_KINDS = {
    GroupKind.SP: ("plus", "minus"),
    GroupKind.SO_RAM: ("plus", "minus"),
    GroupKind.SO_SPL: ("plus", "minus", "phi_coset"),
    GroupKind.SO_UR: ("plus", "minus", "phi_coset"),
    GroupKind.TWISTED_GL: ("plus", "minus"),
}
CHAR_CELLS = [("char", kind, n, q) for kind in CHAR_KINDS for n in (2, 3) for q in (3, 5, 7)]
RANDOM_CELLS = [("random", kind, n, 3) for kind in CHAR_KINDS for n in (2, 3)]
TRANSFER_CELLS = [("transfer", None, n, p) for p in (3, 5, 7, 11, 13) for n in (2, 3)]
DECK = CHAR_CELLS + [("char", GroupKind.SO_UR, 3, 7)] * 2 + RANDOM_CELLS + TRANSFER_CELLS
CHAR_TOL = 1e-6
TRANSFER_TOL = 1e-9


def query_stream(seed: int, count: int):
    """The seeded queries: (class, kind or pair, n, q, u, variant, draw).
    A random-element query is a character query whose `u` seeds the element
    and whose variant is "random"."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        block = list(DECK)
        rng.shuffle(block)
        for cls, kind, n, q in block:
            u = rng.randrange(1, q)
            if cls == "char":
                out.append((cls, kind, n, q, u, rng.choice(CHAR_KINDS[kind]), rng.random()))
            elif cls == "random":
                out.append(("char", kind, n, q, rng.randrange(2**32), "random", rng.random()))
            else:
                pair = rng.choice(suites.ALL_PAIRS)
                out.append((cls, pair, n, q, u, rng.choice(suites._variants(pair)), None))
    return out[:count]


def run_query(query):
    """Answer one query through both routes; returns (passed, residual)."""
    cls, kind, n, q, u, variant, draw = query
    if cls == "transfer":
        got = endoscopy.delta_iv_walds(kind, q, n, u, variant)
        expect = endoscopy.DELTA_IV_EXPECTED[(kind, variant)].evaluate(make_field(q))
        d = abs(got - expect)
        return d < TRANSFER_TOL, d
    if variant == "random":
        # drawn as char_oracle_suite draws its random elements
        rng = random.Random(u)
        gid = GroupId(kind, n, rng.choice((0, 1)) if kind is GroupKind.SO_RAM else 0)
        el = characters.random_affine_generic(gid, q, rng)
    else:
        el = cli._char_element(kind, n, q, u, variant)
    grid = suites._params_grid(el.group, q)
    params = grid[int(draw * len(grid))]
    desc = characters.describe(el)
    bf = characters.char_brute_force(params, el).value
    cf = characters.char_closed_form(params, desc).value
    d = abs(bf - cf)
    return d <= CHAR_TOL, d


def _query_label(query):
    cls, kind, n, q, u, variant, _ = query
    return f"{cls} {kind.value} n={n} q={q} u={u} {variant}"


class Intervals:
    """Verdict intervals (start, end, time spent in speed samples inside)."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.spans = []
        self._open = None

    def start(self):
        self._open = (clock(), self._spent())

    def stop(self):
        t0, spent0 = self._open
        t1 = clock()
        self.spans.append((t0, t1, self._spent() - spent0))
        self._open = (t1, self._spent())

    def _spent(self):
        return self.sampler.spent if self.sampler else 0.0

    def service(self):
        """(raw, scaled) service times: the kernel's time is taken out of
        both; `scaled` multiplies by the speed during the interval."""
        raw = [t1 - t0 - k for t0, t1, k in self.spans]
        if not self.sampler:
            return raw, raw
        scale = self.sampler.speed
        return raw, [r * scale(t0, t1) for r, (t0, t1, _) in zip(raw, self.spans)]


def run_point_queries(seed: int, marks: Intervals):
    queries = query_stream(seed, QUERIES_PER_RUN)
    records = []
    failed = 0
    for query in queries:
        marks.start()
        try:
            passed, residual = run_query(query)
        except Exception:  # a query that raises is a failed verdict
            traceback.print_exc(file=sys.stderr)
            passed, residual = False, float("nan")
        marks.stop()
        failed += not passed
        records.append({"query": _query_label(query), "delta": residual, "pass": passed})
    raw, service = marks.service()
    latencies = {"char": [], "transfer": []}
    for query, dt in zip(queries, service):
        latencies[query[0]].append(dt)
    report = json.dumps(records, indent=2) + "\n"
    return {
        "verify_s": sum(raw),
        "service": service,
        "service_raw": raw,
        "batch": False,
        "class_latencies": latencies,
        "attempted": len(queries),
        "failed": failed,
        "report_sha256": hashlib.sha256(report.encode()).hexdigest(),
        "max_residual": max(r["delta"] for r in records),
    }


def run_suites(workload: str, seed: int, marks: Intervals):
    """Run the workload's suites; each verdict row is time-stamped, and its
    interval runs from the previous row, or the suite's start, to it."""
    make_row = suites._row

    def stamped_row(*args, **kwargs):
        row = make_row(*args, **kwargs)
        marks.stop()
        return row

    suites._row = stamped_row
    rows = []
    errors = 0
    for name, kwargs, seeded in SUITE_WORKLOADS[workload]:
        kwargs = dict(kwargs, seed=seed) if seeded else kwargs
        marks.start()
        try:
            rows.extend(suites.SUITES[name](**kwargs))
        except Exception:  # a suite that raises counts as one failed verdict
            traceback.print_exc(file=sys.stderr)
            errors += 1
    suites._row = make_row
    raw, service = marks.service()
    report = json.dumps([r.as_dict() for r in rows], indent=2) + "\n"
    return {
        "verify_s": sum(raw),
        "service": service,
        "service_raw": raw,
        "batch": True,
        "attempted": len(rows) + errors,
        "failed": sum(not r.passed for r in rows) + errors,
        "report_sha256": hashlib.sha256(report.encode()).hexdigest(),
        "max_residual": max((r.delta for r in rows), default=0.0),
    }


def layer_metrics(tracer: tracing.Tracer, tables_built: int) -> dict:
    """Per-layer metrics of a span run (the names of BENCHMARK.json)."""
    out = {}
    for name in suites.SUITES:
        out[f"suites.{name}.wall_s"] = tracer.stats[f"suites.{name}"][1]
    for name, _, _ in tracing.SPANS:
        out[f"{name}.self_s"] = tracer.stats[name][2]
        out[f"{name}.calls"] = tracer.stats[name][0]
    out["sums.kloosterman_eval.calls"] = tracer.calls("sums.kloosterman_eval")
    out["sums.kloosterman_table.built"] = tables_built
    out["characters.torus_reps"] = tracer.sizes.get("characters.torus_reps", 0)
    out["conductors.qprime_table.builds"] = tracer.calls("conductors.qprime_table")
    # candidates whose Iwahori level random_affine_generic tested
    tested = tracer.calls_from("characters.random_element", "groups.iwahori_level")
    out["characters.random_element.accept_ratio"] = (
        out["characters.random_element.calls"] / tested if tested else 0.0
    )
    # samples the charpoly suite drew, and those it kept and checked
    drawn = tracer.calls_from("suites.charpoly", "groups.is_affine_generic") + tracer.calls_from(
        "suites.charpoly", "groups.in_px_plus"
    )
    kept = tracer.calls_from("suites.charpoly", "groups.charpoly_checks")
    out["groups.sample_accept_ratio"] = kept / drawn if drawn else 0.0
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(SUITE_WORKLOADS) + ["point_queries"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("time", "span", "count", "probe"), default="time")
    args = ap.parse_args(argv)
    out = {"ready": READY}
    if args.mode in ("probe", "time"):
        out["setup_speed"] = speed.setup_speed()
    if args.mode == "probe":
        print(json.dumps(out))
        return 0
    tracer = counts = sampler = None
    if args.mode == "time":
        sampler = speed.Sampler()
    elif args.mode == "span":
        tracer = tracing.Tracer()
        tracer.install()
    elif args.mode == "count":
        counts = tracing.install_value_counters()
    tables_before = len(sums._TABLE_CACHE)
    marks = Intervals(sampler)
    if sampler:
        sampler.start()
    try:
        if args.workload == "point_queries":
            out.update(run_point_queries(args.seed, marks))
        else:
            out.update(run_suites(args.workload, args.seed, marks))
    finally:
        if sampler:
            sampler.stop()
    if sampler:
        out["speed"] = statistics.fmean(sampler.speeds)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, len(sums._TABLE_CACHE) - tables_before)
    if counts is not None:
        out["layers"] = {name: cell[0] for name, cell in counts.items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
