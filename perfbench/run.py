"""endolab benchmark: four seeded workloads, each measured run in a fresh
interpreter, one at a time.

    python3 perfbench/run.py --workload oracle_grid --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest [--workload NAME]

With `--trace 0` the end-to-end metrics of BENCHMARK.json are measured with
tracing off; with `--trace 1` one untraced, one span and one counting run give
the per-layer metrics.  The last line of standard output is the result object;
the line before it holds the machine record, sample counts, report hashes and
residuals.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORKLOADS = ("oracle_grid", "tower_chains", "exact_tables", "point_queries")
PROBES = 3  # set-up-only interpreters before each measured one
MIN_SETUPS = 20  # set-up samples per run; probes at the end make up the rest
CHILD_TIMEOUT_S = 170

# Boundaries each workload must reach in a traced run; a zero here means a
# span or counter lost its function (renamed or moved in src/).
EXPECTED = {
    "oracle_grid": (
        "suites.char_oracle.wall_s",
        "characters.brute_force.calls",
        "characters.torus_reps",
        "characters.closed_form.self_s",
        "characters.describe.self_s",
        "sums.kloosterman_table.calls",
        "sums.kloosterman_table.built",
        "sums.kloosterman_eval.calls",
        "families.family_matrix.calls",
        "groups.components.calls",
        "groups.iwahori_level.self_s",
        "linalg.mat_inv.calls",
        "residue.ffelem.count",
        "residue.quadext.count",
        "residue.make_field.calls",
        "padic.localelem_mul.count",
        "linalg.mat_mul.count",
    ),
    "tower_chains": (
        "suites.exp_sums.wall_s",
        "suites.ecr_ram.wall_s",
        "suites.ecr_gl.wall_s",
        "suites.ecr_soeven.wall_s",
        "suites.transfer.wall_s",
        "suites.disc.wall_s",
        "suites.charpoly.wall_s",
        "suites.formal_degree.wall_s",
        "characters.closed_form.self_s",
        "sums.kloosterman_table.calls",
        "sums.kloosterman_eval.calls",
        "groups.sample_accept_ratio",
        "groups.charpoly_checks.self_s",
        "padic.tame_hilbert.self_s",
        "linalg.mat_inv.calls",
        "linalg.charpoly.calls",
        "families.family_matrix.calls",
        "families.walds_family.self_s",
        "families.weyl_disc_val.self_s",
        "endoscopy.delta_iv.calls",
        "endoscopy.transfer_factor.self_s",
        "endoscopy.ecr_verify.self_s",
        "endoscopy.norm_family_check.self_s",
        "padic.localelem_mul.count",
        "padic.localelem_inv.count",
        "linalg.mat_mul.count",
    ),
    "exact_tables": (
        "suites.heisenberg.wall_s",
        "suites.conductor.wall_s",
        "conductors.q_group_check.self_s",
        "conductors.char_table_checks.self_s",
        "conductors.tensor_decompositions.self_s",
        "conductors.ramification_jumps.self_s",
        "conductors.swan_artin.self_s",
        "conductors.qprime_table.builds",
        "conductors.cyclo_mul.count",
        "padic.herbrand_compose.self_s",
    ),
    "point_queries": (
        "characters.brute_force.calls",
        "characters.torus_reps",
        "characters.closed_form.self_s",
        "characters.describe.self_s",
        "characters.random_element.self_s",
        "characters.random_element.accept_ratio",
        "sums.kloosterman_table.built",
        "sums.kloosterman_eval.calls",
        "families.family_matrix.calls",
        "families.walds_family.self_s",
        "groups.components.calls",
        "endoscopy.delta_iv.calls",
        "residue.ffelem.count",
        "residue.make_field.calls",
        "queries.char.count",
        "queries.transfer.count",
        "queries.char.p50_ms",
        "queries.transfer.p50_ms",
    ),
}


class BenchError(Exception):
    pass


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, *modes: str):
    """Run child interpreters, one per mode, at the same time; returns a list
    of (result, set-up seconds) in mode order."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    started = []
    try:
        for mode in modes:
            cmd = [sys.executable, str(CHILD), workload, "--seed", str(seed), "--mode", mode]
            t_spawn = _now()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
            )
            started.append((mode, proc, t_spawn))
        return [_collect(workload, *child) for child in started]
    finally:
        for _, proc, _ in started:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def _collect(workload, mode, proc, t_spawn):
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}/{mode} exceeded {CHILD_TIMEOUT_S}s") from exc
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}/{mode} exited {proc.returncode}: {err[-2000:]}")
    sys.stderr.write(err)
    result = json.loads(lines[-1])
    return result, result["ready"] - t_spawn


def _percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure(workload: str, seed: int, seconds: int):
    """Untraced runs: fresh children on identical inputs, each after a few
    set-up probes, until the next probes and child would end after
    `seconds`; then probes until there are MIN_SETUPS set-up samples.

    Times are scaled by the machine's speed (speed.py).  Each verdict's
    service time is its median over the children; `verify_s` is their sum.
    A verdict's latency runs from its request to its arrival.
    A suite run requests every verdict at its start, so there the latencies
    are the running sums of the service times; the query stream requests
    each query when the previous one returns."""
    setups = []
    runs = []

    def timed(mode):
        ((result, setup),) = spawn(workload, seed, mode)
        setups.append(setup * result["setup_speed"])
        return result

    t0 = _now()
    while True:
        t_cycle = _now()
        for _ in range(PROBES):
            timed("probe")
        runs.append(timed("time"))
        now = _now()
        if (now - t0) + (now - t_cycle) > seconds:  # the next cycle would overrun
            break
    while len(setups) < MIN_SETUPS:
        timed("probe")
    if len({len(r["service"]) for r in runs}) != 1:
        raise BenchError(f"{workload}: children gave different numbers of verdicts")
    service = [statistics.median(lat) for lat in zip(*(r["service"] for r in runs))]
    latencies = list(itertools.accumulate(service)) if runs[0]["batch"] else service
    metrics = {
        "verify_s": sum(service),
        "query_p50_ms": _percentile(latencies, 50) * 1e3,
        "query_p99_ms": _percentile(latencies, 99) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    per_verdict = f"{len(service)} verdicts, each a median of {len(runs)} runs"
    samples = {
        "verify_s": per_verdict,
        "query_p50_ms": per_verdict,
        "query_p99_ms": per_verdict,
        "setup_s": len(setups),
        "peak_rss_mb": len(runs),
    }
    return metrics, samples, runs


def trace(workload: str, seed: int):
    """The per-layer metrics.  The untraced and the span run go side by
    side, one per core, so the overhead compares runs under one machine
    state; the counting run follows alone."""
    (base, _), (spans, _) = spawn(workload, seed, "time", "span")
    ((counts, _),) = spawn(workload, seed, "count")
    layers = dict(spans["layers"], **counts["layers"])
    for cls in ("char", "transfer"):
        lat = base.get("class_latencies", {}).get(cls, [])
        layers[f"queries.{cls}.count"] = len(lat)
        layers[f"queries.{cls}.p50_ms"] = statistics.median(lat) * 1e3 if lat else 0.0
    if workload == "point_queries":
        key = lambda r: statistics.median(r["service_raw"])  # noqa: E731
    else:
        key = lambda r: r["verify_s"]  # noqa: E731
    layers["trace.overhead_frac"] = key(spans) / key(base) - 1
    missing = [name for name in EXPECTED[workload] if not layers.get(name)]
    if missing:
        raise BenchError(f"{workload}: boundaries recorded nothing: {', '.join(missing)}")
    return layers, [base, spans, counts]


def machine_record():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "loadavg_start": os.getloadavg(),
    }


def _git_commit():
    """HEAD of the checkout's own .git, if it has one (no parent lookup)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def run(args):
    machine = machine_record()
    end_to_end, per_layer = _declared_metrics()
    if args.trace:
        values, runs = trace(args.workload, args.seed)
        declared, samples = per_layer, {"runs": "1 untraced, 1 span, 1 counting"}
    else:
        values, samples, runs = measure(args.workload, args.seed, args.seconds)
        declared = end_to_end
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine,
        "samples": samples,
        "raw_verify_s_runs": [r["verify_s"] for r in runs],
        "speed_runs": [r.get("speed") for r in runs],
        "report_sha256": sorted({r["report_sha256"] for r in runs}),
        "max_residual": max(r["max_residual"] for r in runs),
        "fail_frac": failed / attempted,
    }
    print(json.dumps({"info": info}))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def selftest(workloads):
    """Every listed boundary records on its workload, and two counting runs
    with one seed give identical counts."""
    ok = True
    for workload in workloads:
        try:
            _, (_, _, first) = trace(workload, 0)
            ((second, _),) = spawn(workload, 0, "count")
        except BenchError as exc:
            print(f"[FAIL] {exc}")
            ok = False
            continue
        if first["layers"] != second["layers"]:
            print(f"[FAIL] {workload}: counts differ: {first['layers']} vs {second['layers']}")
            ok = False
            continue
        print(f"[PASS] {workload}: boundaries recorded, counts repeat: {first['layers']}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "endolab" / "__init__.py").is_file():
        print(f"no endolab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.selftest:
            return selftest([args.workload] if args.workload else WORKLOADS)
        if not args.workload:
            ap.error("--workload is required")
        return run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
