"""Command-line front end: parameter parsing, verification-suite
orchestration, and JSON/CSV reporting.

Exit codes: 0 when every selected check passes, 1 on a check failure, 2 on
usage errors, 3 when a cap or precision guard trips.  Each subcommand takes
only the report flags its handler reads; they fall back to
``ENDOLAB_``-prefixed environment variables.  Reports are deterministic for a
fixed seed; per-row timings are zeroed unless ``--timings`` is given.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .errors import (
    CapExceeded,
    EndolabError,
    PrecisionExhausted,
    UnsupportedDegree,
)
from . import suites
from .characters import SSCParams, char_brute_force, char_closed_form, describe, family_element
from .conductors import ramification_stages, swan_artin_gamma
from .endoscopy import Pair, pair_variants, transfer_factor
from .families import FAMILY_VARIANTS, get_tower
from .groups import GroupKind, simple_affine_components
from .padic import extract_jumps, herbrand_compose, tame_hilbert
from .residue import make_field, p_digits
from .sums import catalog, kl_simple, kloosterman_eval

CAPS = {"q": 13, "heis": 243, "n": 4}

# the benchmark's query loop (perfbench/child.py) builds elements by this name
_char_element = family_element

# the --group choices: the kinds that have families
GROUP_CHOICES = sorted(kind.value for kind in FAMILY_VARIANTS)


def _env_default(name, cast, fallback):
    raw = os.environ.get(f"ENDOLAB_{name.upper()}")
    if raw is None:
        return fallback
    return cast(raw)


def _add_flags(sub, *names):
    """Declare the report flags in ``names``, the ones the handler reads."""
    flags = {
        "tol": dict(type=float, default=_env_default("tol", float, 1e-6)),
        "seed": dict(type=int, default=_env_default("seed", int, 0)),
        "out": dict(default=_env_default("out", str, None)),
        "format": dict(choices=("json", "csv"), default=_env_default("format", str, "json")),
        "jobs": dict(type=int, default=_env_default("jobs", int, 1)),
        "timings": dict(action="store_true"),
    }
    for name in names:
        sub.add_argument(f"--{name}", **flags[name])


def build_parser():
    ap = argparse.ArgumentParser(prog="endolab")
    sp = ap.add_subparsers(dest="command", required=True)

    s = sp.add_parser("sums", help="exponential sums")
    ss = s.add_subparsers(dest="sub", required=True)
    ev = ss.add_parser("eval")
    ev.add_argument("--q", type=int, required=True)
    ev.add_argument("--n", type=int, default=2)
    ev.add_argument("--u", type=int, required=True)
    ev.add_argument("--spec", default="plain")
    _add_flags(ev, "out")
    ve = ss.add_parser("verify")
    ve.add_argument("--q", type=int, default=None)
    _add_flags(ve, "tol", "timings", "format", "out")

    t = sp.add_parser("tower", help="p-adic tower arithmetic")
    ts = t.add_subparsers(dest="sub", required=True)
    tv = ts.add_parser("val")
    tv.add_argument("--p", type=int, required=True)
    tv.add_argument("--e", type=int, default=1)
    tv.add_argument("--u0", type=int, default=1)
    tv.add_argument("--precision", type=int, default=_env_default("precision", int, 6))
    tv.add_argument("--coeffs", required=True, help="comma list, constant first")
    _add_flags(tv, "out")
    th = ts.add_parser("hilbert")
    th.add_argument("--p", type=int, required=True)
    th.add_argument("--e", type=int, default=2)
    th.add_argument("--u0", type=int, default=1)
    th.add_argument("--precision", type=int, default=_env_default("precision", int, 6))
    th.add_argument("--x", required=True, help="comma list of coefficients")
    th.add_argument("--y", required=True)
    th.add_argument("--sub", type=int, default=1)
    _add_flags(th, "out")
    tg = ts.add_parser("herbrand")
    tg.add_argument("--p", type=int, required=True)
    tg.add_argument("--e", type=int, default=1)
    tg.add_argument("--nprime", type=int, required=True)
    _add_flags(tg, "out")

    g = sp.add_parser("group", help="classical group elements")
    gs = g.add_subparsers(dest="sub", required=True)
    for name in ("element", "components"):
        ge = gs.add_parser(name)
        ge.add_argument("--group", choices=GROUP_CHOICES, required=True)
        ge.add_argument("--n", type=int, required=True)
        ge.add_argument("--p", type=int, required=True)
        ge.add_argument("--u", type=int, required=True)
        ge.add_argument("--variant", default="plus")
        _add_flags(ge, "out")

    c = sp.add_parser("char", help="supercuspidal character values")
    cs = c.add_subparsers(dest="sub", required=True)
    ce = cs.add_parser("eval")
    ce.add_argument("--group", choices=GROUP_CHOICES, required=True)
    ce.add_argument("--n", type=int, required=True)
    ce.add_argument("--q", type=int, required=True)
    ce.add_argument("--xi", type=int, default=1)
    ce.add_argument("--kappa", type=int, default=0)
    ce.add_argument("--a", type=int, required=True)
    ce.add_argument("--zeta", type=float, default=None)
    ce.add_argument("--u", type=int, required=True)
    ce.add_argument("--variant", default="plus")
    _add_flags(ce, "tol", "out")
    cv = cs.add_parser("verify")
    cv.add_argument("--group", choices=GROUP_CHOICES, default=None)
    cv.add_argument("--n", type=int, default=None)
    cv.add_argument("--q", type=int, default=None)
    _add_flags(cv, "tol", "seed", "timings", "format", "out")

    tr = sp.add_parser("transfer", help="transfer factors")
    trs = tr.add_subparsers(dest="sub", required=True)
    te = trs.add_parser("eval")
    te.add_argument("--pair", choices=[p.value for p in Pair], required=True)
    te.add_argument("--p", type=int, required=True)
    te.add_argument("--n", type=int, required=True)
    te.add_argument("--u", type=int, required=True)
    te.add_argument("--variant", default="plus")
    _add_flags(te, "out")

    e = sp.add_parser("ecr", help="endoscopic character identities")
    es = e.add_subparsers(dest="sub", required=True)
    ev2 = es.add_parser("verify")
    ev2.add_argument("--case", choices=("ram", "gl", "soeven"), required=True)
    ev2.add_argument("--n", type=int, required=True)
    ev2.add_argument("--q", type=int, required=True)
    _add_flags(ev2, "timings", "format", "out")

    co = sp.add_parser("conductor", help="Swan/Artin arithmetic")
    cos = co.add_subparsers(dest="sub", required=True)
    cc = cos.add_parser("compute")
    cc.add_argument("--p", type=int, required=True)
    cc.add_argument("--e", type=int, required=True)
    cc.add_argument("--nprime", type=int, required=True)
    _add_flags(cc, "out")

    su = sp.add_parser("suite", help="acceptance suites")
    sus = su.add_subparsers(dest="sub", required=True)
    sa = sus.add_parser("all")
    sa.add_argument("--only", default=None, help="comma list of suite names")
    _add_flags(sa, "tol", "seed", "timings", "jobs", "format", "out")
    return ap


# reporting -------------------------------------------------------------------


CSV_HEADER = ["suite", "parameters", "lhs", "rhs", "delta", "pass", "elapsed"]


def report_emit(rows, fmt="json", out=None):
    if not rows:
        raise EndolabError("refusing to emit an empty report")
    dicts = [r.as_dict() for r in rows]
    if fmt == "json":
        text = json.dumps(dicts, indent=2) + "\n"
    else:
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=CSV_HEADER)
        w.writeheader()
        for d in dicts:
            w.writerow(d)
        text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def _emit_obj(obj, args):
    text = json.dumps(obj, indent=2, default=str) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _elem_json(x):
    if x.is_zero():
        return {"val": None, "digits": []}
    n = min(6, x.rprec)  # at most six p-adic digits per entry
    return {"val": x.shift, "digits": p_digits(x.unit[0], x.tower.p, n)}


def matrix_json(g):
    return [[_elem_json(x) for x in row] for row in g.entries]


# command handlers --------------------------------------------------------------


def _parse_coeffs(raw):
    return [int(x) for x in raw.split(",")]


def cmd_sums(args):
    if args.sub == "eval":
        if args.q > CAPS["q"] ** 2:
            raise CapExceeded(f"q={args.q} beyond cap")
        k = suites._field_for(args.q)
        named = {s.name: s for s in catalog(k, ns=(args.n,))}
        spec = kl_simple(k, args.n) if args.spec == "plain" else named[args.spec]
        val = kloosterman_eval(spec, k.coerce(args.u))
        _emit_obj(
            {"spec": spec.name, "q": args.q, "u": args.u, "value": [val.real, val.imag]},
            args,
        )
        return 0
    qs = (args.q,) if args.q else (3, 5, 7, 9, 11, 13)
    rows = suites.exp_sums_suite(qs=qs, tol=args.tol, timings=args.timings)
    report_emit(rows, args.format, args.out)
    return 0 if all(r.passed for r in rows) else 1


def cmd_tower(args):
    if args.sub == "herbrand":
        comp = herbrand_compose(ramification_stages(args.p, args.e, args.nprime))
        _emit_obj(
            {
                "breaks": [str(b) for b in comp.breaks],
                "slopes": [str(s) for s in comp.slopes],
                "jumps": [(str(b), str(r)) for b, r in extract_jumps(comp)],
            },
            args,
        )
        return 0
    tower = get_tower(args.p, args.e, args.u0, args.precision)
    if args.sub == "val":
        x = tower.from_coeffs(_parse_coeffs(args.coeffs))
        _emit_obj(
            {
                "valuation": str(x.valuation()),
                "leading_unit": x.leading_unit().a,
            },
            args,
        )
        return 0
    x = tower.from_coeffs(_parse_coeffs(args.x))
    y = tower.from_coeffs(_parse_coeffs(args.y))
    _emit_obj({"symbol": tame_hilbert(x, y, sub=args.sub)}, args)
    return 0


def _unknown_variant(args, variants, owner):
    """Print a usage error when ``--variant`` is not one of ``variants``."""
    if args.variant in variants:
        return False
    print(
        f"usage error: --variant for {owner} is one of {', '.join(variants)}",
        file=sys.stderr,
    )
    return True


def cmd_group(args):
    kind = GroupKind(args.group)
    if _unknown_variant(args, FAMILY_VARIANTS[kind], f"--group {args.group}"):
        return 2
    g = family_element(kind, args.n, args.p, args.u, args.variant).matrix
    if args.sub == "element":
        _emit_obj({"group": args.group, "n": args.n, "matrix": matrix_json(g)}, args)
        return 0
    comps = simple_affine_components(g)
    _emit_obj(
        {
            "group": args.group,
            "n": args.n,
            "u": args.u,
            "components": [c.key() if c.field.f == 2 else c.a for c in comps],
        },
        args,
    )
    return 0


def cmd_char(args):
    if args.sub == "eval":
        kind = GroupKind(args.group)
        if _unknown_variant(args, FAMILY_VARIANTS[kind], f"--group {args.group}"):
            return 2
        el = family_element(kind, args.n, args.q, args.u, args.variant)
        if args.zeta is not None:
            zeta = args.zeta
        elif kind is GroupKind.TWISTED_GL:
            zeta = suites._gl_zeta(make_field(args.q))
        else:
            zeta = 1.0
        params = SSCParams(el.group, args.a, args.xi, args.kappa, zeta)
        desc = describe(el)
        bf = char_brute_force(params, el).value
        cf = char_closed_form(params, desc).value
        _emit_obj(
            {
                "lhs": [bf.real, bf.imag],
                "rhs": [cf.real, cf.imag],
                "delta": abs(bf - cf),
                "pass": abs(bf - cf) <= args.tol,
            },
            args,
        )
        return 0 if abs(bf - cf) <= args.tol else 1
    ns = (args.n,) if args.n else (2, 3)
    qs = (args.q,) if args.q else (3, 5, 7)
    rows = suites.char_oracle_suite(ns=ns, qs=qs, seed=args.seed, tol=args.tol, timings=args.timings)
    if args.group:
        rows = [r for r in rows if f"group={args.group}" in r.parameters.split()]
    report_emit(rows, args.format, args.out)
    return 0 if all(r.passed for r in rows) else 1


def cmd_transfer(args):
    pair = Pair(args.pair)
    if _unknown_variant(args, pair_variants(pair), f"--pair {args.pair}"):
        return 2
    tv = transfer_factor(pair, args.p, args.n, args.u, args.variant)
    k = make_field(args.p)
    val = tv.evaluate(k)
    _emit_obj(
        {
            "pair": args.pair,
            "variant": args.variant,
            "sign": tv.sign,
            "unit": tv.unit,
            "halfq": tv.halfq,
            "gauss": tv.gauss,
            "value": [val.real, val.imag],
        },
        args,
    )
    return 0


def cmd_ecr(args):
    case = {"ram": "ecr_ram", "gl": "ecr_gl", "soeven": "ecr_soeven"}[args.case]
    fn = suites.SUITES[case]
    rows = fn(ns=(args.n,), qs=(args.q,), timings=args.timings)
    report_emit(rows, args.format, args.out)
    return 0 if all(r.passed for r in rows) else 1


def cmd_conductor(args):
    if args.p ** (2 * args.e + 1) > CAPS["heis"]:
        raise CapExceeded("Heisenberg order beyond cap")
    r = swan_artin_gamma(args.p, args.e, args.nprime)
    _emit_obj(
        {
            "swan": str(r["swan"]),
            "artin": str(r["artin"]),
            "log_q_gamma": str(r["log_q_gamma"]),
            "fdc_pass": r["fdc_pass"],
        },
        args,
    )
    return 0 if r["fdc_pass"] else 1


def cmd_suite(args):
    names = args.only.split(",") if args.only else None
    rows = suites.run_all(names=names, seed=args.seed, tol=args.tol, timings=args.timings, jobs=args.jobs)
    report_emit(rows, args.format, args.out)
    by_suite: dict = {}
    for r in rows:
        ok, tot = by_suite.get(r.suite, (0, 0))
        by_suite[r.suite] = (ok + (1 if r.passed else 0), tot + 1)
    for name, (ok, tot) in sorted(by_suite.items()):
        print(f"[{'PASS' if ok == tot else 'FAIL'}] {name}: {ok}/{tot}", file=sys.stderr)
    return 0 if all(r.passed for r in rows) else 1


HANDLERS = {
    "sums": cmd_sums,
    "tower": cmd_tower,
    "group": cmd_group,
    "char": cmd_char,
    "transfer": cmd_transfer,
    "ecr": cmd_ecr,
    "conductor": cmd_conductor,
    "suite": cmd_suite,
}


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        if getattr(args, "n", None) is not None and args.n > CAPS["n"]:
            raise CapExceeded(f"n={args.n} beyond the rank cap {CAPS['n']}")
        return HANDLERS[args.command](args)
    except (CapExceeded, PrecisionExhausted, UnsupportedDegree) as exc:
        print(f"cap/precision error: {exc}", file=sys.stderr)
        return 3
    except EndolabError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
