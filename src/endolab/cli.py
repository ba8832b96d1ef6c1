"""Command-line front end: parameter parsing, verification-suite
orchestration, and JSON/CSV reporting.

Exit codes: 0 when every selected check passes, 1 on a check failure, 2 on
usage errors, 3 when a cap or precision guard trips.  A value outside an
option's domain is a usage error: ``--p`` and a prime field's ``--q`` are odd
primes, ``sums``' ``--q`` is an odd prime or its square, ``--n`` is positive,
``--xi``, ``--kappa`` and ``--zeta`` take their two values, and ``--u``,
``--a``, ``--u0`` are units mod the characteristic.  ``char eval`` takes
``--zeta`` only on the kinds with zeta (gl_theta, so_spl, so_ur), as a sign
against ``characters.zeta_unit``.  ``--nprime``, ``--jobs``, ``tower
hilbert``'s ``--sub`` and the ``--e`` of ``tower val``, ``tower hilbert``,
``tower herbrand`` and ``conductor compute`` are positive.  The library's
``InvalidParams`` is a usage error too, as each one the CLI can reach is
raised on a value built from flags: ``SSCParams`` refuses ``--xi -1`` and
``--kappa 1`` on a kind without them, a group refuses a rank below its floor
(``groups.rank_floor``: ``--n 1`` on so_spl, so_ur, their pairs and ``--case
soeven``, also where ``char verify``'s default grid reaches it), the tower
refuses ``--coeffs``, ``--x`` and ``--y`` unless they list ``--e`` integers,
and the conductor refuses a ``--nprime`` that is not an even divisor of
p - 1.  Each subcommand takes only the report flags its handler reads.  They
(but ``--timings``) and ``--precision`` fall back to ``ENDOLAB_`` environment
variables, checked by the flag's own type and choices: a value outside them
is a usage error of every command.  The suites time every row; the report
zeroes each row's ``elapsed`` unless ``--timings`` is given, so it is
deterministic for a fixed seed.
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
    InvalidParams,
    NotPrime,
    PrecisionExhausted,
    UnsupportedDegree,
)
from . import suites
from .characters import (
    ZETA_KINDS,
    SSCParams,
    char_brute_force,
    char_closed_form,
    describe,
    family_element,
)
from .conductors import ramification_stages, swan_artin_gamma
from .endoscopy import Pair, pair_variants, transfer_factor
from .families import FAMILY_VARIANTS, get_tower
from .groups import GroupKind, simple_affine_components
from .linalg import val_p
from .padic import extract_jumps, herbrand_compose, tame_hilbert
from .residue import field_size, make_field, p_digits
from .sums import TOL, catalog, kl_simple, kloosterman_eval

RANK_CAP = 4  # the largest --n any command accepts

# the benchmark's query loop (perfbench/child.py) builds elements by this name
_char_element = family_element

# the --group choices: the kinds that have families
GROUP_CHOICES = sorted(kind.value for kind in FAMILY_VARIANTS)


class UsageError(Exception):
    """A value outside its option's domain (exit code 2)."""


def _field_type(degrees, what):
    """An argparse type: a field size p^f (see `field_size`) with f in
    ``degrees``; any other value is a usage error."""

    def field(raw):
        q = int(raw)
        try:
            ok = field_size(q)[1] in degrees
        except NotPrime:
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"{q} is not {what}")
        return q

    return field


# --p, and --q of the commands over a prime field
_prime = _field_type((1,), "an odd prime")
# --q of the sums commands: F_p or F_{p^2}
_field_size = _field_type((1, 2), "an odd prime or the square of one")


def _positive(what):
    """An argparse type: a positive integer, named ``what`` in the error."""

    def positive(raw):
        n = int(raw)
        if n < 1:
            raise argparse.ArgumentTypeError(f"{n} is not a positive {what}")
        return n

    return positive


_rank = _positive("rank")  # --n
_degree = _positive("ramification degree")  # --e of tower val, hilbert, herbrand, conductor compute
_subtower = _positive("subtower index")  # --sub of tower hilbert
_tame_index = _positive("tame index")  # --nprime


def _check_units(args):
    """--u, --a and --u0 must be units mod the characteristic of --p or --q."""
    units = [name for name in ("u", "a", "u0") if hasattr(args, name)]
    if not units:
        return
    p = args.p if hasattr(args, "p") else field_size(args.q)[0]
    for name in units:
        if getattr(args, name) % p == 0:
            raise UsageError(f"--{name} {getattr(args, name)} is not a unit mod {p}")


def _check_variant(value, choices, flag):
    """``value`` must be one of ``choices``; ``flag`` names the option and what
    its choices depend on."""
    if value not in choices:
        raise UsageError(f"{flag} is one of {', '.join(choices)}")


# the report flags and the tower commands' --precision; all but the switch
# --timings fall back to ``ENDOLAB_<NAME>``
FLAGS = {
    "tol": dict(type=float, default=TOL),
    "seed": dict(type=int, default=0),
    "out": dict(default=None),
    "format": dict(choices=("json", "csv"), default="json"),
    "jobs": dict(type=_positive("job count"), default=1),
    "timings": dict(action="store_true"),
    "precision": dict(type=int, default=6),
}


def _env_default(name, spec):
    """``spec`` with its default read from ``ENDOLAB_<NAME>`` when that is set,
    through the flag's own type and choices: a value outside them is a usage
    error that names the variable."""
    var = f"ENDOLAB_{name.upper()}"
    raw = os.environ.get(var)
    if raw is None:
        return spec
    try:
        value = spec.get("type", str)(raw)
        if value not in spec.get("choices", (value,)):
            raise ValueError(f"not one of {', '.join(spec['choices'])}")
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"{var}={raw!r}: {exc}") from None
    return {**spec, "default": value}


def _add_flags(sub, *names):
    """Declare the flags in ``names``, the ones the handler reads."""
    for name in names:
        spec = FLAGS[name]
        sub.add_argument(f"--{name}", **(spec if name == "timings" else _env_default(name, spec)))


def build_parser():
    ap = argparse.ArgumentParser(prog="endolab")
    sp = ap.add_subparsers(dest="command", required=True)

    s = sp.add_parser("sums", help="exponential sums")
    ss = s.add_subparsers(dest="sub", required=True)
    ev = ss.add_parser("eval")
    ev.add_argument("--q", type=_field_size, required=True)
    ev.add_argument("--n", type=_rank, default=2)
    ev.add_argument("--u", type=int, required=True)
    ev.add_argument("--spec", default="plain")
    _add_flags(ev, "out")
    ve = ss.add_parser("verify")
    ve.add_argument("--q", type=_field_size, default=None)
    _add_flags(ve, "tol", "timings", "format", "out")

    t = sp.add_parser("tower", help="p-adic tower arithmetic")
    ts = t.add_subparsers(dest="sub", required=True)
    tv = ts.add_parser("val")
    tv.add_argument("--p", type=_prime, required=True)
    tv.add_argument("--e", type=_degree, default=1)
    tv.add_argument("--u0", type=int, default=1)
    _add_flags(tv, "precision")
    tv.add_argument("--coeffs", required=True, help="comma list, constant first")
    _add_flags(tv, "out")
    th = ts.add_parser("hilbert")
    th.add_argument("--p", type=_prime, required=True)
    th.add_argument("--e", type=_degree, default=2)
    th.add_argument("--u0", type=int, default=1)
    _add_flags(th, "precision")
    th.add_argument("--x", required=True, help="comma list of coefficients")
    th.add_argument("--y", required=True)
    th.add_argument("--sub", type=_subtower, default=1)
    _add_flags(th, "out")
    tg = ts.add_parser("herbrand")
    tg.add_argument("--p", type=_prime, required=True)
    tg.add_argument("--e", type=_degree, default=1)
    tg.add_argument("--nprime", type=_tame_index, required=True)
    _add_flags(tg, "out")

    g = sp.add_parser("group", help="classical group elements")
    gs = g.add_subparsers(dest="sub", required=True)
    for name in ("element", "components"):
        ge = gs.add_parser(name)
        ge.add_argument("--group", choices=GROUP_CHOICES, required=True)
        ge.add_argument("--n", type=_rank, required=True)
        ge.add_argument("--p", type=_prime, required=True)
        ge.add_argument("--u", type=int, required=True)
        ge.add_argument("--variant", default="plus")
        _add_flags(ge, "out")

    c = sp.add_parser("char", help="supercuspidal character values")
    cs = c.add_subparsers(dest="sub", required=True)
    ce = cs.add_parser("eval")
    ce.add_argument("--group", choices=GROUP_CHOICES, required=True)
    ce.add_argument("--n", type=_rank, required=True)
    ce.add_argument("--q", type=_prime, required=True)
    ce.add_argument("--xi", type=int, choices=(1, -1), default=1)
    ce.add_argument("--kappa", type=int, choices=(0, 1), default=0)
    ce.add_argument("--a", type=int, required=True)
    ce.add_argument("--zeta", type=int, choices=(1, -1), default=None)
    ce.add_argument("--u", type=int, required=True)
    ce.add_argument("--variant", default="plus")
    _add_flags(ce, "tol", "out")
    cv = cs.add_parser("verify")
    cv.add_argument("--group", choices=GROUP_CHOICES, default=None)
    cv.add_argument("--n", type=_rank, default=None)
    cv.add_argument("--q", type=_prime, default=None)
    _add_flags(cv, "tol", "seed", "timings", "format", "out")

    tr = sp.add_parser("transfer", help="transfer factors")
    trs = tr.add_subparsers(dest="sub", required=True)
    te = trs.add_parser("eval")
    te.add_argument("--pair", choices=[p.value for p in Pair], required=True)
    te.add_argument("--p", type=_prime, required=True)
    te.add_argument("--n", type=_rank, required=True)
    te.add_argument("--u", type=int, required=True)
    te.add_argument("--variant", default="plus")
    _add_flags(te, "out")

    e = sp.add_parser("ecr", help="endoscopic character identities")
    es = e.add_subparsers(dest="sub", required=True)
    ev2 = es.add_parser("verify")
    ev2.add_argument("--case", choices=("ram", "gl", "soeven"), required=True)
    ev2.add_argument("--n", type=_rank, required=True)
    ev2.add_argument("--q", type=_prime, required=True)
    _add_flags(ev2, "timings", "format", "out")

    co = sp.add_parser("conductor", help="Swan/Artin arithmetic")
    cos = co.add_subparsers(dest="sub", required=True)
    cc = cos.add_parser("compute")
    cc.add_argument("--p", type=_prime, required=True)
    cc.add_argument("--e", type=_degree, required=True)
    cc.add_argument("--nprime", type=_tame_index, required=True)
    _add_flags(cc, "out")

    su = sp.add_parser("suite", help="acceptance suites")
    sus = su.add_subparsers(dest="sub", required=True)
    sa = sus.add_parser("all")
    sa.add_argument("--only", default=None, help="comma list of suite names")
    _add_flags(sa, "tol", "seed", "timings", "jobs", "format", "out")
    return ap


# reporting -------------------------------------------------------------------


def _write(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def report_emit(rows, fmt="json", out=None, timings=False):
    """Write the rows as JSON or CSV; `elapsed` is zeroed unless ``timings``."""
    if not rows:
        raise EndolabError("refusing to emit an empty report")
    dicts = [r.as_dict(timings) for r in rows]
    if fmt == "json":
        text = json.dumps(dicts, indent=2) + "\n"
    else:
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=list(dicts[0]))
        w.writeheader()
        w.writerows(dicts)
        text = buf.getvalue()
    _write(text, out)


def _verdict(rows, args):
    """Emit the report; the exit code is 0 when every row passes, else 1."""
    report_emit(rows, args.format, args.out, args.timings)
    return 0 if all(r.passed for r in rows) else 1


def _grid(**given):
    """The suite keywords of the grid values the user gave, each as a
    one-value tuple; the suite's defaults fill the rest."""
    return {key: (value,) for key, value in given.items() if value is not None}


def _emit_obj(obj, args):
    _write(json.dumps(obj, indent=2, default=str) + "\n", args.out)


def matrix_json(g):
    """Each entry of g as its valuation and at most six p-adic digits of its
    unit part, as many as the matrix's precision certifies."""

    def entry(x):
        if x == 0:
            return {"val": None, "digits": []}
        v = val_p(x, g.p)
        return {"val": v - g.s, "digits": p_digits(x // g.p**v, g.p, min(6, g.prec - v))}

    return [[entry(x) for x in row] for row in g.a]


# command handlers --------------------------------------------------------------


def _parse_coeffs(raw, flag):
    """The integers that ``flag`` lists, constant first; the tower's
    ``from_coeffs`` refuses a count other than --e."""
    try:
        return [int(x) for x in raw.split(",")]
    except ValueError:
        raise UsageError(f"{flag} is a comma list of integers") from None


def cmd_sums(args):
    if args.sub == "eval":
        k = suites.field_for(args.q)
        named = {"plain": kl_simple(k, args.n)}
        named.update((s.name, s) for s in catalog(k, ns=(args.n,)))
        _check_variant(args.spec, list(named), f"--spec for --n {args.n}")
        spec = named[args.spec]
        val = kloosterman_eval(spec, k.coerce(args.u))
        _emit_obj(
            {"spec": spec.name, "q": args.q, "u": args.u, "value": [val.real, val.imag]},
            args,
        )
        return 0
    return _verdict(suites.exp_sums_suite(tol=args.tol, **_grid(qs=args.q)), args)


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
    if args.sub == "val":
        coeffs = _parse_coeffs(args.coeffs, "--coeffs")
        x = get_tower(args.p, args.e, args.u0, args.precision).from_coeffs(coeffs)
        _emit_obj(
            {
                "valuation": str(x.valuation()),
                "leading_unit": x.leading_unit().a,
            },
            args,
        )
        return 0
    xs = _parse_coeffs(args.x, "--x")
    ys = _parse_coeffs(args.y, "--y")
    tower = get_tower(args.p, args.e, args.u0, args.precision)
    x, y = tower.from_coeffs(xs), tower.from_coeffs(ys)
    _emit_obj({"symbol": tame_hilbert(x, y, sub=args.sub)}, args)
    return 0


def cmd_group(args):
    kind = GroupKind(args.group)
    _check_variant(args.variant, FAMILY_VARIANTS[kind], f"--variant for --group {args.group}")
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
        _check_variant(args.variant, FAMILY_VARIANTS[kind], f"--variant for --group {args.group}")
        if args.zeta is not None and kind not in ZETA_KINDS:
            raise UsageError(f"--group {args.group} has no --zeta")
        el = family_element(kind, args.n, args.q, args.u, args.variant)
        params = SSCParams(el.group, args.a, args.xi, args.kappa, args.zeta or 1)
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
    kind = GroupKind(args.group) if args.group else None
    rows = suites.char_oracle_suite(
        seed=args.seed, tol=args.tol, **_grid(ns=args.n, qs=args.q, kinds=kind)
    )
    return _verdict(rows, args)


def cmd_transfer(args):
    pair = Pair(args.pair)
    _check_variant(args.variant, pair_variants(pair), f"--variant for --pair {args.pair}")
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
    return _verdict(suites.SUITES[case](**_grid(ns=args.n, qs=args.q)), args)


def cmd_conductor(args):
    r = swan_artin_gamma(args.p, args.e, args.nprime)
    _emit_obj(
        {
            "swan": str(r["swan"]),
            "artin": str(r["artin"]),
            "log_q_gamma": str(r["log_q_gamma"]),
        },
        args,
    )
    return 0


def cmd_suite(args):
    names = args.only.split(",") if args.only else None
    for name in names or ():
        _check_variant(name, list(suites.SUITES), "each --only name")
    rows = suites.run_all(names=names, seed=args.seed, tol=args.tol, jobs=args.jobs)
    code = _verdict(rows, args)
    by_suite: dict = {}
    for r in rows:
        ok, tot = by_suite.get(r.suite, (0, 0))
        by_suite[r.suite] = (ok + (1 if r.passed else 0), tot + 1)
    for name, (ok, tot) in sorted(by_suite.items()):
        print(f"[{'PASS' if ok == tot else 'FAIL'}] {name}: {ok}/{tot}", file=sys.stderr)
    return code


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
    try:
        # a bad ENDOLAB_ value raises UsageError while the parser is built
        args = build_parser().parse_args(argv)
        if getattr(args, "n", None) is not None and args.n > RANK_CAP:
            raise CapExceeded(f"n={args.n} beyond the rank cap {RANK_CAP}")
        _check_units(args)
        return HANDLERS[args.command](args)
    except SystemExit as exc:  # argparse's usage errors and --help
        return exc.code if exc.code is not None else 2
    except (UsageError, InvalidParams) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
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
