import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import endolab

from endolab.cli import run
from endolab.errors import EndolabError
from endolab.groups import GroupKind
from endolab import characters, cli, suites


def run_capture(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_conductor_compute(capsys):
    code, out = run_capture(
        ["conductor", "compute", "--p", "3", "--e", "1", "--nprime", "2"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["swan"] == "3" and data["artin"] == "24"


@pytest.mark.parametrize(
    "argv",
    [
        # the tame index of the Herbrand stages need not be even
        ["tower", "herbrand", "--p", "3", "--e", "1", "--nprime", "3"],
        ["conductor", "compute", "--p", "5", "--e", "1", "--nprime", "4"],
    ],
)
def test_tame_index_inside_its_domain(argv, capsys):
    code, out = run_capture(argv, capsys)
    assert code == 0
    assert json.loads(out)


def test_usage_error_is_exit_2(capsys):
    assert run(["conductor", "compute", "--p"]) == 2
    assert run(["nonsense"]) == 2


def test_cap_error_is_exit_3(capsys):
    code = run(["conductor", "compute", "--p", "7", "--e", "2", "--nprime", "2"])
    assert code == 3


def test_char_eval_json(capsys):
    code, out = run_capture(
        [
            "char", "eval", "--group", "sp", "--n", "2", "--q", "5",
            "--xi", "1", "--kappa", "0", "--a", "2", "--u", "3",
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"lhs", "rhs", "delta", "pass"}
    assert data["pass"] and data["delta"] <= 1e-6


@pytest.mark.parametrize("variant", ["bogus", "phi_coset"])
@pytest.mark.parametrize(
    "argv",
    [
        ["char", "eval", "--group", "sp", "--n", "2", "--q", "5", "--u", "1", "--a", "1"],
        ["group", "element", "--group", "sp", "--n", "2", "--p", "5", "--u", "1"],
    ],
)
def test_variant_outside_family_is_usage_error(argv, variant, capsys):
    # Sp has only the plus and minus families; another variant would evaluate
    # the negated matrix under sign +1, an element no family defines
    code = run(argv + ["--variant", variant])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--variant" in captured.err


@pytest.mark.parametrize("pair, variant", [("gl2n1_sp", "bogus"), ("sp_soram", "phi_coset")])
def test_transfer_variant_outside_pair_is_usage_error(pair, variant, capsys):
    argv = ["transfer", "eval", "--pair", pair, "--p", "5", "--n", "2", "--u", "1"]
    code = run(argv + ["--variant", variant])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--variant" in captured.err


def test_transfer_eval_phi_coset(capsys):
    code, out = run_capture(
        ["transfer", "eval", "--pair", "sospl_h", "--p", "5", "--n", "2", "--u", "1", "--variant", "phi_coset"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["variant"] == "phi_coset"


def test_sums_eval_rank_one(capsys):
    # the named catalog is built for the requested rank before --spec is read,
    # so rank 1 (no even-orthogonal specs) must not break the plain sum
    from endolab.residue import make_field
    from endolab.sums import kl_simple, kloosterman_eval

    code, out = run_capture(["sums", "eval", "--q", "5", "--n", "1", "--u", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    k = make_field(5)
    want = kloosterman_eval(kl_simple(k, 1), k.coerce(2))
    assert data["spec"] == "Kl^1"
    assert abs(complex(*data["value"]) - want) < 1e-12


def test_sums_eval_unknown_spec_is_usage_error(capsys):
    code = run(["sums", "eval", "--q", "5", "--u", "2", "--spec", "bogus"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    # the message lists the spec names of the requested rank
    assert "--spec" in captured.err and "plain" in captured.err and "w_SOspl(n=2)" in captured.err


def test_sums_eval_spec_beyond_variable_cap_exits_3(capsys):
    # w_SOspl(n=4) has six variables, one beyond the cap
    code = run(["sums", "eval", "--q", "5", "--n", "4", "--u", "2", "--spec", "w_SOspl(n=4)"])
    assert code == 3
    assert capsys.readouterr().out == ""


def test_sums_verify_seed_determinism(capsys):
    code1, out1 = run_capture(["sums", "verify", "--q", "3"], capsys)
    code2, out2 = run_capture(["sums", "verify", "--q", "3"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-stable golden output
    rows = json.loads(out1)
    assert all(r["pass"] for r in rows)
    assert all(r["elapsed"] == 0.0 for r in rows)


def test_csv_projection(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = run(["sums", "verify", "--q", "3", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "suite,parameters,lhs,rhs,delta,pass,elapsed"
    rows = json.loads(
        run_and_get(["sums", "verify", "--q", "3"], capsys)
    )
    assert len(lines) - 1 == len(rows)


def run_and_get(argv, capsys):
    run(argv)
    return capsys.readouterr().out


def test_empty_report_raises():
    with pytest.raises(EndolabError):
        cli.report_emit([], "json", None)


def test_ecr_verify_exit_code(capsys):
    code, out = run_capture(["ecr", "verify", "--case", "ram", "--n", "2", "--q", "5"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows and all(r["pass"] for r in rows)


def test_group_components(capsys):
    code, out = run_capture(
        ["group", "components", "--group", "sp", "--n", "2", "--p", "5", "--u", "3"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["components"] == [2, 2, 6 % 5]


def test_group_element_matrix_json(capsys):
    code, out = run_capture(
        ["group", "element", "--group", "sp", "--n", "2", "--p", "5", "--u", "1"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    m = data["matrix"]
    assert len(m) == 4 and len(m[0]) == 4
    assert all("val" in x and "digits" in x for row in m for x in row)


def test_env_override(monkeypatch, capsys):
    monkeypatch.setenv("ENDOLAB_FORMAT", "csv")
    code, out = run_capture(["sums", "verify", "--q", "3"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("suite,parameters")


def test_console_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "endolab.cli", "tower", "herbrand", "--p", "3", "--e", "1", "--nprime", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["jumps"] == [["1", "9"], ["4", "3"]]


# The timings-off report of these suites is byte-stable; a refactor must keep
# it.  The reference file is that report, kept to show the first changed row.
PINNED_SUITES = "exp_sums,ecr_ram,ecr_gl,disc,formal_degree,conductor"
PINNED_SHA256 = "c69044c42714a3b8166b8ed163db8620e5336ecdb40c1ccafa402ac19a42714a"
PINNED_REPORT = Path(__file__).parent / "data" / "report_seed0_subset.json"


def _report_sha256(argv, tmp_path):
    """sha256 and path of the report the CLI writes for argv (a subprocess)."""
    out = tmp_path / "report.json"
    env = {**os.environ, "PYTHONPATH": str(Path(endolab.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "endolab.cli", *argv, "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return hashlib.sha256(out.read_bytes()).hexdigest(), out


def test_report_is_byte_stable(tmp_path):
    argv = ["suite", "all", "--only", PINNED_SUITES, "--seed", "0", "--format", "json"]
    digest, out = _report_sha256(argv, tmp_path)
    assert hashlib.sha256(PINNED_REPORT.read_bytes()).hexdigest() == PINNED_SHA256
    if digest != PINNED_SHA256:
        old = json.loads(PINNED_REPORT.read_text())
        new = json.loads(out.read_text())
        first = next(
            (i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new))
        )
        pytest.fail(
            f"report changed at row {first} ({len(old)} rows pinned, {len(new)} now):\n"
            f"pinned: {old[first] if first < len(old) else None}\n"
            f"now:    {new[first] if first < len(new) else None}"
        )


# Reports pinned by hash alone: the two that run the seeded samplers (20
# random affine generic elements per kind, and both I+ samplers of the charpoly
# suite), the transfer and even-orthogonal ECR rows, which run the sign route
# and the closed-form character route, and the whole report, forked over two
# jobs.
@pytest.mark.parametrize(
    "argv, sha256",
    [
        (
            ["char", "verify", "--n", "2", "--q", "3", "--seed", "0", "--format", "json"],
            "45f822c4111525486bf57104d8cbd93ce9fb90d5acc89a89c96c9ec9f06be1c3",
        ),
        (
            ["suite", "all", "--only", "charpoly", "--seed", "0", "--format", "json"],
            "06b94cd34c38a9eed6843243d2a9ea31ed22a23c5268c0ee1d61ee1b88792721",
        ),
        (
            ["suite", "all", "--only", "transfer,ecr_soeven", "--seed", "0", "--format", "json"],
            "8c0cd51164e64e98f858c9e5d3a4c5f429ab8bc634a5b9c004ab102314a0bdea",
        ),
        (
            ["suite", "all", "--seed", "0", "--format", "json", "--jobs", "2"],
            "7709a1b2b7513197b0139ff4b93e84a01a3ff7eb6a4ac176ef58d0a9cf22d58c",
        ),
    ],
    ids=["char_verify", "charpoly", "transfer_ecr_soeven", "suite_all"],
)
def test_sampling_report_is_byte_stable(argv, sha256, tmp_path):
    assert _report_sha256(argv, tmp_path)[0] == sha256


# the report flags each subcommand takes: exactly those its handler reads
REPORT_FLAGS = {"--tol", "--seed", "--out", "--format", "--jobs", "--timings"}
FLAGS_READ = {
    ("suite", "all"): REPORT_FLAGS,
    ("char", "verify"): {"--tol", "--seed", "--timings", "--format", "--out"},
    ("sums", "verify"): {"--tol", "--timings", "--format", "--out"},
    ("ecr", "verify"): {"--timings", "--format", "--out"},
    ("char", "eval"): {"--tol", "--out"},
}


def _subcommands():
    ap = cli.build_parser()
    top = next(a for a in ap._actions if a.dest == "command")
    for name, parser in top.choices.items():
        sub = next(a for a in parser._actions if a.dest == "sub")
        for subname, leaf in sub.choices.items():
            yield (name, subname), leaf


def test_each_subcommand_declares_the_flags_it_reads():
    slots = 0
    for key, leaf in _subcommands():
        flags = {s for a in leaf._actions for s in a.option_strings} & REPORT_FLAGS
        assert flags == FLAGS_READ.get(key, {"--out"}), key
        slots += len(flags)
    assert slots == 28


@pytest.mark.parametrize(
    "argv",
    [
        ["char", "eval", "--group", "sp", "--n", "2", "--q", "5", "--u", "1", "--a", "1", "--format", "csv"],
        ["tower", "val", "--p", "3", "--coeffs", "1,2", "--jobs", "7"],
    ],
)
def test_flag_a_handler_does_not_read_is_usage_error(argv, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "element", "--group", "gl", "--n", "3", "--p", "5", "--u", "1"],
        ["group", "components", "--group", "gl", "--n", "3", "--p", "5", "--u", "1"],
        ["char", "eval", "--group", "gl", "--n", "3", "--q", "5", "--u", "1", "--a", "1"],
        ["char", "verify", "--group", "gl", "--n", "2", "--q", "3"],
    ],
)
def test_group_without_families_is_usage_error(argv, capsys):
    # GL has no family table; --group gl once matched the gl_theta rows
    assert run(argv) == 2
    assert capsys.readouterr().out == ""


def test_char_verify_keeps_the_exact_group(monkeypatch, capsys):
    def fake_suite(**kwargs):
        return [
            suites._row("char_oracle", f"group={g} n=2 q=3", "a", "b", 0.0, True)
            for g in ("sp", "sp_x", "gl_theta")
        ]

    monkeypatch.setattr(suites, "char_oracle_suite", fake_suite)
    code, out = run_capture(["char", "verify", "--group", "sp"], capsys)
    assert code == 0
    assert [r["parameters"] for r in json.loads(out)] == ["group=sp n=2 q=3"]


def test_char_verify_group_builds_only_its_kind(monkeypatch, capsys):
    argv = ["char", "verify", "--n", "2", "--q", "3", "--seed", "0", "--format", "json"]
    code, out = run_capture(argv, capsys)
    assert code == 0
    wanted = [r for r in json.loads(out) if "group=sp" in r["parameters"].split()]
    built = []
    family_element = suites.family_element

    def spy(kind, *args):
        built.append(kind)
        return family_element(kind, *args)

    monkeypatch.setattr(suites, "family_element", spy)
    code, out = run_capture(argv + ["--group", "sp"], capsys)
    assert code == 0
    assert json.loads(out) == wanted
    assert built and set(built) == {GroupKind.SP}


def test_odd_pair_has_no_minus_variant(capsys):
    argv = ["transfer", "eval", "--pair", "gl2n1_sp", "--p", "5", "--n", "2", "--u", "1"]
    assert run(argv + ["--variant", "minus"]) == 2
    assert "--variant" in capsys.readouterr().err
    code, out = run_capture(argv + ["--variant", "plus"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == [1.0, 0.0]


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "element", "--group", "sp", "--n", "9", "--p", "3", "--u", "1"],
        ["transfer", "eval", "--pair", "sp_soram", "--p", "3", "--n", "9", "--u", "1"],
    ],
)
def test_rank_beyond_cap_is_exit_3(argv, monkeypatch, capsys):
    def must_not_build(*args, **kwargs):
        raise AssertionError("built an element beyond the rank cap")

    monkeypatch.setattr(cli, "family_element", must_not_build)
    monkeypatch.setattr(cli, "transfer_factor", must_not_build)
    assert run(argv) == 3
    assert "cap" in capsys.readouterr().err


# values outside an option's domain, each with its exit code: 2 for a value no
# command takes, 3 for a field size beyond the cap
@pytest.mark.parametrize(
    "argv, code",
    [
        (["ecr", "verify", "--case", "ram", "--n", "2", "--q", "9"], 2),
        (["char", "eval", "--group", "sp", "--n", "2", "--q", "4", "--u", "1", "--a", "1"], 2),
        (["char", "verify", "--q", "9"], 2),
        (["transfer", "eval", "--pair", "sp_soram", "--p", "9", "--n", "2", "--u", "1"], 2),
        (["group", "element", "--group", "sp", "--n", "2", "--p", "4", "--u", "1"], 2),
        (["tower", "val", "--p", "4", "--coeffs", "1"], 2),
        (["sums", "eval", "--q", "4", "--u", "1"], 2),
        (["char", "eval", "--group", "sp", "--n", "2", "--q", "5", "--u", "1", "--a", "1", "--xi", "2"], 2),
        (["char", "eval", "--group", "sp", "--n", "2", "--q", "5", "--u", "1", "--a", "1", "--kappa", "3"], 2),
        (["char", "eval", "--group", "sp", "--n", "2", "--q", "5", "--u", "1", "--a", "0"], 2),
        (["char", "eval", "--group", "sp", "--n", "2", "--q", "5", "--u", "0", "--a", "1"], 2),
        (["group", "components", "--group", "sp", "--n", "2", "--p", "5", "--u", "0"], 2),
        (["transfer", "eval", "--pair", "sp_soram", "--p", "5", "--n", "2", "--u", "5"], 2),
        (["sums", "eval", "--q", "9", "--u", "3"], 2),
        (["char", "verify", "--n", "0", "--q", "3"], 2),
        (["suite", "all", "--only", "disc,bogus"], 2),
        (["group", "element", "--group", "sp", "--n", "0", "--p", "5", "--u", "1"], 2),
        (["sums", "eval", "--q", "17", "--u", "1"], 3),
        (["sums", "verify", "--q", "17"], 3),
        (["tower", "val", "--p", "3", "--coeffs", "1,2"], 2),
        (["tower", "val", "--p", "3", "--e", "0", "--coeffs", "1"], 2),
        (["tower", "val", "--p", "3", "--coeffs", "x"], 2),
        (["tower", "hilbert", "--p", "3", "--x", "1", "--y", "1,2"], 2),
        (["tower", "hilbert", "--p", "3", "--x", "1,2", "--y", "1,2,3"], 2),
        (["tower", "herbrand", "--p", "3", "--nprime", "0"], 2),
        (["tower", "herbrand", "--p", "3", "--e", "-1", "--nprime", "2"], 2),
        (["tower", "herbrand", "--p", "3", "--e", "0", "--nprime", "2"], 2),
        (["tower", "hilbert", "--p", "5", "--e", "2", "--x", "1,1", "--y", "2,0", "--sub", "0"], 2),
        (["tower", "hilbert", "--p", "5", "--e", "2", "--x", "1,1", "--y", "2,0", "--sub", "-1"], 2),
        (["conductor", "compute", "--p", "5", "--e", "1", "--nprime", "3"], 2),
        (["conductor", "compute", "--p", "7", "--e", "1", "--nprime", "4"], 2),
        (["conductor", "compute", "--p", "5", "--e", "0", "--nprime", "2"], 2),
        (["conductor", "compute", "--p", "5", "--e", "1", "--nprime", "0"], 2),
        # kappa and zeta exist only on the kinds whose characters take them,
        # and zeta is a sign against its base value
        (["char", "eval", "--group", "gl_theta", "--n", "2", "--q", "5", "--u", "1", "--a", "1", "--kappa", "1"], 2),
        (["char", "eval", "--group", "so_ram", "--n", "2", "--q", "5", "--u", "1", "--a", "1", "--kappa", "1"], 2),
        (["char", "eval", "--group", "sp", "--n", "2", "--q", "5", "--u", "1", "--a", "1", "--zeta", "1"], 2),
        (["char", "eval", "--group", "so_ram", "--n", "2", "--q", "5", "--u", "1", "--a", "1", "--zeta", "-1"], 2),
        (["char", "eval", "--group", "gl_theta", "--n", "2", "--q", "7", "--u", "1", "--a", "1", "--zeta", "1.0"], 2),
        (["char", "eval", "--group", "so_spl", "--n", "2", "--q", "5", "--u", "1", "--a", "1", "--zeta", "2"], 2),
        # nor does xi = -1 exist on the twisted linear kind
        (["char", "eval", "--group", "gl_theta", "--n", "2", "--q", "5", "--u", "1", "--a", "1", "--xi", "-1"], 2),
        # nor a twisted linear zeta off zeta^2 = w0(-1), which is 1 at q = 5
        (["char", "eval", "--group", "gl_theta", "--n", "2", "--q", "5", "--u", "1", "--a", "1", "--zeta", "i"], 2),
    ],
)
def test_value_outside_its_domain_is_not_a_failed_check(argv, code, capsys):
    assert run(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "check failed" not in captured.err


def test_zeta_sign_reaches_the_grid_value_of_minus_i(capsys):
    """At q = 7, w0(-1) = -1 and the twisted linear zeta is +-i: --zeta -1
    evaluates the character grid's zeta = -i cell, --zeta 1 its +i cell."""
    el = characters.family_element(GroupKind.TWISTED_GL, 2, 7, 1, "minus")
    argv = ["char", "eval", "--group", "gl_theta", "--n", "2", "--q", "7", "--u", "1", "--a", "2"]
    for sign, zeta in ((-1, -1j), (1, 1j)):
        code, out = run_capture(argv + ["--variant", "minus", "--zeta", str(sign)], capsys)
        assert code == 0
        params = next(s for s in suites._params_grid(el.group, 7) if s.a == 2 and s.zeta == zeta)
        want = characters.char_brute_force(params, el).value
        assert abs(want) > 1
        assert json.loads(out)["lhs"] == [want.real, want.imag]


def test_timings_fill_elapsed_only_when_asked(capsys):
    argv = ["suite", "all", "--only", "disc"]
    code, out = run_capture(argv + ["--timings"], capsys)
    assert code == 0
    assert any(r["elapsed"] > 0 for r in json.loads(out))
    code, out = run_capture(argv, capsys)
    assert code == 0
    assert all(r["elapsed"] == 0.0 for r in json.loads(out))
