import argparse
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import pytest

import rclab
from rclab import cli, coeffsolve
from rclab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_form_json_golden(capsys):
    code, out = run(capsys, "form", "E4", "--prec", "5", "--json")
    assert code == 0
    assert out == (
        '{"name":"E4","series":{"coeffs":["1","240","2160","6720","17520"],'
        '"prec":5},"weight":4}\n'
    )


def test_verify_all_json_report_is_byte_identical(capsys):
    # SHA-256 of the full seed-0 report, as recorded in bench/golden.json
    code, out = run(capsys, "verify", "all", "--json", "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6f7dfba6578e261628e4438f93f882105e78a98600ec0411d264831a785c5245"
    )


def test_run_settings_at_their_defaults_keep_the_report(capsys):
    # every run setting given at its default reaches its suites and changes no byte
    code, out = run(capsys, "verify", "all", "--json", "--seed", "0", "--prec", "20", "--hbar-order", "4",
                    "--grid-bound", "4", "--kappas", "1/2,3/2,2,5/2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6f7dfba6578e261628e4438f93f882105e78a98600ec0411d264831a785c5245"
    )


def test_json_output_is_deterministic(capsys):
    _, first = run(capsys, "verify", "p3", "--json")
    _, second = run(capsys, "verify", "p3", "--json")
    assert first == second


def test_bracket_antisymmetry_prints_zero(capsys):
    code, out = run(capsys, "bracket", "--f", "E4", "--g", "E4", "--n", "1", "--prec", "8")
    assert code == 0
    assert "0 + O(q^8)" in out


def test_star_subcommand(capsys):
    code, out = run(
        capsys, "star", "--kappa", "1/2", "--f", "E4", "--g", "E6",
        "--order", "2", "--prec", "6", "--json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["series"]["order"] == 2
    # constant-term check: hbar^0 part is the plain product
    assert obj["series"]["terms"][0]["parts"]["10"]["coeffs"][0] == "1"


def test_rep_subcommands(capsys):
    code, out = run(capsys, "rep", "casimir", "--weight", "12", "--n-max", "6")
    assert code == 0 and "120" in out
    code, out = run(capsys, "rep", "kernel-dims", "--n-max", "4", "--json")
    assert code == 0
    obj = json.loads(out)
    assert [c["kernel_dim"] for c in obj["checks"]] == [1, 2, 3, 4, 5]


def test_solve_subcommand_negative_c(capsys):
    code, out = run(capsys, "solve", "an", "--n", "3", "--grid", "4", "--c", "-5/4", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["nullity"] == 0
    assert obj["consistent"] is True
    assert obj["residual_nonzero_count"] == 0


def test_verify_suite_pass_and_fail_exit_codes(capsys):
    code, _ = run(capsys, "verify", "combi", "--n-max", "3", "--prec", "12")
    assert code == 0
    # asserting the quoted canonical element as-is must fail with a witness
    code, out = run(capsys, "verify", "canonical", "--phi-sign", "plus", "--n-max", "2", "--prec", "10")
    assert code == 1
    assert "FAIL" in out
    code, _ = run(capsys, "verify", "kappa-c", "--printed")
    assert code == 1


def test_verify_reports_are_sorted_and_echo_config(capsys):
    code, out = run(capsys, "verify", "kappa-c", "--json", "--grid-bound", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["config"]["grid_bound"] == 3
    names = [c["name"] for c in obj["checks"]]
    assert names == sorted(names)


def test_blanks_in_a_kappa_list_reach_no_record_name(capsys):
    code, out = run(capsys, "verify", "kappa-c", "--kappas", "1/2, 3/2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["config"]["kappa_samples"] == ["1/2", "3/2"]
    assert [c["name"] for c in obj["checks"]] == [
        "kappa-c/1over2/fit",
        "kappa-c/1over2/quoted-constant-mismatch-reproduced",
        "kappa-c/3over2/fit",
        "kappa-c/3over2/quoted-constant-mismatch-reproduced",
    ]


def test_verify_options_are_pinned():
    # a new verify option, or a second spelling of a setting, has to edit this list
    (verify,) = [
        a.choices["verify"] for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    options = sorted(s for a in verify._actions for s in a.option_strings)
    assert options == [
        "--grid", "--grid-bound", "--hbar-order", "--help", "--json", "--kappas", "--n-max",
        "--order", "--phi-sign", "--prec", "--printed", "--seed", "--seeds", "-h",
    ]


# SHA-256 of stdout; the `verify all` digest above does not cover these commands
@pytest.mark.parametrize(
    "argv,digest",
    [
        ("rep casimir --weight 12 --n-max 10 --json",
         "86984f9a934d5fcb0993e1f60c3a1420eb91ec2e299ce692227af2b4d1195573"),
        ("rep kernel-dims --n-max 8 --json",
         "6eb985cb026e4cb2317293b7d76791fefa7b180ef88de5018f761a7fd7cd692c"),
        ("solve an --n 2 --grid 4 --json",
         "24eccd545b93797b94d4a00027c21a51eedb0d1cb2f8f73cc811c8c8a6eb8894"),
        ("solve an --n 4 --grid 4 --c -5/4 --json",
         "fe17b91b3d3a95bd6d17c4480ec32a2f06a31de637ff0ada84ae90173721f6c5"),
        ("solve an --n 5 --grid 3 --c 1/2 --json",
         "e1d85b71f760641dc80b543b41f19f957576d3e584473296836423fb977358a2"),
        ("rep casimir --weight 12 --n-max 4",
         "3b87d6b8d003a653c9817f3a2baedcd9e8497d38540e08eddcdb09a127cf4b34"),
        ("rep kernel-dims --n-max 5",
         "4f97202783e348bc014b0d794288294b4c2d986d657954c0a56db797a1783b6e"),
        ("solve an --n 4 --grid 3 --c 1/2",
         "8990c63575a6f11d50fc0bfb200f2e5a6b43b404b4ef35ae004e9e3c05aacaa7"),
        ("solve an --n 1 --grid 3 --json",
         "1d669c0f78e60dc5fe59618705aa14e71729f64a4e0253a0a0faddfaa2175c89"),
        # no verify suite runs a cmz star product (assoc is eholzer-only): the
        # README example at kappa = 1/2 and a generic kappa
        ("star --kappa 1/2 --f E4 --g E6 --order 4 --prec 20 --json",
         "b367c5e1023c282bc892fa7b98297ed4209a79aafc598a44b11acaffce08684e"),
        ("star --kappa 7/3 --f E4 --g E6 --order 4 --prec 20 --json",
         "98fc5aa498f543f39c7c9dc2a9546aabcb80bd99afa9510fa6fdad4346bb2499"),
        # without --kappa the product is eholzer's, reported as "kind": "eholzer"
        ("star --f E4 --g E6 --order 4 --prec 20 --json",
         "0819f47c21c724756a67767781cbb17f4be24d1fd0a5e0fd356266a20a4c99c3"),
    ],
)
def test_rep_and_solve_json_outputs_are_byte_identical(capsys, argv, digest):
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of stdout for the suites whose exact objects are derived once per
# call or per process (the det3 polynomial, the p3 substitution, the c chain,
# the kappa tables of one residual sweep, the raising and Zagier chains)
@pytest.mark.parametrize(
    "argv,digest",
    [
        ("verify fine --json",
         "ee4d1fc5ee6483c9a04b189b4e77356141eaa0ae06b5858f38b2c5a331efb42b"),
        ("verify p3 --json",
         "3c60937e78915b2081b738a4e9d779d4ca591a6ba728ab858614e425b3acd0ba"),
        ("verify solve-unique --json",
         "efe663ddf586c497c6ef0823062058035497dc24588fd624eb487112b81b779f"),
        ("verify ident --json",
         "eb039463471e8948fd61a4cc8d272e6759053a45beec8799549f3345499e63e6"),
        ("verify ident --kappas 7/3 --n-max 3 --grid-bound 3 --json",
         "b4c3d0a7207f85d76e2bce4bb84181d7bf00f9a1fa964b01079911d8c7964900"),
        ("verify canonical --json",
         "522f96812780e4c960c7f5ea9c8961804162619ce39f9b6c1d13132b87f47ddd"),
        # the quoted element alone fails with its witnesses: exit 1
        ("verify canonical --phi-sign plus --json",
         "a167419515142672e16d9967ba22bcac405dadaddd71c955f3f88af0447bbef7"),
        ("verify der --json",
         "f5dcb6eda190653f24668ca6f8826ef1098d22bbe518b9e532cb072481f4bfb7"),
    ],
)
def test_verify_suite_json_outputs_are_byte_identical(capsys, argv, digest):
    code, out = run(capsys, *argv.split())
    assert code == (0 if json.loads(out)["ok"] else 1)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("n_max,checked", [(0, 3), (1, 3), (2, 3), (3, 3), (4, 4)])
def test_verify_fine_records_the_n_max_it_checked(capsys, n_max, checked):
    # the 2x2 lemma starts at n = 3, so a smaller --n-max still checks n = 3
    code, out = run(capsys, "verify", "fine", "--n-max", str(n_max), "--grid", "2", "--json")
    assert code == 0
    (rec,) = [c for c in json.loads(out)["checks"] if c["name"] == "fine/det2x2-closed-form-negative"]
    assert rec["params"] == {"grid": 2, "n_max": checked}


# each verify flag reaches the suite that takes it, as echoed in the record's params
@pytest.mark.parametrize(
    "argv,record,params",
    [
        ("der --n-max 1 --prec 12", "der/E4", {"m_max": 1, "prec": 12}),
        ("combi --n-max 1 --prec 8", "combi/holomorphic-and-equal/E4-E6", {"n_max": 1, "prec": 8}),
        ("canonical --n-max 2 --prec 12", "canonical/corrected-element/E4-E6",
         {"n_max": 2, "prec": 12, "phi": "-E4/144"}),
        ("ident --n-max 2 --grid-bound 2 --kappas 1/2", "ident/kappa-1over2", {"n_max": 2, "grid": 2}),
        ("ident --grid-bound 3 --kappas 1/2", "ident/kappa-1over2", {"n_max": 5, "grid": 3}),
        ("fine --n-max 4 --grid 2 --prec 8", "fine/det2x2-closed-form-negative", {"n_max": 4, "grid": 2}),
        ("fine --grid 3 --prec 8", "fine/det2x2-closed-form-negative", {"n_max": 6, "grid": 3}),
        ("solve-unique --grid 2", "solve/level3-unique", {"grid": 2}),
        ("uniqueness --seeds 3 --order 2 --prec 12", "uniqueness/no-counterexamples",
         {"seeds": 3, "order": 2, "prec": 12}),
        ("uniqueness --seeds 3 --prec 40", "uniqueness/no-counterexamples",
         {"seeds": 3, "order": 3, "prec": 15}),
        ("assoc --hbar-order 2 --prec 12", "assoc/eholzer/E4-E4-E6", {"order": 2, "prec": 12}),
        ("kappa-c --grid-bound 2 --kappas 1/2", "kappa-c/1over2/fit", {"grid": 2}),
    ],
)
def test_verify_flags_reach_their_suite(capsys, argv, record, params):
    words = argv.split()
    code, out = run(capsys, "verify", *words, "--json")
    obj = json.loads(out)
    (rec,) = [c for c in obj["checks"] if c["name"] == record]
    assert rec["params"] == params
    # a run setting given as a flag is echoed as given
    for setting in ("prec", "grid_bound"):
        flag = "--" + setting.replace("_", "-")
        if flag in words:
            assert obj["config"][setting] == int(words[words.index(flag) + 1])
    assert code == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_solve_on_grid_one_reports_only_solved_samples(capsys, n):
    # the grid-1 system solves no A_n(x, 6) and no A_n(4, 4) at level n >= 3
    code, out = run(capsys, "solve", "an", "--n", str(n), "--grid", "1", "--json")
    obj = json.loads(out)
    assert code == (0 if obj["consistent"] and not obj["residual_nonzero_count"] else 1)
    if n >= 3:
        assert obj["nullity"] == 0
        assert sorted(obj["sample_values"]) == [f"A_{n}(2,2)", f"A_{n}(2,4)", f"A_{n}(4,2)"]


def test_usage_errors_exit_two(capsys):
    for argv in (
        ["bogus-command"],
        ["verify", "not-a-suite"],
        ["verify", "ident", "--kind", "moyal"],
        ["form", "E4", "--prec", "0"],
        ["bracket", "--f", "E4", "--g", "E6", "--n", "1", "--prec", "0"],
        ["verify", "forms", "--prec", "1"],
        ["form", "E5"],
        ["bracket", "--f", "E4", "--g", "E6", "--n", "-1"],
        ["form", "Delta", "--prec", "1"],
        ["verify", "ident", "--kappas", "1/0"],
        ["star", "--f", "E4", "--g", "E6", "--order", "-1"],
        ["star", "--kind", "eholzer", "--kappa", "1/2", "--f", "E4", "--g", "E6", "--json"],
        ["star", "--kind", "cmz", "--f", "E4", "--g", "E6"],
        ["star", "--kind", "moyal", "--f", "E4", "--g", "E6"],
        ["verify", "uniqueness", "--seeds", "0"],
        ["solve", "an", "--n", "2", "--grid", "0"],
        ["solve", "an", "--n", "0"],
        ["verify", "ident", "--grid", "0"],
        ["verify", "p3", "--kappas", "abc"],
        # the config file is gone: each setting is spelled only as its flag
        ["verify", "forms", "--config", "desk.cfg"],
        # ident's grid is --grid-bound, the one its config echoes
        ["verify", "ident", "--grid", "3"],
        # a kappa list names each value once
        ["verify", "ident", "--kappas", "1/2,1/2"],
        ["verify", "ident", "--kappas", "1/2,2/4"],
        ["verify", "ident", "--kappas", "1/2,"],
        ["verify", "assoc", "--hbar-order", "-1"],
        ["verify", "assoc", "--hbar-order", "0"],
        ["verify", "all", "--hbar-order", "0"],
        ["verify", "combi", "--n-max", "0"],
        ["verify", "uniqueness", "--order", "-1"],
        ["verify", "ident", "--n-max", "-1"],
        ["verify", "ident", "--n-max", "0"],
        ["verify", "ident", "--n-max", "1"],
        ["verify", "der", "--n-max", "0"],
        ["rep", "kernel-dims", "--n-max", "-1"],
        ["rep", "casimir", "--weight", "4", "--n-max", "-1"],
        ["rep", "casimir", "--weight", "3"],
        ["rep", "foo"],
        ["solve", "bar"],
        ["verify", "canonical", "--n-max", "-1"],
        ["verify", "canonical", "--n-max", "0"],
        ["verify", "canonical", "--n-max", "1"],
        ["verify", "all", "--n-max", "1"],
        ["verify", "kappa-c", "--grid-bound", "0"],
        ["verify", "casimir", "--n-max", "3"],
        ["verify", "ident", "--seeds", "5"],
        # a run setting reaches only the suites that read it
        ["verify", "forms", "--kappas", "1/2"],
        ["verify", "casimir", "--prec", "30"],
        ["verify", "p3", "--seed", "3"],
        ["verify", "solve-unique", "--grid-bound", "3"],
        ["verify", "forms", "--hbar-order", "2"],
        # solve-unique has no alias, ident reads no kind, and --kappa alone picks the star family
        ["verify", "cmz-unique"],
        ["verify", "ident", "--kind", "cmz"],
        ["star", "--kind", "cmz", "--kappa", "1/2", "--f", "E4", "--g", "E6"],
        # a prefix of a flag is not a second spelling of it
        ["verify", "ident", "--kappa", "3/2"],
        ["verify", "uniqueness", "--ord", "2"],
        ["star", "--kap", "1/2", "--f", "E4", "--g", "E6"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("rc-lab"), err


def test_a_negative_first_kappa_reaches_ident(capsys):
    code, out = run(capsys, "verify", "ident", "--kappas", "-1/2,3/2", "--json")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names == ["ident/kappa--1over2", "ident/kappa-3over2"]


def test_readme_command_lines_parse():
    # every documented `rc-lab ...` example must parse; nothing is run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("rc-lab ")]
    assert len(lines) >= 10
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(cli._merge_negative_values(line.split()[1:]))
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")


def test_no_suite_runs_before_a_usage_error(capsys, monkeypatch):
    # every suite floor is checked before the first suite runs, not by the suite itself
    calls = []

    def counted(suite):
        def run(*args, **kwargs):
            calls.append(suite.__name__)
            return suite(*args, **kwargs)

        return run

    for name, suite in cli.SUITES.items():
        monkeypatch.setitem(cli.SUITES, name, counted(suite))
    for argv in (
        ["verify", "all", "--hbar-order", "0"],
        ["verify", "all", "--n-max", "1"],
        ["verify", "ident", "--n-max", "1"],
        ["verify", "assoc", "--hbar-order", "0"],
        ["verify", "casimir", "--prec", "30"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert calls == [], argv


def test_a_usage_error_names_the_flag_as_spelled(capsys):
    # --kappas sets kappa_samples: the message names the option, not the keyword
    with pytest.raises(SystemExit) as exc:
        main(["verify", "forms", "--kappas", "1/2"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "rc-lab: error: --kappas does not apply to the forms suite\n"


def test_suite_keywords_default_to_their_run_setting():
    # a suite keyword named after a RunConfig field defaults to that field, and each field is read
    config = asdict(cli.RunConfig())
    for suite in cli.SUITES.values():
        for name, param in inspect.signature(suite).parameters.items():
            if name in config:
                assert param.default == config[name], (suite.__name__, name)
    assert config.keys() <= cli.SUITE_FLAGS.keys()


def test_readme_lists_every_setting_with_its_suites():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    listed = {flag: tuple(re.findall(r"`([a-z0-9-]+)`", suites))
              for flag, suites in re.findall(r"^\* `(--[a-z-]+)`: (.*)$", section, re.M)}
    assert listed == {cli._option(setting): suites for setting, suites in cli.SUITE_FLAGS.items()}


def _kappa_c_verdict(capsys):
    code, out = run(capsys, "verify", "kappa-c", "--json")
    return code, {c["name"]: c["status"] for c in json.loads(out)["checks"]}


def test_kappa_c_fails_when_the_quoted_constant_is_correct(capsys, monkeypatch):
    # with the induced constant planted as the quoted one the mismatch is gone
    monkeypatch.setattr(coeffsolve, "kappa_to_c", coeffsolve.induced_c_from_kappa)
    code, statuses = _kappa_c_verdict(capsys)
    assert code == 1
    assert statuses["kappa-c/1over2/quoted-constant-mismatch-reproduced"] == "fail"


def test_kappa_c_fails_when_the_level2_coordinate_is_rescaled(capsys, monkeypatch):
    # halving the c-term of a2_family_assoc doubles every fitted c
    family = coeffsolve.a2_family_assoc
    monkeypatch.setattr(coeffsolve, "a2_family_assoc", lambda c: family(Fraction(c) / 2))
    code, statuses = _kappa_c_verdict(capsys)
    assert code == 1
    assert statuses["kappa-c/2/fit"] == "fail"  # c = 3 at kappa = 2; c = 0 at 1/2 and 3/2


def test_a_suite_that_raises_fails_as_a_record(capsys, monkeypatch):
    # a disagreeing determinant is a failed record with a witness (see
    # test_planted_defects); a crash inside the suite is a `fine/error` record
    monkeypatch.setattr(coeffsolve, "det2x2_direct", lambda *a: 1 // 0)
    code, out = run(capsys, "verify", "fine", "--json")
    assert code == 1 and capsys.readouterr().err == ""
    (rec,) = [c for c in json.loads(out)["checks"] if c["name"] == "fine/error"]
    assert rec["status"] == "fail" and rec["exception"] == "ZeroDivisionError"
    assert rec["message"] == "integer division or modulo by zero"


def test_a_closed_stdout_exits_one_without_a_traceback():
    # the read end is closed before the report is written, so every write fails
    src = str(Path(rclab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "rclab.cli", "verify", "kappa-c", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""
