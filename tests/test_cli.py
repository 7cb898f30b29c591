"""CLI surface: subcommands, JSON output, exit codes, caching."""

import json

import pytest

from maclab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_macdonald_json(capsys):
    code, out, _ = run_cli(capsys, "macdonald", "--n", "2", "--lambda", "2,0",
                           "--output", "json", "--no-cache")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 2
    partitions = [tuple(item["partition"]) for item in obj["m_expansion"]]
    assert set(partitions) == {(2,), (1, 1)}


def test_macdonald_oracle_agrees(capsys):
    _, out1, _ = run_cli(capsys, "macdonald", "--n", "2", "--lambda", "2,0",
                         "--output", "json", "--no-cache")
    _, out2, _ = run_cli(capsys, "macdonald", "--n", "2", "--lambda", "2,0",
                         "--oracle", "--output", "json", "--no-cache")
    a, b = json.loads(out1), json.loads(out2)
    assert [i["partition"] for i in a["m_expansion"]] == \
        [i["partition"] for i in b["m_expansion"]]


@pytest.mark.parametrize("before", [
    ("macdonald", "--n", "2", "--lambda", "1,1,1"),
    ("macdonald", "--n", "2"),
    ("macdonald", "--n", "3", "--lambda", "2,1", "--oracle", "--output", "json"),
], ids=["range-error", "parse-error", "oracle"])
def test_parser_reused_across_calls_keeps_a_plain_call_unchanged(capsys, before):
    # one parser per process: an earlier call in the same process, even one
    # that exits 2, leaves no state behind for the next
    plain = ("macdonald", "--n", "3", "--lambda", "2,1", "--no-cache")
    _, expected, _ = run_cli(capsys, *plain)
    code = main(list(before) + ["--no-cache"])
    capsys.readouterr()
    assert code == (0 if "--oracle" in before else 2)
    _, out, _ = run_cli(capsys, *plain)
    assert out == expected
    assert out.startswith("m[2, 1]: 1\n")


def test_baker_specialize(capsys):
    code, out, _ = run_cli(capsys, "baker", "--n", "2", "--truncation", "1",
                           "--specialize", "1,0", "--output", "json", "--no-cache")
    assert code == 0
    obj = json.loads(out)
    assert obj["m_expansion"][0]["partition"] == [1]


def test_laumon_verify_runs_at_n_2_only_the_checks_that_take_a_rank(capsys):
    code, out, _ = run_cli(capsys, "laumon", "verify", "shir", "--degree", "1", "--no-cache")
    assert (code, out) == (0, "[PASSED] shir (degree=1 equality_mode=exact n=2)\n")
    code, out, _ = run_cli(capsys, "laumon", "verify", "ansum", "--output", "json", "--no-cache")
    assert code == 0
    assert json.loads(out)["parameters"] == {"equality_mode": "exact"}


def test_laumon_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "laumon", "verify", "shir", "--n", "2",
                           "--degree", "2", "--output", "json", "--no-cache")
    assert code == 0
    assert json.loads(out)["status"] == "PASSED"


def test_global_h_series(capsys):
    code, out, _ = run_cli(capsys, "global", "h", "--n", "2", "--weight", "1",
                           "--order", "2", "--alpha-max", "4",
                           "--output", "json", "--no-cache")
    assert code == 0
    obj = json.loads(out)
    degs = {tuple(c["deg"]) for c in obj["coefficients"]}
    # (z1 + z2)/(1 - q) truncated: pure q-powers only
    assert degs == {(0, 0), (1, 0), (2, 0)}


def test_global_h_not_stabilized_exits_1(tmp_path, capsys):
    # weight 2 at order 3 needs more than three schedule points
    code, out, err = run_cli(capsys, "global", "h", "--n", "2", "--weight", "2",
                             "--order", "3", "--alpha-max", "3",
                             "--cache-dir", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "not stabilized" in err
    assert not list(tmp_path.iterdir())


def test_top_level_verify_and_aliases(capsys):
    code, out, _ = run_cli(capsys, "verify", "substitution", "--n", "2",
                           "--degree", "2", "--output", "json", "--no-cache")
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "difference-equation", "--n", "2",
                           "--degree", "2", "--output", "json", "--no-cache")
    assert code == 0
    assert json.loads(out)["check"] == "shir"


def test_cache_transparency(tmp_path, capsys):
    args = ("global", "h", "--n", "2", "--weight", "1", "--order", "1",
            "--output", "json", "--cache-dir", str(tmp_path))
    code, cold, _ = run_cli(capsys, *args)
    assert code == 0
    assert list(tmp_path.glob("*.json"))
    code, warm, _ = run_cli(capsys, *args)
    assert warm == cold
    code, nocache, _ = run_cli(capsys, *args[:-2], "--no-cache")
    assert nocache == cold


def test_cache_corruption_recovers(tmp_path, capsys):
    args = ("laumon", "limit", "--n", "2", "--order", "1",
            "--output", "json", "--cache-dir", str(tmp_path))
    _, cold, _ = run_cli(capsys, *args)
    entry = next(tmp_path.glob("*.json"))
    entry.write_text(entry.read_text().replace('"coef":"1"', '"coef":"2"', 1))
    _, healed, _ = run_cli(capsys, *args)
    assert healed == cold


def test_checks_listing(capsys):
    code, out, _ = run_cli(capsys, "checks")
    assert code == 0
    assert "tableau-oracle" in out


def test_report_invariants():
    from maclab.reports import Status, VerificationReport

    with pytest.raises(ValueError):
        VerificationReport("x", {}, Status.FAILED, witnesses=[])
    r = VerificationReport("x", {"n": 2}, Status.PASSED, wall_time=1.0)
    assert "wall" not in r.canonical_json()
    assert json.loads(r.canonical_json())["parameters"] == {"n": 2}


def test_reports_built_without_witnesses_do_not_share_a_list():
    from maclab.reports import Status, VerificationReport

    a = VerificationReport("x", {}, Status.PASSED)
    b = VerificationReport("x", {}, Status.PASSED)
    a.witnesses.append({"k": 1})
    assert a.witnesses == [{"k": 1}] and b.witnesses == []


def _invoked(argv) -> str:
    """The command that ``argv`` invokes, which names its refusals: the
    subcommand too under ``laumon`` and ``global``."""
    return " ".join(("maclab",) + argv[:2 if argv[0] in ("laumon", "global") else 1])


@pytest.mark.parametrize("argv", [
    ("macdonald", "--n", "2", "--lambda", "1,1,1"),
    ("macdonald", "--n", "2", "--lambda", "1,2"),
    ("macdonald", "--n", "2", "--lambda", "2,-1", "--oracle"),
    ("baker", "--n", "2", "--truncation", "1", "--specialize", "1,1,1"),
    ("baker", "--n", "3", "--truncation", "1", "--specialize", "0,1"),
    ("global", "h", "--n", "3", "--weight", "1,0", "--order", "1", "--alpha-max", "0"),
    ("global", "h", "--n", "2", "--weight", "1", "--order", "2", "--alpha-max", "1"),
    ("global", "h", "--n", "3", "--weight", "1,0,0", "--order", "1"),
    ("global", "verify", "chibq", "--order", "-1"),
    ("laumon", "j", "--n", "0", "--degree", "1"),
    ("laumon", "limit", "--n", "2", "--order", "-1"),
    ("baker", "--n", "2", "--truncation", "-1"),
    ("laumon", "j", "--n", "2", "--degree", "-1"),
    ("verify", "termination", "--max-n", "0"),
    ("verify", "eigen", "--max-n", "0"),
    ("verify", "tableau-oracle", "--max-size", "-1"),
    ("verify", "cn", "--max-entry", "-1"),
    ("verify", "hp", "--max-weight-sum", "-1"),
    ("verify", "weyl", "--rank", "0"),
    ("global", "verify", "hp", "--max-n", "0"),
    ("laumon", "verify", "ansum", "--rank", "0"),
    ("verify", "cordiff", "--n", "7"),
    ("global", "verify", "h0", "--max-weight-sum", "3"),
    ("laumon", "verify", "dai-ichi", "--degree", "3"),
    ("laumon", "verify", "ansum", "--n", "2"),
])
def test_invalid_partition_is_a_one_line_error(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"{_invoked(argv)}: error: argument --")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, unknown", [
    (("global", "verify", "weyl", "--n", "--output", "json"), "--n"),
    (("verify", "cn", "--max-e", "1"), "--max-e 1"),
])
def test_an_abbreviated_flag_is_refused(tmp_path, capsys, argv, unknown):
    # with abbreviations allowed, --n read as --no-cache and --max-e as
    # --max-entry, and both runs exited 0; argparse's refusal is reported
    # as maclab's own range errors are, one line in the name of the
    # command invoked and exit 2
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"{_invoked(argv)}: error: unrecognized arguments: {unknown}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, error", [
    (("macdonald", "--n", "2"), "maclab macdonald: error: the following arguments "
                                "are required: --lambda"),
    (("verify", "no-such-check"), "maclab verify: error: argument check: invalid choice"),
    (("laumon",), "maclab laumon: error: the following arguments are required: subcommand"),
    # one command, one prefix, whichever kind of refusal
    (("laumon", "verify", "shir", "--bogus"),
     "maclab laumon verify: error: unrecognized arguments: --bogus"),
    (("laumon", "verify", "shir", "--degree", "-1"),
     "maclab laumon verify: error: argument --degree: -1, must be at least 0"),
    (("laumon", "verify", "no-such-check"),
     "maclab laumon verify: error: argument check: invalid choice"),
])
def test_a_refused_argument_is_a_one_line_error(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(error)
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_still_exit_zero(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(("usage: maclab", "maclab "))


def test_trailing_zeros_still_make_a_partition(tmp_path, capsys):
    code, out, err = run_cli(capsys, "macdonald", "--n", "2", "--lambda", "2,1,0",
                             "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == "m[2, 1]: 1\n"
