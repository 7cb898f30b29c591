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


def test_baker_specialize(capsys):
    code, out, _ = run_cli(capsys, "baker", "--n", "2", "--truncation", "1",
                           "--specialize", "1,0", "--output", "json", "--no-cache")
    assert code == 0
    obj = json.loads(out)
    assert obj["m_expansion"][0]["partition"] == [1]


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
