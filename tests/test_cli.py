"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_list_apps(capsys):
    code, out = run_cli(capsys, "list-apps")
    assert code == 0
    assert "specjbb2000" in out
    assert "swim" in out
    assert out.count("\n") >= 12


def test_describe(capsys):
    code, out = run_cli(capsys, "describe", "-n", "32")
    assert code == 0
    assert "32 single-issue cores" in out
    assert "2D grid" in out


def test_run_small(capsys):
    code, out = run_cli(capsys, "run", "barnes", "-n", "4", "--scale", "0.1")
    assert code == 0
    assert "barnes @ 4 CPUs" in out
    assert "cycles" in out
    assert "breakdown" in out
    assert "B/instr" in out


def test_run_with_tape(capsys):
    code, out = run_cli(
        capsys, "run", "cluster_ga", "-n", "4", "--scale", "0.1", "--tape"
    )
    assert code == 0
    assert "TAPE report" in out


def test_run_token_backend(capsys):
    code, out = run_cli(
        capsys, "run", "barnes", "-n", "4", "--scale", "0.1",
        "--backend", "token",
    )
    assert code == 0
    assert "token commit" in out


def test_scaling(capsys):
    code, out = run_cli(
        capsys, "scaling", "barnes", "--counts", "1,4", "--scale", "0.1"
    )
    assert code == 0
    assert "barnes@1" in out
    assert "barnes@4" in out
    assert "speedup" in out


def test_latency(capsys):
    code, out = run_cli(
        capsys, "latency", "equake", "-n", "4", "--scale", "0.1",
        "--hops", "1,6",
    )
    assert code == 0
    assert "1 cy/hop" in out
    assert "6 cy/hop" in out
    assert "slowdown" in out


def test_traffic(capsys):
    code, out = run_cli(capsys, "traffic", "swim", "-n", "4", "--scale", "0.1")
    assert code == 0
    assert "B/instr" in out


def test_unknown_app_exits_with_message(capsys):
    with pytest.raises(SystemExit, match="unknown application"):
        main(["run", "doom"])


def test_bad_count_list_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["scaling", "barnes", "--counts", "1,x"])


def test_conform_patterns_small_campaign(capsys):
    code, out = run_cli(capsys, "conform", "--source", "patterns",
                        "--faults", "--cases", "3", "--seed", "200")
    assert code == 0
    assert "conform patterns: 3/3 passed" in out
    assert "faults injected:" in out
    assert "oracle agreement" in out


def test_conform_patterns_verbose_lists_cases(capsys):
    code, out = run_cli(capsys, "conform", "--source", "patterns",
                        "--cases", "2", "--verbose")
    assert code == 0
    assert out.count("ok   seed=") == 2


def test_conform_patterns_writes_json_report(capsys, tmp_path):
    out_file = tmp_path / "patterns.json"
    code, out = run_cli(capsys, "conform", "--source", "patterns",
                        "--faults", "--cases", "2", "--out", str(out_file))
    assert code == 0
    import json

    report = json.loads(out_file.read_text())
    assert (report["source"], report["faults"]) == ("patterns", True)
    assert report["cases"] == 2
    assert report["failed"] == 0
    assert report["fault_totals"]["packets_seen"] > 0


def test_conform_rejects_unknown_source(capsys):
    with pytest.raises(SystemExit):
        main(["conform", "--source", "apps"])
    assert "invalid choice" in capsys.readouterr().err


def test_chaos_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit):
        main(["chaos", "--quick"])
    assert "invalid choice" in capsys.readouterr().err


def test_conform_small_campaign(capsys):
    code, out = run_cli(capsys, "conform", "--cases", "3", "--seed", "100")
    assert code == 0
    assert "3/3 passed" in out
    assert "fault-free" in out
    assert "oracle agreement" in out
    assert "fingerprint:" in out


def test_conform_faults_mode(capsys):
    code, out = run_cli(capsys, "conform", "--cases", "2", "--faults")
    assert code == 0
    assert "2/2 passed" in out
    assert "(faults," in out


def test_conform_verbose_lists_cases(capsys):
    code, out = run_cli(capsys, "conform", "--cases", "2", "--verbose")
    assert code == 0
    assert out.count("ok   seed=") == 2


def test_conform_writes_json_report(capsys, tmp_path):
    out_file = tmp_path / "conform.json"
    code, out = run_cli(capsys, "conform", "--cases", "2",
                        "--out", str(out_file))
    assert code == 0
    import json

    report = json.loads(out_file.read_text())
    assert report["cases"] == 2
    assert report["failed"] == 0
    assert len(report["fingerprint"]) == 64


def test_conform_rejects_bad_case_count(capsys):
    with pytest.raises(SystemExit, match="cases"):
        main(["conform", "--cases", "0"])


def test_conform_patterns_rejects_bad_case_count(capsys):
    with pytest.raises(SystemExit, match="cases"):
        main(["conform", "--source", "patterns", "--cases", "0"])


def test_bad_config_exits_nonzero_with_one_line_error(capsys):
    code = main(["run", "barnes", "-n", "-3"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error: ValueError: need at least one processor" in captured.err
    assert "--debug" in captured.err
    assert "Traceback" not in captured.err


def test_debug_flag_reraises(capsys):
    with pytest.raises(ValueError, match="at least one processor"):
        main(["--debug", "run", "barnes", "-n", "-3"])
