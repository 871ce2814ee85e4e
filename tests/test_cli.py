"""The conecert command line."""

from __future__ import annotations

import json

import pytest

from conecert import cli
from conecert.prover import check_homoclinic


def test_prove_not_proved_exits_one(tmp_path, capsys, monkeypatch):
    # c_v = 2.9 fails the vertical expanding cone condition on every
    # launch, so the run ends NOT_PROVED within seconds
    reports = []

    def recorded(cfg):
        reports.append(check_homoclinic(cfg))
        return reports[-1]

    monkeypatch.setattr(cli, "check_homoclinic", recorded)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"c_v": 2.9, "fragments": 1}))
    out = tmp_path / "report.json"
    code = cli.main(["prove", "--config", str(config), "--json", str(out)])
    assert code == 1
    (report,) = reports
    assert report.verdict == "NOT_PROVED"
    assert report.config.c_v == 2.9 and report.config.fragments == 1
    assert out.read_text() == report.json_str()
    assert capsys.readouterr().out.strip() == report.render_text()


@pytest.mark.parametrize(
    "text",
    [None, "{c_v: 2.9", "[1, 2]", '{"threads": 2}', '{"h_max": 0.1}',
     '{"fragments": 2.5}', '{"alpha_h": "x"}'],
    ids=["missing", "not-json", "not-object", "unknown-key",
         "integrator-key", "float-count", "bad-value"],
)
def test_prove_bad_config_is_a_usage_error(tmp_path, capsys, monkeypatch, text):
    # the config is checked before any stage runs, and reported in one
    # line instead of a traceback
    def never(cfg):
        raise AssertionError("check_homoclinic ran on a bad config")

    monkeypatch.setattr(cli, "check_homoclinic", never)
    config = tmp_path / "config.json"
    if text is not None:
        config.write_text(text)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["prove", "--config", str(config)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("conecert prove: error: --config ")
    assert "Traceback" not in "\n".join(err)


class _StubReport:
    proved = True

    def render_text(self) -> str:
        return "verdict: PROVED"

    def json_str(self) -> str:
        return "{}"


def test_prove_json_in_missing_directory_is_a_usage_error(
    tmp_path, capsys, monkeypatch
):
    # the --json directory is checked before any stage runs
    def never(cfg):
        raise AssertionError("check_homoclinic ran with an unwritable --json")

    monkeypatch.setattr(cli, "check_homoclinic", never)
    out = tmp_path / "missing" / "report.json"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["prove", "--json", str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("conecert prove: error: --json ")
    assert "Traceback" not in "\n".join(err)


def test_prove_json_write_failure_is_one_line(tmp_path, capsys, monkeypatch):
    # a path that is a directory passes the check but cannot be written:
    # the report is printed, then one line on stderr and exit 2
    monkeypatch.setattr(cli, "check_homoclinic", lambda cfg: _StubReport())
    out = tmp_path / "report.json"
    out.mkdir()
    code = cli.main(["prove", "--json", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out.strip() == "verdict: PROVED"
    (line,) = captured.err.strip().splitlines()
    assert line.startswith(f"conecert prove: error: --json {out}: ")
