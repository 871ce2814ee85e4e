"""The conecert command line."""

from __future__ import annotations

import json

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
