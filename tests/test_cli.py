"""CLI behavior: exit codes, determinism, file outputs."""

import json
from fractions import Fraction

import pytest

import byzsim.cli as cli
from byzsim.adversary import silent
from byzsim.core import Configuration
from byzsim.simnet import Scenario


@pytest.fixture
def scenario_file(tmp_path):
    sc = Scenario(n=6, mode="nonauth", alpha=Fraction(3, 5),
                  config=Configuration(6, frozenset({6}),
                                       {i: i % 2 for i in range(1, 6)}),
                  prediction=frozenset(range(1, 6)), adversary=silent(),
                  seed=0, protocol="pred_ba")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(sc.to_json()))
    return path


def test_simulate_to_stdout(scenario_file, capsys):
    assert cli.main(["simulate", "--scenario", str(scenario_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"]["agreement"] is True
    assert doc["outcome"]["termination"] is True
    assert set(doc["outcome"]["decisions"]) == {"1", "2", "3", "4", "5"}
    assert doc["scenario"]["n"] == 6


def test_simulate_is_byte_deterministic(scenario_file, tmp_path):
    outs, trs = [], []
    for rep in ("a", "b"):
        out = tmp_path / f"out_{rep}.json"
        tr = tmp_path / f"tr_{rep}.json"
        rc = cli.main(["simulate", "--scenario", str(scenario_file),
                       "--out", str(out), "--transcripts", str(tr)])
        assert rc == 0
        outs.append(out.read_bytes())
        trs.append(tr.read_bytes())
    assert outs[0] == outs[1]
    assert trs[0] == trs[1]
    doc = json.loads(trs[0])
    assert len(doc["transcripts"]) == 5  # honest nodes only


def test_simulate_seed_override(scenario_file, capsys):
    assert cli.main(["simulate", "--scenario", str(scenario_file),
                     "--seed", "9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"]["seed"] == 9


def test_simulate_missing_file_is_usage_error(tmp_path, capsys):
    rc = cli.main(["simulate", "--scenario", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "byzsim: error:" in capsys.readouterr().err


# Each entry patches a valid scenario file. Only the first fault shows in
# Scenario.from_json; the others show when the engine builds the run.
_MALFORMED = {
    "schema_version": {"schema_version": 99},
    "adversary": {"adversary": {"name": "bogus", "params": {}}},
    "auth_phase_king": {"mode": "auth", "protocol": "phase_king", "prediction": None},
    "negative_t": {"protocol": "phase_king", "prediction": None, "params": {"t": -1}},
    "prediction_id": {"prediction": {"global": [1, 2, 99]}},
    "split_brain_side": {"adversary": {"name": "split_brain", "params": {
        "a": [1, 6], "b": [2, 3], "value_a": 0, "value_b": 1, "pred": None}}},
    "crash_without_round": {"adversary": {"name": "crash_after", "params": {}}},
    "replay_without_input": {"adversary": {"name": "replay_honest", "params": {}}},
    "split_brain_without_a": {"adversary": {"name": "split_brain", "params": {
        "b": [2, 3], "value_a": 0, "value_b": 1}}},
    "persona_member": {"adversary": {"name": "persona_network", "params": {
        "groups": {"w": {"6": {}}}}}},
    "string_t": {"protocol": "phase_king", "prediction": None, "params": {"t": "1"}},
    "int_participants": {"protocol": "phase_king", "prediction": None,
                         "params": {"participants": 5}},
}


@pytest.mark.parametrize("patch", _MALFORMED.values(), ids=list(_MALFORMED))
def test_simulate_malformed_scenario_is_usage_error(scenario_file, patch, capsys):
    doc = json.loads(scenario_file.read_text())
    doc.update(patch)
    scenario_file.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--scenario", str(scenario_file)]) == 2
    assert "byzsim: error:" in capsys.readouterr().err


def test_sweep_is_byte_deterministic(tmp_path):
    args = ["sweep", "--mode", "nonauth", "--alpha", "3/5", "--n", "10",
            "--eta-range", "0:2", "--trials", "2", "--seed", "7"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("mode,alpha,n,eta,theory_s")
    assert len(lines) == 4


def test_sweep_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--mode", "nonauth", "--alpha", "3/5", "--n", "10"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["curves", "--mode", "auth", "--alpha", "4/5", "--n", "0"],
    ["sweep", "--mode", "auth", "--alpha", "4/5", "--n", "0", "--seed", "0"],
    ["verify", "--suite", "consistency", "--seed", "0", "--mode", "auth",
     "--alpha", "4/5", "--n", "0"],
    ["sweep", "--mode", "nonauth", "--alpha", "4/5", "--n", "10", "--seed", "0",
     "--trials", "-3", "--eta-range", "0:1"],
    ["verify", "--suite", "local", "--seed", "0", "--trials", "-1"],
], ids=["curves_n", "sweep_n", "verify_n", "sweep_trials", "verify_trials"])
def test_counts_below_one_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "want an integer >= 1" in capsys.readouterr().err


def test_sweep_rejects_bad_eta_range(capsys):
    rc = cli.main(["sweep", "--mode", "nonauth", "--alpha", "3/5", "--n", "10",
                   "--eta-range", "5:2", "--seed", "0"])
    assert rc == 2


def test_sweep_rejects_unknown_adversary(capsys):
    rc = cli.main(["sweep", "--mode", "nonauth", "--alpha", "3/5", "--n", "10",
                   "--eta-range", "0:1", "--adversaries", "gremlin",
                   "--seed", "0"])
    assert rc == 2


def test_curves_stdout_and_file_match(tmp_path, capsys):
    assert cli.main(["curves", "--mode", "auth", "--alpha", "0.8",
                     "--n", "30"]) == 0
    stdout_text = capsys.readouterr().out
    path = tmp_path / "curves.csv"
    assert cli.main(["curves", "--mode", "auth", "--alpha", "4/5",
                     "--n", "30", "--out", str(path)]) == 0
    assert path.read_text() == stdout_text
    rows = stdout_text.splitlines()
    assert rows[12 + 1].startswith("auth,4/5,30,12,11,18")


def test_curves_rejects_bad_alpha(capsys):
    assert cli.main(["curves", "--mode", "auth", "--alpha", "0.3",
                     "--n", "30"]) == 2


def test_verify_small_suite(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = cli.main(["verify", "--suite", "consistency", "--seed", "0",
                   "--mode", "nonauth", "--alpha", "3/5", "--n", "10",
                   "--trials", "2", "--out", str(report_path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["suite"] == "consistency"
    saved = json.loads(report_path.read_text())
    assert saved["trials"] == doc["trials"]


def test_verify_failure_exits_one(monkeypatch, capsys):
    monkeypatch.setitem(cli.VERIFY_SUITES, "consistency",
                        lambda **kw: {"ok": False, "suite": "consistency"})
    rc = cli.main(["verify", "--suite", "consistency", "--seed", "0"])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_verify_cell_flags_must_come_together(capsys):
    rc = cli.main(["verify", "--suite", "consistency", "--seed", "0",
                   "--mode", "nonauth"])
    assert rc == 2


def test_verify_rejects_cell_flags_for_impossibility(capsys):
    rc = cli.main(["verify", "--suite", "impossibility", "--seed", "0",
                   "--mode", "nonauth", "--alpha", "3/5", "--n", "10"])
    assert rc == 2


def test_internal_error_exits_one(monkeypatch, capsys):
    def boom(**kw):
        raise RuntimeError("wires crossed")

    monkeypatch.setitem(cli.VERIFY_SUITES, "protocols", boom)
    rc = cli.main(["verify", "--suite", "protocols", "--seed", "0"])
    assert rc == 1
    assert "byzsim: internal error:" in capsys.readouterr().err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
