"""CLI behavior: exit codes, determinism, file outputs."""

import contextlib
import copy
import csv
import functools
import hashlib
import io
import json
import operator
import os
import re
import stat
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import byzsim.cli as cli
import byzsim.protocols as protocols
from byzsim.adversary import (
    crash_after,
    persona_network,
    random_noise,
    replay_honest,
    silent,
    split_brain,
)
from byzsim.core import Configuration
from byzsim.harness import (
    IMPOSSIBILITY_POINTS,
    adversary_set_hash,
    curves_to_csv,
    library_names,
    verify_protocols,
)
from byzsim.simnet import (
    SCHEMA_VERSION,
    AdversaryStrategy,
    RoundLog,
    Scenario,
    Transcript,
    run_simulation,
)


@pytest.fixture
def scenario_file(tmp_path):
    sc = Scenario(alpha=Fraction(3, 5),
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


@pytest.mark.parametrize("adversary,params,honest_input", [
    (split_brain(((2,), (3, 4)), 1, 0), {"t": 1}, 1),
    (replay_honest(1), {"t": 1, "sender": 1}, 0),
], ids=["equivocates", "replays"])
def test_simulate_broadcast_from_a_faulty_sender_is_valid(adversary, params, honest_input,
                                                           tmp_path, capsys):
    # Validity asks nothing of a signed broadcast whose sender (by default
    # node 1) is faulty, even when the honest inputs are unanimous and the
    # honest nodes agree on the other value.
    inputs = dict.fromkeys((2, 3, 4), honest_input)
    sc = Scenario(alpha=Fraction(3, 4), config=Configuration(4, frozenset({1}), inputs),
                  prediction=None, adversary=adversary, seed=0,
                  protocol="dolev_strong_broadcast", params=params)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(sc.to_json()))
    assert cli.main(["simulate", "--scenario", str(path)]) == 0
    outcome = json.loads(capsys.readouterr().out)["outcome"]
    assert set(outcome["decisions"].values()) == {1 - honest_input}
    assert outcome["agreement"] and outcome["termination"]
    assert outcome["validity"] is True


def test_simulate_seed_override(scenario_file, capsys):
    assert cli.main(["simulate", "--scenario", str(scenario_file),
                     "--seed", "9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"]["seed"] == 9


def test_simulate_missing_file_is_usage_error(tmp_path, capsys):
    rc = cli.main(["simulate", "--scenario", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "byzsim: error:" in capsys.readouterr().err


@pytest.mark.parametrize(("text", "message"), [
    ("{not json", "scenario file is not valid JSON"),
    ("[1, 2]", "invalid scenario: the file must hold a JSON object"),
], ids=["not_json", "array"])
def test_simulate_file_that_is_no_json_object_is_usage_error(tmp_path, text, message,
                                                            capsys):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert cli.main(["simulate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"byzsim: error: {message}")


# Fraction would build a 10**exponent integer for these before any range check.
_HUGE_EXPONENTS = ["1e1000000", "1e-1000000", "1e" + "9" * 5000]


@pytest.mark.parametrize("alpha", _HUGE_EXPONENTS, ids=["large", "small", "long"])
def test_alpha_with_an_exponent_longer_than_its_text_is_usage_error(scenario_file, alpha,
                                                                    capsys):
    assert cli.main(["curves", "--mode", "auth", "--alpha", alpha, "--n", "4"]) == 2
    # The text is quoted once, however long it is.
    assert capsys.readouterr().err == (
        f"byzsim: error: alpha must be a finite fraction, got {alpha!r}\n")
    doc = json.loads(scenario_file.read_text())
    doc["alpha"] = alpha
    scenario_file.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--scenario", str(scenario_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("byzsim: error: invalid scenario: ValueError: "
                          "alpha must be a finite fraction")


def _persona_with_rules(**rules):
    return {"name": "persona_network", "params": {
        "groups": {"w": {"6": {"input": 0, "pred": None}}}, **rules}}


def _persona_with_cutoff(cutoff):
    return _persona_with_rules(
        emission=[{"group": "w", "senders": None, "receivers": [1, 2, 3, 4, 5]}],
        cutoff=cutoff)


# Each entry patches a valid scenario file. Faults in the document's fields,
# such as a bad schema_version or a protocol in the wrong mode
# (auth_phase_king), show in Scenario.from_json; the others show when the
# engine builds the run.
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
    "infinite_n": {"n": float("inf")},
    "infinite_input": {"inputs": {"1": float("inf")}},
    "list_inputs": {"inputs": [0, 1]},
    "zero_denominator_alpha": {"alpha": "1/0"},
    "infinite_alpha": {"alpha": float("inf")},
    "list_adversary": {"adversary": ["silent"]},
    "list_adversary_params": {"adversary": {"name": "random_noise", "params": [1]}},
    "infinite_noise_seed": {"adversary": {"name": "random_noise",
                                          "params": {"seed": float("inf")}}},
    "infinite_crash_round": {"adversary": {"name": "crash_after",
                                           "params": {"round": float("inf")}}},
    "list_persona_groups": {"adversary": {"name": "persona_network",
                                          "params": {"groups": [1]}}},
    "auth_persona_for_honest_id": {
        "mode": "auth", "protocol": "auth_pred_ba",
        "adversary": {"name": "persona_network", "params": {
            "groups": {"w": {"1": {"input": 0, "pred": None}}}}}},
    "emission_sender_without_instance": {"adversary": {
        "name": "persona_network", "params": {
            "groups": {"w": {"6": {"input": 0, "pred": None}}},
            "emission": [{"group": "x", "senders": [6], "receivers": [1]}]}}},
    "persona_input_not_a_bit": {"adversary": {"name": "replay_honest",
                                              "params": {"input": 2}}},
    "string_cutoff": {"adversary": _persona_with_cutoff("3")},
    "list_cutoff": {"adversary": _persona_with_cutoff([3])},
    "fractional_cutoff": {"adversary": _persona_with_cutoff(2.5)},
    "fractional_seed": {"seed": 2.5},
    **{f"{name}_sender": {"mode": "auth", "protocol": "dolev_strong_broadcast",
                          "prediction": None, "params": {"sender": sender}}
       for name, sender in (("list", [1]), ("object", {}), ("string", "1"),
                            ("fractional", 1.5), ("zero", 0))},
    "fractional_participant": {"mode": "auth", "protocol": "dolev_strong_broadcast",
                               "prediction": None,
                               "params": {"participants": [1, 2, 3, 4.5]}},
    **{f"{name}_adversary": {"adversary": adversary}
       for name, adversary in (("empty_list", []), ("empty_object", {}), ("zero", 0),
                               ("false", False), ("empty_string", ""))},
    "negative_crash_round": {"adversary": {"name": "crash_after", "params": {"round": -1}}},
    "overlapping_split_brain_sides": {"adversary": {"name": "split_brain", "params": {
        "a": [1, 2], "b": [2, 3], "value_a": 0, "value_b": 1, "pred": None}}},
    "persona_member_outside_n": {"adversary": {"name": "persona_network", "params": {
        "groups": {"w": {"9": {"input": 0, "pred": None}}}}}},
    # Node ids are JSON integers in 1..n, and true is no integer.
    "true_faulty_id": {"faulty": [True], "inputs": {str(i): i % 2 for i in range(2, 7)}},
    "true_prediction_id": {"prediction": {"global": [True, 2, 3, 4, 5]}},
    **{f"{name}_participants": {"protocol": "phase_king", "prediction": None,
                                "params": {"participants": participants}}
       for name, participants in (("false", False), ("zero", 0), ("empty_string", ""),
                                  ("empty_object", {}))},
    "empty_participants": {"mode": "auth", "protocol": "dolev_strong_broadcast",
                           "prediction": None, "params": {"participants": []}},
    "emission_receiver_outside_n": {"adversary": {"name": "persona_network", "params": {
        "groups": {"w": {"6": {"input": 0, "pred": None}}},
        "emission": [{"group": "w", "senders": None, "receivers": [99]}]}}},
    "true_seed": {"seed": True},
    "true_replay_input": {"adversary": {"name": "replay_honest", "params": {"input": True}}},
    # A params key the protocol does not read.
    "wrapper_params": {"params": {"bogus": 1}},
    "phase_king_sender": {"protocol": "phase_king", "prediction": None,
                          "params": {"sender": 1}},
    # Persona predictions, partition sides and feed senders are node ids.
    "true_replay_pred": {"adversary": {"name": "replay_honest", "params": {
        "input": 1, "pred": [True, 2, 3]}}},
    "true_split_brain_pred": {"adversary": {"name": "split_brain", "params": {
        "a": [1, 2], "b": [3, 4], "value_a": 0, "value_b": 1, "pred": [True, 2, 3]}}},
    "true_persona_pred": {"adversary": {"name": "persona_network", "params": {
        "groups": {"w": {"6": {"input": 0, "pred": [True, 2, 3]}}}}}},
    "true_split_brain_side": {"adversary": {"name": "split_brain", "params": {
        "a": [True, 2], "b": [3, 4], "value_a": 0, "value_b": 1, "pred": None}}},
    "feed_sender_not_an_id": {"adversary": {"name": "persona_network", "params": {
        "groups": {"w": {"6": {"input": 0, "pred": None}}},
        "feed_overrides": [{"group": "w", "senders": ["x", 99], "from_group": "w"}]}}},
    # An id list is a JSON array.
    **{f"{name}_faulty": {"faulty": ids, "inputs": {str(i): i % 2 for i in range(1, 7)}}
       for name, ids in (("empty_string", ""), ("empty_object", {}))},
    **{f"{name}_prediction_ids": {"prediction": {"global": ids}}
       for name, ids in (("empty_string", ""), ("empty_object", {}))},
    # An object key that names a node is the exact text of an id in 1..n.
    "underscore_input_key": {"inputs": {"0_1": 1, "2": 0, "3": 1, "4": 0, "5": 1}},
    "zero_padded_input_key": {"inputs": {"01": 1, "2": 0, "3": 1, "4": 0, "5": 1}},
    "space_local_prediction_key": {"prediction": {"local": {
        " 1": [1, 2, 3], "2": [1, 2, 3], "3": [1, 2, 3], "4": [1, 2, 3], "5": [1, 2, 3]}}},
    "plus_crash_input_key": {"adversary": {"name": "crash_after", "params": {
        "round": 1, "inputs": {"+5": 1}}}},
    "plus_persona_member": {"adversary": {"name": "persona_network", "params": {
        "groups": {"w": {"+6": {"input": 0, "pred": None}}}}}},
    # Every group a persona rule names exists and, as a feed source, runs an
    # instance of each sender it feeds; crash inputs are for faulty ids.
    **{name: {"adversary": _persona_with_rules(**rules)} for name, rules in (
        ("feed_override_unknown_groups", {"feed_overrides": [
            {"group": "nope", "senders": [1], "from_group": "gone"}]}),
        ("feed_override_unknown_from_group", {"feed_overrides": [
            {"group": "w", "senders": [1], "from_group": "gone"}]}),
        ("feed_override_unknown_group", {"feed_overrides": [
            {"group": "gone", "senders": [6], "from_group": "w"}]}),
        ("feed_override_sender_without_instance", {"feed_overrides": [
            {"group": "w", "senders": [1], "from_group": "w"}]}),
        ("emission_unknown_group", {"emission": [
            {"group": "zz", "senders": None, "receivers": [1]}]}))},
    "emission_sender_outside_its_group": {
        "faulty": [5, 6], "inputs": {str(i): i % 2 for i in range(1, 5)},
        "adversary": _persona_with_rules(emission=[
            {"group": "w", "senders": [5], "receivers": [1]}])},
    "crash_input_for_honest_id": {"adversary": {"name": "crash_after", "params": {
        "round": 1, "inputs": {"3": 1}}}},
    # Only a missing or null value means "none", and a cutoff is a round.
    **{f"{name}_crash_inputs": {"adversary": {"name": "crash_after", "params": {
        "round": 1, "inputs": inputs}}}
       for name, inputs in (("zero", 0), ("empty_list", []))},
    "negative_cutoff": {"adversary": _persona_with_cutoff(-3)},
    # alpha is a fraction, a decimal or a number, and true is none of them.
    "true_alpha": {"alpha": True},
    # A prediction is null, {"global": ids} or {"local": {...}}.
    "global_and_local_prediction": {"prediction": {
        "global": [1, 2, 3], "local": {str(i): [1, 2, 3] for i in range(1, 6)}}},
    "extra_prediction_key": {"prediction": {"global": [1, 2, 3], "bogus": 1}},
    # params is a JSON object.
    **{f"{name}_params": {"protocol": "phase_king", "prediction": None, "params": params}
       for name, params in (("pair_list", [["t", 1]]), ("empty_list", []))},
    # Every node and the sender of a signed broadcast are participants.
    **{f"{name}_outside_broadcast_participants": {
        "mode": "auth", "protocol": "dolev_strong_broadcast", "prediction": None,
        "params": {"participants": participants, "sender": sender}}
       for name, participants, sender in (("node", [1, 2, 3], 1),
                                          ("sender", [1, 2, 3, 4, 5], 6))},
}


@pytest.mark.parametrize("patch", _MALFORMED.values(), ids=list(_MALFORMED))
def test_simulate_malformed_scenario_is_usage_error(scenario_file, patch, capsys):
    doc = json.loads(scenario_file.read_text())
    doc.update(patch)
    scenario_file.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--scenario", str(scenario_file)]) == 2
    assert "byzsim: error:" in capsys.readouterr().err


@pytest.mark.parametrize(("name", "message"), [
    ("feed_override_unknown_groups", "feed override names unknown group 'nope'"),
    ("feed_override_unknown_from_group", "feed override names unknown group 'gone'"),
    ("feed_override_unknown_group", "feed override names unknown group 'gone'"),
    ("feed_override_sender_without_instance",
     "feed override group 'w' has no instance of node 1"),
    ("emission_unknown_group", "emission rule names unknown group 'zz'"),
    ("emission_sender_outside_its_group", "group 'w' has no instance of node 5"),
    ("crash_input_for_honest_id", "crash inputs name non-faulty node 3"),
    ("negative_cutoff", "persona cutoff must be >= 0"),
    ("node_outside_broadcast_participants", "node 4 is not among the participants"),
    ("sender_outside_broadcast_participants", "sender 6 is not among the participants"),
])
def test_persona_rule_errors_say_what_is_wrong(scenario_file, capsys, name, message):
    doc = json.loads(scenario_file.read_text())
    doc.update(_MALFORMED[name])
    scenario_file.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--scenario", str(scenario_file)]) == 2
    err = capsys.readouterr().err
    assert err == f"byzsim: error: invalid scenario: ValueError: {message}\n"


def test_simulate_reads_a_number_alpha_through_its_decimal_text(scenario_file, capsys):
    outputs = []
    for alpha in ("3/5", 0.6):
        doc = json.loads(scenario_file.read_text())
        doc["alpha"] = alpha
        scenario_file.write_text(json.dumps(doc))
        assert cli.main(["simulate", "--scenario", str(scenario_file)]) == 0
        outputs.append(capsys.readouterr().out)
    assert json.loads(outputs[0])["scenario"]["alpha"] == "3/5"
    assert outputs[1] == outputs[0]


def test_simulate_echoes_whole_float_ids_as_integers(scenario_file, capsys):
    doc = json.loads(scenario_file.read_text())
    doc.update({"faulty": [6.0], "prediction": {"global": [1.0, 2, 3, 4, 5]}})
    scenario_file.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--scenario", str(scenario_file)]) == 0
    echoed = json.loads(capsys.readouterr().out)["scenario"]
    assert json.dumps([echoed["faulty"], echoed["prediction"]]) == \
        json.dumps([[6], {"global": [1, 2, 3, 4, 5]}])


@pytest.mark.parametrize("patch, same_as", [
    ({"adversary": {"name": "replay_honest", "params": {"input": 1, "pred": [1.0, 2, 3]}}},
     {"adversary": {"name": "replay_honest", "params": {"input": 1, "pred": [1, 2, 3]}}}),
    ({"protocol": "phase_king", "prediction": None, "params": {"t": 1.0}},
     {"protocol": "phase_king", "prediction": None, "params": {"t": 1}}),
], ids=["persona_pred", "budget_t"])
def test_simulate_reads_whole_float_params_as_integers(scenario_file, patch, same_as, capsys):
    doc = json.loads(scenario_file.read_text())
    outputs = []
    for variant in (patch, same_as):
        scenario_file.write_text(json.dumps({**doc, **variant}))
        assert cli.main(["simulate", "--scenario", str(scenario_file)]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0]["outcome"] == outputs[1]["outcome"]
    # Adversary and protocol params are echoed as given.
    echoed, given = outputs[0]["scenario"], {**doc, **patch}
    assert json.dumps([echoed["adversary"], echoed["params"]]) == \
        json.dumps([given["adversary"], given["params"]])


def test_simulate_bug_while_building_the_run_is_an_internal_error(scenario_file, monkeypatch,
                                                                   capsys):
    def broken(spec, scenario):
        raise AttributeError("a bug, not a bad file")

    monkeypatch.setattr(cli.adversary, "build_strategy", broken)
    assert cli.main(["simulate", "--scenario", str(scenario_file)]) == 1
    assert "byzsim: internal error: AttributeError" in capsys.readouterr().err


def test_simulate_bug_during_the_rounds_is_an_internal_error(scenario_file, monkeypatch,
                                                             capsys):
    deliver = protocols.PhaseKing.deliver

    def broken(self, rnd, inbox):
        if rnd == 2:
            raise KeyError("a bug, not a bad file")
        deliver(self, rnd, inbox)

    monkeypatch.setattr(protocols.PhaseKing, "deliver", broken)
    assert cli.main(["simulate", "--scenario", str(scenario_file)]) == 1
    assert "byzsim: internal error: KeyError" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Transcript file
# ---------------------------------------------------------------------------


def _dumps(transcripts) -> str:
    doc = {"schema_version": SCHEMA_VERSION,
           "transcripts": [t.to_json() for t in transcripts]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _small(protocol, adversary, prediction=None, n=7):
    return Scenario(alpha=Fraction(3, 5),
                    config=Configuration(n, frozenset({n - 1, n}),
                                         {i: i % 2 for i in range(1, n - 1)}),
                    prediction=prediction, adversary=adversary, seed=1,
                    protocol=protocol)


_P = frozenset({1, 2, 3, 6})
# At n = 16 a node's round holds many messages, often several with one payload.
_HALVES = split_brain((range(1, 8), range(8, 15)), 0, 1)
_WRITER_CASES = {
    "pred_ba": _small("pred_ba", random_noise(4), _P),
    "auth_pred_ba": _small("auth_pred_ba", replay_honest(1), _P),
    "phase_king": _small("phase_king", random_noise(2)),
    "dolev_strong_ba": _small("dolev_strong_ba", replay_honest(0)),
    "dolev_strong_broadcast": _small("dolev_strong_broadcast", silent()),
    "crash_after": _small("pred_ba", crash_after(1), _P),
    "dolev_strong_ba_n16": _small("dolev_strong_ba", _HALVES, n=16),
    "pred_ba_n16": _small("pred_ba", _HALVES, frozenset(range(1, 17)), n=16),
}


@pytest.mark.parametrize("sc", _WRITER_CASES.values(), ids=list(_WRITER_CASES))
def test_transcript_writer_matches_json_dumps(sc):
    _, transcripts = run_simulation(sc)
    assert transcripts and all(t.rounds for t in transcripts)
    assert "".join(cli._transcript_chunks(transcripts)) == _dumps(transcripts)


def test_transcript_writer_covers_empty_lists():
    _, transcripts = run_simulation(_WRITER_CASES["crash_after"])
    rounds = [r for t in transcripts for r in t.rounds]
    assert any(not r.sent for r in rounds) or any(not r.received for r in rounds)
    hollow = [Transcript(node=1, rounds=[]),
              Transcript(node=2, rounds=[RoundLog(round=1, sent=[], received=[])])]
    for ts in (hollow, transcripts + hollow):
        assert "".join(cli._transcript_chunks(ts)) == _dumps(ts)


def test_transcript_writer_renders_each_nodes_received_list():
    # Neighbours with unequal lists in one round, then a list equal to an
    # earlier but not the previous node's.
    heard = [[(3, '"a"')], [(3, '"b"'), (4, '"a"')], [(3, '"a"')], [(3, '"a"')]]
    ts = [Transcript(node=k, rounds=[RoundLog(round=1, sent=[((5,), '"x"')], received=r),
                                     RoundLog(round=2, sent=[], received=heard[0])])
          for k, r in enumerate(heard, start=1)]
    assert "".join(cli._transcript_chunks(ts)) == _dumps(ts)


def test_transcript_writer_with_no_honest_nodes():
    sc = Scenario(alpha=Fraction(1, 2),
                  config=Configuration(4, frozenset(range(1, 5)), {}),
                  prediction=frozenset({1, 2}), adversary=silent(), seed=0,
                  protocol="pred_ba")
    _, transcripts = run_simulation(sc)
    assert transcripts == []
    assert "".join(cli._transcript_chunks(transcripts)) == _dumps(transcripts)


class _OddPayloads(AdversaryStrategy):
    """Sends every honest id a payload whose strings need JSON escapes."""

    def emit(self, rnd, honest_messages):
        return [(6, tuple(sorted(self.ctx.honest)),
                 ("odd", 'q"uo\\te\n\t\x00', "\u00e9\u2603", rnd))]


def test_transcript_writer_escapes_payload_strings():
    _, transcripts = run_simulation(_WRITER_CASES["pred_ba"], adversary=_OddPayloads())
    logged = [pj for t in transcripts for r in t.rounds for _, pj in r.received]
    assert any('\\"' in pj and "\\u2603" in pj for pj in logged)
    assert "".join(cli._transcript_chunks(transcripts)) == _dumps(transcripts)


class _AddressedOddly:
    """Sends one message to no one and one naming id 2 twice, then decides."""

    def __init__(self, ctx):
        self.decision = None

    def outbox(self, rnd):
        return [((), ("nobody", rnd)), ([2, 1, 2], ("twice", rnd))]

    def deliver(self, rnd, inbox):
        self.decision = 0


def test_transcripts_log_each_message_once_with_its_sorted_receivers():
    # A message to no one leaves no entry; a receiver named twice is listed twice.
    sc = _small("phase_king", silent(), n=4)
    _, transcripts = run_simulation(sc, protocol=_AddressedOddly)
    assert [r.sent for t in transcripts for r in t.rounds] == [[((1, 2, 2), '["twice",1]')]] * 2
    assert len({id(to) for t in transcripts for r in t.rounds for to, _ in r.sent}) == 1
    assert transcripts[0].to_json()["rounds"][0]["sent"] == [
        {"to": to, "payload": '["twice",1]'} for to in (1, 2, 2)]
    assert "".join(cli._transcript_chunks(transcripts)) == _dumps(transcripts)


def _fresh(text):
    """An equal string in a new object."""
    return text[:1] + text[1:]


@st.composite
def _hand_built_transcripts(draw):
    payloads = draw(st.lists(st.text(max_size=6).map(json.dumps), min_size=1, max_size=4))
    ids = st.integers(1, 999)
    # Sorted receiver tuples, a receiver possibly named twice; each tuple is
    # one object shared by the entries that draw it, as in a logged round.
    tos = draw(st.lists(st.lists(ids, min_size=1, max_size=4).map(sorted).map(tuple),
                        min_size=1, max_size=3))

    def sent(prev):
        entries = []
        for j in range(draw(st.integers(0, 4))):
            how = "other"
            if j < len(prev):
                how = draw(st.sampled_from(("same", "fresh_payload", "fresh_to", "other")))
            if how == "same":
                entries.append(prev[j])
            elif how == "fresh_payload":
                entries.append((prev[j][0], _fresh(prev[j][1])))
            elif how == "fresh_to":
                entries.append((tuple(list(prev[j][0])), prev[j][1]))
            else:
                entries.append((draw(st.sampled_from(tos)), draw(st.sampled_from(payloads))))
        return entries

    def received(prev):
        how = draw(st.sampled_from(("same", "equal", "other"))) if prev is not None else "other"
        if how == "same":
            return prev
        if how == "equal":
            return [(s, _fresh(pj)) for s, pj in prev]
        return draw(st.lists(st.tuples(ids, st.sampled_from(payloads)), max_size=4))

    # round -> the previous node's sent and received lists
    last_sent, last, transcripts = {}, {}, []
    for node in draw(st.lists(ids, max_size=4)):
        rounds = []
        for rnd in range(1, draw(st.integers(0, 3)) + 1):
            last_sent[rnd] = sent(last_sent.get(rnd, []))
            last[rnd] = received(last.get(rnd))
            rounds.append(RoundLog(round=rnd, sent=last_sent[rnd], received=last[rnd]))
        transcripts.append(Transcript(node=node, rounds=rounds))
    return transcripts


@settings(max_examples=120, deadline=None, derandomize=True)
@given(ts=_hand_built_transcripts())
def test_transcript_writer_matches_json_dumps_on_hand_built_transcripts(ts):
    assert "".join(cli._transcript_chunks(ts)) == _dumps(ts)


def _pinned_scenarios():
    """One nonauth split_brain and one auth replay_honest wrapper run at
    n = 12, and one run of each bare protocol at n = 7."""
    ids = range(1, 13)
    faulty = frozenset({3, 7, 11})
    honest = [i for i in ids if i not in faulty]
    brain = Scenario(alpha=Fraction(2, 5),
                     config=Configuration(12, faulty, {i: i % 2 for i in honest}),
                     prediction=frozenset(ids),
                     adversary=split_brain((honest[:4], honest[4:]), 0, 1),
                     seed=5, protocol="pred_ba")
    faulty = frozenset({2, 5, 9, 12})
    replay = Scenario(alpha=Fraction(3, 5),
                      config=Configuration(12, faulty,
                                           {i: 0 for i in ids if i not in faulty}),
                      prediction=frozenset(ids), adversary=replay_honest(1),
                      seed=5, protocol="auth_pred_ba")

    def bare(protocol, alpha, faulty, inputs, adversary, **params):
        honest = [i for i in range(1, 8) if i not in faulty]
        return Scenario(alpha=alpha, config=Configuration(7, frozenset(faulty),
                                                          dict(zip(honest, inputs))),
                        prediction=None, adversary=adversary, seed=5,
                        protocol=protocol, params=params)

    return {
        "split_brain": brain,
        "replay_honest": replay,
        "phase_king_noise": bare("phase_king", Fraction(2, 3), {1, 5}, (0, 1, 1, 0, 1),
                                 random_noise(3), t=2),
        "dolev_strong_ba_replay": bare("dolev_strong_ba", Fraction(3, 4), {6, 7},
                                       (1, 0, 1, 0, 0), replay_honest(1), t=2),
        "dolev_strong_broadcast_honest": bare(
            "dolev_strong_broadcast", Fraction(3, 4), {5, 7}, (1,) * 5, random_noise(3),
            t=2, sender=1),
    }


def _simulate_digests(name, tmp_path) -> tuple:
    """sha256 of the (outcome, transcript) files simulate writes for a
    pinned scenario."""
    path, out, tr = (tmp_path / f for f in ("sc.json", "out.json", "tr.json"))
    path.write_text(json.dumps(_pinned_scenarios()[name].to_json()))
    assert cli.main(["simulate", "--scenario", str(path),
                     "--out", str(out), "--transcripts", str(tr)]) == 0
    return tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in (out, tr))


# The wrapper runs' digests were taken before the streaming writer, the
# bare protocols' before the one first-vote tally.
_PINNED_DIGESTS = {
    "split_brain": (
        "a801feb205d8bfdeccec3c84985689d89f14df5214dceff76ea24c680acbe812",
        "1c6a449158e3223fb8c934c4df7c055549f1f17fc3c405f916ee211c7184cbb4"),
    "replay_honest": (
        "d78663d4b42e1164ebaa16e1dd9833f18e68d94d4afe7f79fd664f9675c971c2",
        "e9d8491b92d1c3b4f9eccc7531f84da57c4eda0cf310a0a8d64f260f7e862909"),
    "phase_king_noise": (
        "267e38a63dab1f590925552e74a984e772e2908f8977e7af8afea26d98d288a8",
        "d9dbf7c06e6e7a82243baa0877418b4ddf0f75adbccd4d5945b9a1727d00bb44"),
    "dolev_strong_ba_replay": (
        "dc396e31b151d91185aa4badc91365fba0773c8f8997ec8660dc44c73d12479a",
        "5a8875a3c688916bd405df9b18e29d520eea693668d7c30b77f148917f29b892"),
    "dolev_strong_broadcast_honest": (
        "3fa80653917b13096264a4bdd1805f65976421709993ff23ecf247bbf7cddf6f",
        "d5fec20b9e8900e4d2457fb8c72392063b0453ec48b3fce98e6fd54a0f012d86"),
}


@pytest.mark.parametrize("name", list(_PINNED_DIGESTS))
def test_simulate_files_keep_their_bytes(name, tmp_path):
    assert _simulate_digests(name, tmp_path) == _PINNED_DIGESTS[name]


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


def test_sweep_rejects_eta_range_that_is_not_integers(capsys):
    rc = cli.main(["sweep", "--mode", "nonauth", "--alpha", "3/5", "--n", "10",
                   "--eta-range", "a:b", "--seed", "0"])
    assert rc == 2
    assert capsys.readouterr().err == \
        "byzsim: error: --eta-range wants 'lo:hi' or a single integer, got 'a:b'\n"


def test_sweep_rejects_unknown_adversary(capsys):
    rc = cli.main(["sweep", "--mode", "nonauth", "--alpha", "3/5", "--n", "10",
                   "--eta-range", "0:1", "--adversaries", "gremlin",
                   "--seed", "0"])
    assert rc == 2
    with pytest.raises(ValueError) as exc:  # the library's own check and text
        library_names(2, ("gremlin",))
    assert capsys.readouterr().err == f"byzsim: error: {exc.value}\n"


def test_sweep_runs_the_chosen_adversaries(capsys):
    rc = cli.main(["sweep", "--mode", "nonauth", "--alpha", "3/5", "--n", "6",
                   "--eta-range", "0:1", "--trials", "2", "--adversaries", "silent",
                   "--seed", "0"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["eta"] for r in rows] == ["0", "1"]
    assert {r["adversary_set_hash"] for r in rows} == {adversary_set_hash(["silent"])}


@pytest.mark.parametrize("names", ["", ",", " , "], ids=["empty", "comma", "blank"])
def test_sweep_adversaries_naming_none_is_usage_error(names, capsys):
    rc = cli.main(["sweep", "--mode", "nonauth", "--alpha", "3/5", "--n", "10",
                   "--eta-range", "0:1", "--adversaries", names, "--seed", "0"])
    assert rc == 2
    assert "names no adversary" in capsys.readouterr().err


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
    assert capsys.readouterr().err == (
        "byzsim: error: alpha=3/10 outside [1/2, 1] for mode 'auth'\n")


def test_verify_small_suite(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    argv = ["verify", "--suite", "consistency", "--seed", "0", "--mode", "nonauth",
            "--alpha", "3/5", "--n", "10", "--trials", "2"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["ok"] is True and doc["suite"] == "consistency"
    assert "elapsed_s" not in doc
    assert re.fullmatch(r"byzsim: consistency battery took \d+\.\d{3} s\n", err)
    # --out takes the report's place on stdout, the wall time stays on stderr.
    assert cli.main(argv + ["--out", str(report_path)]) == 0
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("byzsim: consistency battery took ")
    assert report_path.read_text() == cli._json(doc)


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


def test_verify_trials_set_the_protocol_seeds(capsys):
    rc = cli.main(["verify", "--suite", "protocols", "--seed", "0", "--trials", "1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    expected = verify_protocols(seeds=1)
    assert doc["ok"] is True
    assert (doc["trials"], doc["unique_runs"]) == (expected["trials"], expected["unique_runs"])


def test_verify_rejects_trials_for_impossibility(capsys):
    rc = cli.main(["verify", "--suite", "impossibility", "--seed", "0", "--trials", "1"])
    assert rc == 2
    assert "--trials does not apply" in capsys.readouterr().err


def test_verify_impossibility_demonstrates_every_family(capsys):
    assert cli.main(["verify", "--suite", "impossibility", "--seed", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert [f["theorem"] for f in doc["families"]] == [p[0] for p in IMPOSSIBILITY_POINTS]
    assert all(f["demonstrated"] for f in doc["families"])
    assert doc["transcripts"]["ok"] is True


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "byzsim", "curves", "--mode", "auth", "--alpha", "4/5",
         "--n", "30"], capture_output=True, text=True, cwd=tmp_path, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == curves_to_csv("auth", Fraction(4, 5), 30)


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


# ---------------------------------------------------------------------------
# Output file modes
# ---------------------------------------------------------------------------


def _mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


_OUTPUTS = {
    "simulate": (["simulate", "--scenario", "{scenario}", "--out", "{a}",
                  "--transcripts", "{b}"], ("a", "b")),
    "sweep": (["sweep", "--mode", "nonauth", "--alpha", "3/5", "--n", "6",
               "--eta-range", "0:0", "--trials", "1", "--seed", "0", "--out", "{a}"],
              ("a",)),
    "curves": (["curves", "--mode", "auth", "--alpha", "3/4", "--n", "8", "--out", "{a}"],
               ("a",)),
    "verify": (["verify", "--suite", "consistency", "--seed", "0", "--mode", "nonauth",
                "--alpha", "3/5", "--n", "6", "--trials", "1", "--out", "{a}"], ("a",)),
}


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
@pytest.mark.parametrize("command", list(_OUTPUTS))
def test_output_files_get_the_mode_open_would_give(command, umask, scenario_file,
                                                   tmp_path):
    argv, outputs = _OUTPUTS[command]
    paths = {"scenario": str(scenario_file), "a": str(tmp_path / "a.out"),
             "b": str(tmp_path / "b.out")}
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        assert cli.main([arg.format(**paths) for arg in argv]) == 0
    finally:
        os.umask(old)
    for key in outputs:
        assert _mode(paths[key]) == _mode(tmp_path / "plain")


def _never(*args, **kwargs):
    raise AssertionError("the work ran although an output cannot be written")


# Patches each command's work to fail if it runs: every output is opened first.
_WORK = {
    "simulate": lambda patch: patch.setattr(cli, "run_simulation", _never),
    "sweep": lambda patch: patch.setattr(cli, "sweep", _never),
    "curves": lambda patch: patch.setattr(cli, "curves_to_csv", _never),
    "verify": lambda patch: patch.setitem(cli.VERIFY_SUITES, "consistency", _never),
}


@pytest.mark.parametrize("unwritable", ["missing directory", "directory", "fifo"])
@pytest.mark.parametrize("command,key", [(command, key) for command, (_, keys)
                                         in _OUTPUTS.items() for key in keys])
def test_unwritable_output_is_a_usage_error(command, key, unwritable, scenario_file,
                                            tmp_path, monkeypatch, capsys):
    argv, outputs = _OUTPUTS[command]
    _WORK[command](monkeypatch)
    bad = tmp_path / ("missing/x.out" if unwritable == "missing directory" else "x.out")
    if unwritable == "directory":
        bad.mkdir()
    elif unwritable == "fifo":
        os.mkfifo(bad)  # a rename would put a regular file in its place
    paths = {"scenario": str(scenario_file), "a": str(tmp_path / "a.out"),
             "b": str(tmp_path / "b.out"), key: str(bad)}
    assert cli.main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith(f"byzsim: error: cannot write {bad}: ")
    assert not list(tmp_path.rglob(".byzsim-tmp-*"))
    assert not [k for k in outputs if k != key and os.path.exists(paths[k])]
    if unwritable == "fifo":
        assert stat.S_ISFIFO(os.lstat(bad).st_mode)


def test_empty_transcripts_path_is_a_usage_error_before_the_run(scenario_file, monkeypatch,
                                                                capsys):
    monkeypatch.setattr(cli, "run_simulation", _never)
    assert cli.main(["simulate", "--scenario", str(scenario_file), "--transcripts", ""]) == 2
    assert capsys.readouterr() == ("", "byzsim: error: cannot write : No such file or directory\n")


@pytest.mark.parametrize("spelling", ["x.json", "./x.json"])
def test_out_and_transcripts_naming_one_file_is_a_usage_error_before_the_run(
        spelling, scenario_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_simulation", _never)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "--scenario", str(scenario_file),
                     "--out", "x.json", "--transcripts", spelling]) == 2
    assert capsys.readouterr() == (
        "", f"byzsim: error: --out and --transcripts name one file: {spelling}\n")
    assert [p.name for p in tmp_path.iterdir()] == [scenario_file.name]


@pytest.mark.parametrize("command", list(_OUTPUTS))
def test_empty_out_path_is_a_usage_error_before_the_work(command, scenario_file, tmp_path,
                                                         monkeypatch, capsys):
    argv, _ = _OUTPUTS[command]
    _WORK[command](monkeypatch)
    monkeypatch.chdir(tmp_path)
    paths = {"scenario": str(scenario_file), "a": "", "b": str(tmp_path / "b.out")}
    assert cli.main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr() == ("", "byzsim: error: cannot write : No such file or directory\n")
    assert [p.name for p in tmp_path.iterdir()] == [scenario_file.name]


@pytest.mark.parametrize("target_exists", [True, False], ids=["target", "dangling"])
def test_output_is_written_through_a_symlink(tmp_path, target_exists):
    link, target = tmp_path / "link.csv", tmp_path / "target.csv"
    if target_exists:
        target.write_text("old\n")
        os.chmod(target, 0o640)
    link.symlink_to(target.name)
    assert cli.main(["curves", "--mode", "auth", "--alpha", "4/5", "--n", "4",
                     "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_text() == curves_to_csv("auth", Fraction(4, 5), 4)
    if target_exists:
        assert _mode(target) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]


def test_output_file_keeps_the_mode_of_the_file_it_replaces(tmp_path):
    out = tmp_path / "curves.csv"
    out.write_text("old\n")
    os.chmod(out, 0o640)
    assert cli.main(["curves", "--mode", "auth", "--alpha", "3/4", "--n", "8",
                     "--out", str(out)]) == 0
    assert _mode(out) == 0o640
    assert out.read_text() != "old\n"


# ---------------------------------------------------------------------------
# Fuzzed scenario files
# ---------------------------------------------------------------------------


def _fuzz_bases():
    n = 6
    config = Configuration(n, frozenset({5, 6}), {i: i % 2 for i in range(1, 5)})
    P = frozenset(range(1, 5))

    def doc(protocol, adversary, prediction=None, **params):
        return Scenario(alpha=Fraction(3, 5), config=config,
                        prediction=prediction, adversary=adversary, seed=0,
                        protocol=protocol, params=params).to_json()

    return [
        doc("pred_ba", split_brain(([1, 2], [3, 4]), 0, 1), P),
        doc("auth_pred_ba", replay_honest(1, [1, 5]),
            {1: P, 2: P, 3: P, 4: frozenset()}),
        doc("dolev_strong_broadcast",
            persona_network({"x": {5: (1, [5, 6])}},
                            feed_overrides=[("x", [5], "x")],
                            emission=[("x", None, [1, 2, 3])], cutoff=3),
            participants=[1, 2, 3, 4, 5], t=1, sender=5),
        doc("phase_king", crash_after(2, {5: 1}), t=1),
        doc("dolev_strong_ba", random_noise(3)),
    ]


_FUZZ_BASES = _fuzz_bases()


@pytest.mark.parametrize("base", _FUZZ_BASES, ids=lambda doc: doc["protocol"])
def test_every_fuzz_base_is_a_valid_scenario(base, tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(base))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--scenario", str(scenario)]) == 0
_WRONG = [None, True, -1, 0, 2.5, "x", "", [], [1, "a"], {}, {"a": 1}, [[1]],
          float("inf"), float("nan"), "1/0", "3/5", "pred_ba"]
_OUT_OF_RANGE = [0, -1, 7, 99, [0], [7, 1], {"7": 1}, {"0": [1]}]


def _paths(node, prefix=()):
    if prefix:
        yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(data=st.data())
def test_simulate_fuzzed_scenario_exits_zero_or_two(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(_FUZZ_BASES)))
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        action = data.draw(st.sampled_from(("drop", "wrong", "id", "id_key")))
        if action == "drop" and isinstance(parent, dict):
            del parent[path[-1]]
        elif action == "id_key" and isinstance(parent, dict):
            parent[str(data.draw(st.sampled_from([0, -1, 7, 99])))] = parent.pop(path[-1])
        else:
            pool = _OUT_OF_RANGE if action.startswith("id") else _WRONG
            parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(pool)))
    with tempfile.TemporaryDirectory() as tmp:
        scenario = os.path.join(tmp, "scenario.json")
        with open(scenario, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc = cli.main(["simulate", "--scenario", scenario,
                           "--out", os.path.join(tmp, "out.json")])
    assert rc in (0, 2), err.getvalue()


def _single_mutations(doc):
    """Every document one mutation away from doc: any value (a leaf or a
    whole subtree) replaced by each _WRONG and each _OUT_OF_RANGE value,
    and any key dropped or renamed to an id outside 1..n."""
    text = json.dumps(doc)
    for path in _paths(doc):
        *head, key = path
        for value in _WRONG + _OUT_OF_RANGE:
            mutated = json.loads(text)
            functools.reduce(operator.getitem, head, mutated)[key] = value
            yield path, mutated
        if isinstance(functools.reduce(operator.getitem, head, doc), dict):
            for new_key in (None, "0", "-1", "7", "99"):
                mutated = json.loads(text)
                parent = functools.reduce(operator.getitem, head, mutated)
                value = parent.pop(key)
                if new_key is not None:
                    parent[new_key] = value
                yield path, mutated


def test_simulate_every_single_mutation_exits_zero_or_two():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        scenario = os.path.join(tmp, "scenario.json")
        for base in _FUZZ_BASES:
            for path, doc in _single_mutations(base):
                with open(scenario, "w") as fh:
                    fh.write(json.dumps(doc))
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()) as err:
                    rc = cli.main(["simulate", "--scenario", scenario])
                if rc not in (0, 2):
                    failures.append((path, err.getvalue().strip()))
    assert not failures, (len(failures), failures[:5])


if __name__ == "__main__":
    # Print every pinned scenario's current digests as a _PINNED_DIGESTS
    # literal, for retaking them after a deliberate byte change:
    #   PYTHONPATH=src python tests/test_cli.py
    print("_PINNED_DIGESTS = {")
    with tempfile.TemporaryDirectory() as tmp:
        for name in _pinned_scenarios():
            out, tr = _simulate_digests(name, Path(tmp))
            print(f'    "{name}": (\n        "{out}",\n        "{tr}"),')
    print("}")
