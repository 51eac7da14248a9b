"""Fast tests of the benchmark's own checkers and traced probe.

    python3 -m pytest perfbench -q

Each checker must accept a well-formed result built from the formulas and
reject a fabricated wrong one; the traced probe's counts must repeat
exactly between two fresh interpreters.
"""

import json
import os
import subprocess
import sys
import time

import checks
import speed
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------


def test_fault_counts():
    assert checks.consistency_faults("4/5", 20) == 16
    assert checks.robustness_faults("nonauth", "2/5", 40) == 11
    assert checks.robustness_faults("auth", "3/5", 40) == 15
    assert checks.robustness_faults("auth", "1", 50) == 0
    assert checks.battery_trials(40, 11, 4) == 96
    assert checks.battery_trials(10, 9, 4) == 80  # one honest node: no split_brain


def test_auth_curve_drop():
    values = [checks.auth_smoothness("4/5", 30, eta) for eta in range(10, 17)]
    assert values == [19, 18, 11, 9, 8, 6, 5]
    assert checks.auth_impossibility("4/5", 30, 6) == 25
    assert checks.auth_impossibility("4/5", 30, 12) == 18
    assert checks.auth_impossibility("4/5", 30, 25) is None


def test_decision_round():
    # everyone predicted at n = 80: |L| = 80
    assert checks.wrapper_decision_round("nonauth", "2/5", 80, 80) == 3 * 27 + 1
    assert checks.wrapper_decision_round("auth", "3/5", 80, 80) == 40 + 2
    # empty prediction pads to ceil(3/2 * 2/5 * 10 - 1) = 5 members
    assert checks.wrapper_decision_round("nonauth", "3/5", 10, 0) == 3 * 2 + 1


# ---------------------------------------------------------------------------
# single runs
# ---------------------------------------------------------------------------


def _run(**change):
    run = dict(mode="nonauth", alpha="3/5", n=10, faulty={9, 10},
               inputs={i: 1 for i in range(1, 9)}, prediction=set(range(1, 9)),
               decisions={i: 1 for i in range(1, 9)}, decided_round=10,
               flags={"agreement": True, "validity": True, "termination": True},
               expected_faults=2)
    run.update(change)
    return checks.check_run(**run)


def test_check_run_accepts_a_correct_run():
    assert _run() == []


def test_check_run_rejects_split_decision():
    split = {i: i % 2 for i in range(1, 9)}
    problems = _run(decisions=split)
    assert any("agreement violated" in p for p in problems)
    assert any("program reports agreement=True" in p for p in problems)


def test_check_run_rejects_wrong_decision_round():
    assert any("round 7" in p for p in _run(decided_round=7))


def test_check_run_above_the_guarantee_checks_flags_and_round_only():
    split = {i: i % 2 for i in range(1, 9)}
    flags = {"agreement": False, "validity": False, "termination": True}
    assert _run(decisions=split, flags=flags, guaranteed=False) == []
    assert _run(decisions=split, guaranteed=False)  # flags disagree
    assert _run(decisions=split, flags=flags, decided_round=9, guaranteed=False)


def test_check_run_rejects_wrong_fault_count_and_validity():
    assert _run(expected_faults=3)
    flags = {"agreement": True, "validity": False, "termination": True}
    assert any("validity violated" in p for p in _run(decisions={i: 0 for i in range(1, 9)},
                                                    flags=flags))


# ---------------------------------------------------------------------------
# battery reports
# ---------------------------------------------------------------------------


def _report(**change):
    report = {"suite": "robustness", "ok": True, "trials": 96, "unique_runs": 90,
              "memo_hits": 6, "violation_count": 0, "violations": [], "cells": 1}
    report.update(change)
    return checks.check_battery_report(report, "robustness", 11, 40, 4)


def test_battery_report_checks():
    assert _report() == []
    assert _report(trials=95, memo_hits=5)
    assert _report(memo_hits=7)
    assert _report(ok=False)
    violation = {"battery": "robustness"}
    assert _report(ok=False, violation_count=1, violations=[violation]) == []


# ---------------------------------------------------------------------------
# sweep CSV
# ---------------------------------------------------------------------------


def _sweep_csv(etas, empirical=None):
    lines = [checks.SWEEP_HEADER]
    for eta in etas:
        s = checks.auth_smoothness("4/5", 30, eta)
        sbar = checks.auth_impossibility("4/5", 30, eta)
        emp = s if empirical is None else empirical(s)
        lines.append(f"auth,4/5,30,{eta},{s},{'' if sbar is None else sbar},0,"
                     f"{emp},12,0123456789ab")
    return "\n".join(lines) + "\n"


def _sweep_problems(text, etas=range(11, 14)):
    return checks.check_sweep_csv(text, alpha="4/5", n=30, etas=etas, trials=12,
                                  scan_margin=6)


def test_sweep_accepts_rows_on_the_curve():
    assert _sweep_problems(_sweep_csv(range(11, 14))) == {}
    assert _sweep_problems(_sweep_csv(range(11, 14), lambda s: s + 6)) == {}


def test_sweep_rejects_row_below_theory():
    problems = _sweep_problems(_sweep_csv(range(11, 14), lambda s: s - 1))
    assert set(problems) == {11, 12, 13}
    assert "empirical_f" in problems[12][0]


def test_sweep_rejects_row_above_scan_cap_and_wrong_theory():
    assert set(_sweep_problems(_sweep_csv(range(11, 14), lambda s: s + 7))) == {11, 12, 13}
    text = _sweep_csv(range(11, 14)).replace("auth,4/5,30,12,11,", "auth,4/5,30,12,18,")
    assert any("theory_s 18" in p for p in _sweep_problems(text)[12])


def test_sweep_rejects_missing_rows():
    assert None in _sweep_problems(_sweep_csv(range(11, 13)))


# ---------------------------------------------------------------------------
# transcripts
# ---------------------------------------------------------------------------


def _transcripts(rounds=2):
    """Honest nodes 1-3 and faulty node 4 broadcasting to everyone."""
    docs = []
    for node in (1, 2, 3):
        log = []
        for r in range(1, rounds + 1):
            sent = [{"to": to, "payload": f'["v",{node},{r}]'} for to in (1, 2, 3, 4)]
            received = [{"from": frm, "payload": f'["v",{frm},{r}]'}
                        for frm in (1, 2, 3, 4)]
            log.append({"received": received, "round": r, "sent": sent})
        docs.append({"node": node, "rounds": log})
    return {"schema_version": 1, "transcripts": docs}


def _text(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_transcripts_accept_matching_pairs():
    assert checks.check_transcripts(_text(_transcripts()), [1, 2, 3], 2) == []


def test_transcripts_reject_mismatched_pair():
    doc = _transcripts()
    doc["transcripts"][1]["rounds"][1]["received"][0]["payload"] = '["v",1,9]'
    problems = checks.check_transcripts(_text(doc), [1, 2, 3], 2)
    assert any("1->2 in round 2" in p for p in problems)


def test_transcripts_reject_unsorted_received_and_wrong_rounds():
    doc = _transcripts()
    received = doc["transcripts"][0]["rounds"][0]["received"]
    received[0], received[1] = received[1], received[0]
    assert any("not sorted" in p for p in checks.check_transcripts(_text(doc), [1, 2, 3], 2))
    assert checks.check_transcripts(_text(_transcripts()), [1, 2, 3], 3)


# ---------------------------------------------------------------------------
# speed normalisation
# ---------------------------------------------------------------------------


def test_sampler_scales_by_reference_speed_and_drops_its_own_time():
    sampler = speed.Sampler()
    slow = 2 * speed.REF_S  # the host ran at half the reference speed
    sampler.samples = [(1.0, slow), (1.5, slow), (5.0, speed.REF_S)]
    assert abs(sampler.seconds(0.9, 2.0) - (1.1 - 2 * slow) / 2) < 1e-12
    # no sample inside: the mean over all samples so far
    assert abs(sampler.seconds(3.0, 3.01) - 0.01 * (0.5 + 0.5 + 1) / 3) < 1e-12


def test_sampler_runs_the_reference_loop_on_a_timer():
    sampler = speed.Sampler()
    sampler.start()
    try:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            speed.reference_loop()
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 3


# ---------------------------------------------------------------------------
# traced probe
# ---------------------------------------------------------------------------

PROBE_SCRIPT = """
import json, sys
from fractions import Fraction
import tracer
from byzsim import harness
probe = tracer.Probe(True, lambda *run: (None, True))
probe.install()
harness.verify_robustness(seeds=4, grid=[("auth", Fraction(3, 5), 10)], seed=5)
harness.verify_consistency(seeds=2, grid=[("nonauth", Fraction(3, 5), 10)], seed=5)
probe.uninstall()
print(json.dumps([probe.per_layer(), probe.run_problems]))
"""


def _traced_counts():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]))
    proc = subprocess.run([sys.executable, "-c", PROBE_SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    per_layer, problems = json.loads(proc.stdout.splitlines()[-1])
    assert problems == []
    return {k: v for k, v in per_layer.items() if k not in tracer.TIMES}


def test_traced_counts_repeat_exactly():
    first, second = _traced_counts(), _traced_counts()
    assert first == second
    assert first["simnet.runs"] == first["harness.unique_runs"] > 0
    assert first["simnet.sig_mints"] > 0 and first["protocols.digests"] > 0
    assert first["harness.trials"] == 96 + 48
