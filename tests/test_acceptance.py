"""Acceptance battery: eight criteria, one printed verdict line each.

Run with output visible:

    pytest tests/test_acceptance.py -v -s

Each test prints `[PASS] criterion N: ...` or `[FAIL] criterion N: ...`
before asserting, so the verdict lines survive a red run. Reports carry no
timing: each time budget is asserted on a perf_counter reading taken
around the call it limits.
"""

import json
import math
import time
from fractions import Fraction

import byzsim.cli as cli
from byzsim.adversary import silent
from byzsim.core import (
    Configuration,
    theoretical_impossibility,
    theoretical_smoothness,
)
from byzsim.harness import (
    FLAGSHIPS,
    IMPOSSIBILITY_POINTS,
    run_impossibility_suite,
    transcript_identity_report,
    verify_consistency,
    verify_protocols,
    verify_robustness,
    verify_smoothness,
)
from byzsim.simnet import Scenario


def _verdict(num, label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} ({detail})")


def _timed(call, *args, **kwargs):
    """call(*args, **kwargs) and the seconds it took."""
    t0 = time.perf_counter()
    result = call(*args, **kwargs)
    return result, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 1. Bound curves match hand-computed piecewise values
# ---------------------------------------------------------------------------


def _expected_smoothness(mode, a, n, eta):
    # straight re-statement of the piecewise formulas, kept local on purpose
    vals = []
    if mode == "nonauth":
        if 0 <= eta <= math.floor((1 - a) * n - 1):
            vals.append(a * n - eta)
        if math.ceil((1 - a) * n - 1) <= eta <= math.floor((1 + a) * n / 4 + 1):
            vals.append(n - 2 * eta - 1)
        if math.ceil((1 + a) * n / 4 + 1) <= eta <= n:
            vals.append((1 - a) * n / 2 - 1)
    else:
        if 0 <= eta < 2 * (1 - a) * n:  # right-open: the drop lands here
            vals.append(a * n - Fraction(eta, 2))
        if math.ceil(2 * (1 - a) * n) <= eta <= math.floor(2 * a * n / 3):
            vals.append(n - Fraction(3 * eta, 2) - 1)
        if math.ceil(2 * a * n / 3) <= eta <= n:
            vals.append((1 - a) * n - 1)
    return max(0, math.floor(max(vals)))


def _expected_impossibility(mode, a, n, eta):
    vals = []
    if mode == "nonauth":
        if 0 <= eta <= math.floor((1 - a) * n / 2):
            vals.append((a * n + 1, False))
        if math.ceil((1 - a) * n / 2) <= eta <= math.floor(Fraction(n, 3)):
            vals.append((n - 2 * eta, False))
        if math.ceil(Fraction(n, 3)) <= eta <= math.floor(a * n):
            vals.append((Fraction(n, 2) - Fraction(eta, 2) - 2, True))
    else:
        if 0 <= eta <= math.floor((1 - a) * n):
            vals.append((a * n + 1, False))
        if math.ceil((1 - a) * n) <= eta <= math.floor(a * n):
            vals.append((n - eta, False))
    if not vals:
        return None, False
    return math.floor(max(v for v, _ in vals)), all(c for _, c in vals)


def test_criterion_1_curves():
    t0 = time.perf_counter()
    mismatches, points = [], 0
    for mode, alpha, n in FLAGSHIPS:
        for eta in range(n + 1):
            points += 1
            got_s = theoretical_smoothness(mode, alpha, n, eta)
            want_s = _expected_smoothness(mode, alpha, n, eta)
            got_bar = theoretical_impossibility(mode, alpha, n, eta)
            want_bar = _expected_impossibility(mode, alpha, n, eta)
            if got_s != want_s or got_bar != want_bar:
                mismatches.append((mode, eta, got_s, want_s, got_bar, want_bar))
    # the authenticated curve's one big downward jump sits at 2(1-a)n = 12
    jump = (theoretical_smoothness("auth", Fraction(4, 5), 30, 11),
            theoretical_smoothness("auth", Fraction(4, 5), 30, 12))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and jump == (18, 11) and elapsed < 1.0
    _verdict(1, "bound curves match hand-computed values", ok,
             f"{points} points, jump 18->11 at eta=12, {elapsed:.3f}s")
    assert not mismatches, mismatches[:5]
    assert jump == (18, 11)
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. Consistency battery
# ---------------------------------------------------------------------------


def test_criterion_2_consistency():
    rep, elapsed = _timed(verify_consistency, seeds=100)
    ok = rep["ok"] and elapsed < 300
    _verdict(2, "consistency bound holds with perfect predictions", ok,
             f"{rep['trials']} trials, {rep['violation_count']} violations, "
             f"{elapsed:.1f}s")
    assert rep["ok"], rep["violations"][:3]
    assert elapsed < 300


# ---------------------------------------------------------------------------
# 3. Robustness battery
# ---------------------------------------------------------------------------


def test_criterion_3_robustness():
    rep, elapsed = _timed(verify_robustness, seeds=100)
    ok = rep["ok"] and elapsed < 300
    _verdict(3, "robustness bound holds with hostile predictions", ok,
             f"{rep['trials']} trials, {rep['violation_count']} violations, "
             f"{elapsed:.1f}s")
    assert rep["ok"], rep["violations"][:3]
    assert elapsed < 300


# ---------------------------------------------------------------------------
# 4. Smoothness battery plus pointwise sweep comparison
# ---------------------------------------------------------------------------


def test_criterion_4_smoothness():
    rep, elapsed = _timed(verify_smoothness, seeds=50)
    ok = rep["ok"] and elapsed < 1200
    _verdict(4, "smoothness curve holds and empirical >= theoretical", ok,
             f"{rep['trials']} trials, {rep['violation_count']} violations, "
             f"{len(rep['pointwise_below'])} points below, {elapsed:.1f}s")
    assert rep["ok"], (rep["violations"][:3], rep["pointwise_below"][:3])
    assert rep["pointwise_below"] == []
    assert elapsed < 1200


# ---------------------------------------------------------------------------
# 5. Impossibility families
# ---------------------------------------------------------------------------


def test_criterion_5_impossibility():
    timed = [_timed(run_impossibility_suite, *point) for point in IMPOSSIBILITY_POINTS]
    slow = [(r["theorem"], elapsed) for r, elapsed in timed if elapsed >= 60]
    missing = [r["theorem"] for r, _ in timed if not r["demonstrated"]]
    ok = not slow and not missing
    _verdict(5, "every lower-bound family shows a violating run", ok,
             f"{len(timed)} families, undemonstrated: {missing or 'none'}")
    assert not missing, missing
    assert not slow, slow


# ---------------------------------------------------------------------------
# 6. Replay indistinguishability
# ---------------------------------------------------------------------------


def test_criterion_6_transcript_identity():
    rep, elapsed = _timed(transcript_identity_report)
    broken = [e["pair"] for e in rep["pairs"] if not e["identical"]]
    ok = rep["ok"] and not broken and elapsed < 60
    _verdict(6, "replayed personas leave byte-identical transcripts", ok,
             f"{len(rep['pairs'])} pairs, broken: {broken or 'none'}, "
             f"{elapsed:.1f}s")
    assert rep["ok"] and not broken, broken
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 7. Inner-protocol micro-suite
# ---------------------------------------------------------------------------


def test_criterion_7_protocols():
    rep, elapsed = _timed(verify_protocols)
    ok = (rep["ok"] and rep["violation_count"] == 0
          and rep["ledger_fired"] is False and elapsed < 300)
    _verdict(7, "inner protocols hold up and the ledger stays silent", ok,
             f"{rep['trials']} trials, {rep['violation_count']} violations, "
             f"ledger_fired={rep['ledger_fired']}, {elapsed:.1f}s")
    assert rep["ok"], rep["violations"][:3]
    assert rep["ledger_fired"] is False
    assert elapsed < 300


# ---------------------------------------------------------------------------
# 8. CLI determinism
# ---------------------------------------------------------------------------


def test_criterion_8_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    sc = Scenario(alpha=Fraction(4, 5),
                  config=Configuration(10, frozenset({9, 10}),
                                       {i: i % 2 for i in range(1, 9)}),
                  prediction=frozenset(range(1, 9)), adversary=silent(),
                  seed=3, protocol="pred_ba")
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(sc.to_json()))

    blobs = {"out": [], "tr": [], "sweep": [], "verify": []}
    for rep in ("a", "b"):
        out = tmp_path / f"out_{rep}.json"
        tr = tmp_path / f"tr_{rep}.json"
        assert cli.main(["simulate", "--scenario", str(scenario_path),
                         "--out", str(out), "--transcripts", str(tr)]) == 0
        blobs["out"].append(out.read_bytes())
        blobs["tr"].append(tr.read_bytes())
        csv_path = tmp_path / f"sweep_{rep}.csv"
        assert cli.main(["sweep", "--mode", "nonauth", "--alpha", "4/5",
                         "--n", "10", "--eta-range", "0:3", "--trials", "4",
                         "--seed", "11", "--out", str(csv_path)]) == 0
        blobs["sweep"].append(csv_path.read_bytes())
        report_path = tmp_path / f"verify_{rep}.json"
        assert cli.main(["verify", "--suite", "consistency", "--mode", "nonauth",
                         "--alpha", "3/5", "--n", "10", "--trials", "2", "--seed", "0",
                         "--out", str(report_path)]) == 0
        blobs["verify"].append(report_path.read_bytes())

    elapsed = time.perf_counter() - t0
    same = {k: v[0] == v[1] for k, v in blobs.items()}
    ok = all(same.values()) and elapsed < 60
    _verdict(8, "repeated CLI runs are byte-identical", ok,
             f"outcome={same['out']}, transcripts={same['tr']}, "
             f"sweep={same['sweep']}, verify={same['verify']}, {elapsed:.1f}s")
    assert all(same.values()), same
    assert elapsed < 60
