"""Output checks for the benchmark, written apart from the program.

Nothing here imports byzsim. Fault counts, curve values and decision rounds
are recomputed from the paper's formulas and the documented protocol
schedule, so a defect in ``byzsim.core`` or ``byzsim.predba`` cannot hide
itself by agreeing with its own arithmetic.

Every checker returns a list of problem strings; an empty list means the
output passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction

# The harness's battery matrix: six library strategies (split_brain needs two
# honest nodes and is dropped below that) times four input patterns.
LIBRARY_SIZE = 6
INPUT_PATTERNS = 4

SWEEP_HEADER = ("mode,alpha,n,eta,theory_s,theory_sbar,sbar_flag,"
                "empirical_f,trials,adversary_set_hash")


# ---------------------------------------------------------------------------
# Paper formulas
# ---------------------------------------------------------------------------


def consistency_faults(alpha, n: int) -> int:
    """Faults tolerated under a perfect prediction: floor(alpha * n)."""
    return math.floor(Fraction(alpha) * n)


def robustness_faults(mode: str, alpha, n: int) -> int:
    """floor((1-alpha)n/2) - 1 without signatures, floor((1-alpha)n) - 1
    with them, clamped at 0."""
    a = Fraction(alpha)
    if mode == "nonauth":
        return max(0, math.floor((1 - a) * n / 2) - 1)
    return max(0, math.floor((1 - a) * n) - 1)


def battery_trials(n: int, faults: int, seeds: int) -> int:
    """Trials one battery cell runs: library x input patterns x seeds."""
    library = LIBRARY_SIZE if n - faults >= 2 else LIBRARY_SIZE - 1
    return library * INPUT_PATTERNS * seeds


def auth_smoothness(alpha, n: int, eta: int) -> int:
    """Authenticated resilience curve s(eta).

    Three pieces: alpha*n - eta/2 on [0, 2(1-alpha)n) (open on the right),
    n - 3*eta/2 - 1 on [2(1-alpha)n, 2*alpha*n/3], and (1-alpha)n - 1 on
    [2*alpha*n/3, n]; the largest applicable value, floored, clamped at 0.
    """
    a = Fraction(alpha)
    values = []
    if eta < 2 * (1 - a) * n:
        values.append(a * n - Fraction(eta, 2))
    if math.ceil(2 * (1 - a) * n) <= eta <= math.floor(2 * a * n / 3):
        values.append(n - Fraction(3 * eta, 2) - 1)
    if math.ceil(2 * a * n / 3) <= eta <= n:
        values.append((1 - a) * n - 1)
    return max(0, math.floor(max(values)))


def auth_impossibility(alpha, n: int, eta: int):
    """Authenticated upper bound: alpha*n + 1 on [0, (1-alpha)n], n - eta on
    [(1-alpha)n, alpha*n], nothing beyond alpha*n."""
    a = Fraction(alpha)
    values = []
    if eta <= math.floor((1 - a) * n):
        values.append(a * n + 1)
    if math.ceil((1 - a) * n) <= eta <= math.floor(a * n):
        values.append(Fraction(n - eta))
    return math.floor(max(values)) if values else None


def prediction_error(n: int, faulty, prediction) -> int:
    """eta = |P \\ H| + |H \\ P| for a global prediction P."""
    honest = set(range(1, n + 1)) - set(faulty)
    prediction = set(prediction)
    return len(prediction - honest) + len(honest - prediction)


def wrapper_decision_round(mode: str, alpha, n: int, prediction_size: int) -> int:
    """Round in which the prediction wrappers decide.

    |L| = max(|P|, ceil(threshold)) with threshold 3/2(1-alpha)n - 1
    (nonauth) or 2(1-alpha)n - 1 (auth); t = ceil(|L|/3) or ceil(|L|/2);
    the decision falls in round 3t + 1 or t + 2.
    """
    a = Fraction(alpha)
    if mode == "nonauth":
        threshold = Fraction(3, 2) * (1 - a) * n - 1
    else:
        threshold = 2 * (1 - a) * n - 1
    size = max(prediction_size, math.ceil(threshold))
    if mode == "nonauth":
        return 3 * math.ceil(Fraction(size, 3)) + 1
    return math.ceil(Fraction(size, 2)) + 2


# ---------------------------------------------------------------------------
# Batteries
# ---------------------------------------------------------------------------


def check_battery_report(report: dict, suite: str, faults: int, n: int,
                         seeds: int) -> list:
    """Structure of one single-cell ``verify_*`` report."""
    problems = []
    expected = battery_trials(n, faults, seeds)
    if report.get("suite") != suite:
        problems.append(f"suite {report.get('suite')!r}, expected {suite!r}")
    if report.get("cells") != 1:
        problems.append(f"report covers {report.get('cells')} cells, expected 1")
    if report.get("trials") != expected:
        problems.append(f"{report.get('trials')} trials, expected {expected}")
    unique, hits = report.get("unique_runs"), report.get("memo_hits")
    if not (isinstance(unique, int) and isinstance(hits, int)
            and unique + hits == report.get("trials")):
        problems.append(f"unique_runs {unique} + memo_hits {hits} "
                        f"!= trials {report.get('trials')}")
    count = report.get("violation_count")
    if not isinstance(count, int) or min(count, 40) != len(report.get("violations", ())):
        problems.append("violation_count disagrees with the violations listed")
    if bool(report.get("ok")) != (report.get("violation_count") == 0):
        problems.append("ok flag disagrees with violation_count")
    return problems


def battery_failures(report: dict, problems: list) -> int:
    """Trials of one cell counted as failed: all of them when the report
    itself is malformed, otherwise the violating ones."""
    if problems:
        return int(report.get("trials") or 0)
    return int(report.get("violation_count") or 0)


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------


def check_run(*, mode: str, alpha, n: int, faulty, inputs: dict, prediction,
              decisions: dict, decided_round, flags: dict,
              expected_faults=None, guaranteed=True) -> list:
    """Termination, agreement, validity and the decision round of one
    wrapper run, recomputed from the raw decisions and inputs.

    ``inputs`` and ``decisions`` map honest ids to bits; ``flags`` holds the
    program's own agreement/validity/termination verdicts, which must match.
    A run with more faults than the paper guarantees (``guaranteed`` false,
    as in a sweep's scan above the curve) may break agreement or validity;
    its flags and its decision round are still checked.
    """
    problems = []
    honest = set(inputs)
    if expected_faults is not None and len(faulty) != expected_faults:
        problems.append(f"{len(faulty)} faulty nodes, expected {expected_faults}")
    if honest != set(range(1, n + 1)) - set(faulty):
        problems.append("inputs are not keyed by exactly the honest ids")
    termination = set(decisions) == honest and all(
        decisions[i] in (0, 1) for i in honest)
    values = {decisions[i] for i in honest if i in decisions}
    agreement = termination and len(values) == 1
    bits = set(inputs.values())
    validity = termination and (len(bits) != 1 or values == bits)
    for name, ours in (("termination", termination), ("agreement", agreement),
                       ("validity", validity)):
        if not ours and guaranteed:
            problems.append(f"{name} violated")
        if flags.get(name) != ours:
            problems.append(f"program reports {name}={flags.get(name)}, "
                            f"recomputed {ours}")
    want = wrapper_decision_round(mode, alpha, n, len(prediction))
    if decided_round != want:
        problems.append(f"decided in round {decided_round}, expected {want}")
    return problems


# ---------------------------------------------------------------------------
# Sweep CSV
# ---------------------------------------------------------------------------


def check_sweep_csv(text: str, *, alpha: str, n: int, etas, trials: int,
                    scan_margin: int) -> dict:
    """Problems of an authenticated sweep CSV, keyed by eta.

    Key ``None`` collects problems that belong to no single row.
    """
    problems = {}
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        problems[None] = [f"header {lines[:1]!r}"]
        return problems
    rows = [line.split(",") for line in lines[1:]]
    etas = list(etas)
    if len(rows) != len(etas):
        problems[None] = [f"{len(rows)} rows, expected {len(etas)}"]
    for eta, row in zip(etas, rows):
        bad = []
        if len(row) != 10:
            problems[eta] = [f"row {row!r} has {len(row)} fields"]
            continue
        mode, a, n_, eta_, s, sbar, flag, emp, k, set_hash = row
        if (mode, a, n_, eta_) != ("auth", alpha, str(n), str(eta)):
            bad.append(f"coordinates {row[:4]}")
        want_s = auth_smoothness(alpha, n, eta)
        if s != str(want_s):
            bad.append(f"theory_s {s}, expected {want_s}")
        want_sbar = auth_impossibility(alpha, n, eta)
        if sbar != ("" if want_sbar is None else str(want_sbar)):
            bad.append(f"theory_sbar {sbar!r}, expected {want_sbar}")
        if flag != "0":
            bad.append(f"sbar_flag {flag}")
        cap = min(n - 1, want_s + scan_margin)
        if not (emp.isdigit() and want_s <= int(emp) <= cap):
            bad.append(f"empirical_f {emp} outside [{want_s}, {cap}]")
        if k != str(trials):
            bad.append(f"trials {k}, expected {trials}")
        if not re.fullmatch(r"[0-9a-f]{12}", set_hash):
            bad.append(f"adversary_set_hash {set_hash!r}")
        if bad:
            problems[eta] = bad
    return problems


# ---------------------------------------------------------------------------
# simulate outputs
# ---------------------------------------------------------------------------


def check_outcome_doc(doc: dict, scenario: dict) -> list:
    """The outcome file of one ``byzsim simulate`` call of a wrapper scenario."""
    problems = []
    if doc.get("schema_version") != 1:
        problems.append(f"schema_version {doc.get('schema_version')!r}")
    if doc.get("scenario") != scenario:
        problems.append("scenario echo differs from the scenario file")
    out = doc.get("outcome") or {}
    inputs = {int(k): v for k, v in scenario["inputs"].items()}
    decisions = {int(k): v for k, v in (out.get("decisions") or {}).items()}
    problems += check_run(
        mode=scenario["mode"], alpha=scenario["alpha"], n=scenario["n"],
        faulty=scenario["faulty"], inputs=inputs,
        prediction=scenario["prediction"]["global"], decisions=decisions,
        decided_round=out.get("decided_round"), flags=out)
    return problems


def _transcript_entries(text: str):
    """Yield the per-node transcript objects one at a time.

    The file holds one large array; decoding node by node keeps memory near
    the size of the text instead of the size of the whole object tree.
    """
    head = re.match(r'\s*\{\s*"schema_version"\s*:\s*1\s*,\s*"transcripts"\s*:\s*\[',
                    text)
    if head is None:
        raise ValueError("transcript file does not open with schema_version 1")
    decoder = json.JSONDecoder()
    pos = head.end()
    while True:
        while text[pos] in " \t\r\n,":
            pos += 1
        if text[pos] == "]":
            break
        entry, pos = decoder.raw_decode(text, pos)
        yield entry
    if not re.fullmatch(r"\]\s*\}\s*", text[pos:]):
        raise ValueError("trailing content after the transcript array")


def _digest(payloads) -> bytes:
    return hashlib.blake2b("\n".join(payloads).encode(), digest_size=16).digest()


def check_transcripts(text: str, honest, rounds: int) -> list:
    """Per-node transcripts of one run against each other.

    Every honest node has rounds 1..rounds in order, every received list is
    sorted by sender, and for each honest pair (i, j) and round r the
    payloads i logged as sent to j equal, in order, those j logged as
    received from i.
    """
    problems = []
    honest = set(honest)
    sent, received = {}, {}
    seen = []
    try:
        for entry in _transcript_entries(text):
            node = entry["node"]
            seen.append(node)
            numbers = [r["round"] for r in entry["rounds"]]
            if numbers != list(range(1, rounds + 1)):
                problems.append(f"node {node}: rounds {numbers[:3]}... "
                                f"not 1..{rounds}")
            for r in entry["rounds"]:
                senders = [m["from"] for m in r["received"]]
                if senders != sorted(senders):
                    problems.append(f"node {node} round {r['round']}: "
                                    f"received list not sorted by sender")
                by_peer = {}
                for m in r["sent"]:
                    if m["to"] in honest:
                        by_peer.setdefault(m["to"], []).append(m["payload"])
                for peer, payloads in by_peer.items():
                    sent[(node, peer, r["round"])] = _digest(payloads)
                by_peer = {}
                for m in r["received"]:
                    if m["from"] in honest:
                        by_peer.setdefault(m["from"], []).append(m["payload"])
                for peer, payloads in by_peer.items():
                    received[(peer, node, r["round"])] = _digest(payloads)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return problems + [f"malformed transcript file: {exc!r}"]
    if seen != sorted(honest):
        problems.append("transcript nodes are not the honest ids in order")
    mismatched = [k for k in set(sent) | set(received)
                  if sent.get(k) != received.get(k)]
    if mismatched:
        i, j, r = min(mismatched)
        problems.append(f"{len(mismatched)} (sender, receiver, round) triples "
                        f"disagree, first {i}->{j} in round {r}")
    return problems[:20]
