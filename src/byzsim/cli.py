"""Command-line front end.

Four subcommands cover the package's workflows:

* ``simulate`` runs one scenario file and writes the outcome (and,
  flag-gated, per-node transcripts) as JSON.
* ``sweep`` measures empirical resilience over an error range and writes
  the harness CSV.
* ``curves`` exports the theoretical bound curves as CSV without running
  any simulation.
* ``verify`` executes one named acceptance battery and exits nonzero if
  any assertion inside it fails.

Exit codes are a stable contract: 0 success, 1 assertion or internal
failure, 2 usage error (bad flags, unreadable or invalid input files).
Output files are written atomically (temp file + rename) and depend only
on the inputs and the seed, never on wall-clock or iteration order, so
repeating an invocation reproduces them byte for byte. Battery reports
are the one exception: they carry an ``elapsed_s`` timing field, which is
why ``verify`` prints to stdout instead of requiring an output file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
import tempfile
from typing import Iterable, Iterator, Optional, Sequence, Union

from .core import MODES, as_alpha, check_alpha
from .harness import (
    ETA_SPLITS,
    LIBRARY,
    SWEEP_TRIALS,
    VERIFY_SUITES,
    curves_to_csv,
    sweep,
    sweep_to_csv,
)
from . import adversary
from .simnet import SCHEMA_VERSION, ForgeryError, Scenario, run_simulation

# What parsing a malformed scenario document or adversary spec raises:
# missing keys, wrong types, bad values, and an adversary asked to act for
# an honest node.
_MALFORMED = (ForgeryError, KeyError, TypeError, ValueError)


class UsageError(Exception):
    """Operator mistake: bad flag combination or unusable input file."""


def _open_mode(path: str) -> int:
    """The permission bits open(path, "w") would leave path with: an existing
    file keeps its own, a new one gets 0o666 less the umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _write_atomic(path: str, text: Union[str, Iterable[str]]) -> None:
    """Write text, or the chunks of an iterable in order, to path atomically.

    The file ends up with the mode a plain open(path, "w") would give it;
    the temporary file mkstemp makes is readable by its owner only.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    mode = _open_mode(path)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".byzsim-tmp-")
    try:
        os.fchmod(fd, mode)
        with os.fdopen(fd, "w") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        _write_atomic(out, text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"


_I4, _I6, _I8, _I10, _I12, _I14 = (" " * k for k in (4, 6, 8, 10, 12, 14))


def _json_list(blocks: list, indent: str) -> str:
    """A JSON array laid out as json.dumps(indent=2) lays it out at indent."""
    if not blocks:
        return "[]"
    return "[\n" + ",\n".join(blocks) + "\n" + indent + "]"


def _transcript_chunks(transcripts) -> Iterator[str]:
    """The transcript file, one node at a time, in chunks that join to exactly

        _json({"schema_version": SCHEMA_VERSION,
               "transcripts": [t.to_json() for t in transcripts]})

    without building that document. Every payload string is escaped once,
    with the encoder json.dumps itself uses. A received list equal to the
    previous node's list of the same round is not rendered again: on the
    n=80 simulate benchmark scenarios that holds for 98% of the lists. Nodes
    that were handed the same inbox share one received list object
    (RoundLog.received), which only needs an identity check; the lists are
    only read here. The memo keeps one list per round, so memory stays
    bounded when inboxes differ.
    """
    escaped = {}  # payload json -> its JSON string literal

    def esc(pj):
        text = escaped.get(pj)
        if text is None:
            text = escaped[pj] = json.encoder.encode_basestring_ascii(pj)
        return text

    last = {}  # round -> (received list, its rendering)

    def render(r):
        prev = last.get(r.round)
        if prev is not None and (prev[0] is r.received or prev[0] == r.received):
            recv = prev[1]
        else:
            recv = _json_list(
                [f'{_I12}{{\n{_I14}"from": {s},\n{_I14}"payload": {esc(pj)}\n{_I12}}}'
                 for s, pj in r.received], _I10)
            last[r.round] = (r.received, recv)
        sent = _json_list(
            [f'{_I12}{{\n{_I14}"payload": {esc(pj)},\n{_I14}"to": {to}\n{_I12}}}'
             for to, pj in r.sent], _I10)
        return (f'{_I8}{{\n{_I10}"received": {recv},\n{_I10}"round": {r.round},\n'
                f'{_I10}"sent": {sent}\n{_I8}}}')

    yield f'{{\n  "schema_version": {SCHEMA_VERSION},\n  "transcripts": '
    if not transcripts:
        yield "[]\n}\n"
        return
    for k, t in enumerate(transcripts):
        rounds = _json_list([render(r) for r in t.rounds], _I6)
        yield (",\n" if k else "[\n") + (
            f'{_I4}{{\n{_I6}"node": {t.node},\n{_I6}"rounds": {rounds}\n{_I4}}}')
    yield "\n  ]\n}\n"


def _parse_alpha(text: str, mode: str | None = None):
    try:
        value = as_alpha(text)
        if mode is not None:
            check_alpha(mode, value)
        return value
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot accept alpha {text!r}: {exc}") from None


def _parse_eta_range(text: str, n: int) -> range:
    lo, _, hi = text.partition(":")
    try:
        lo_i = int(lo)
        hi_i = int(hi) if hi else lo_i
    except ValueError:
        raise UsageError(
            f"--eta-range wants 'lo:hi' or a single integer, got {text!r}"
        ) from None
    if not 0 <= lo_i <= hi_i <= n:
        raise UsageError(f"--eta-range {text!r} outside 0..{n}")
    return range(lo_i, hi_i + 1)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"want an integer >= 1, got {text!r}")
    return int(text)


def _parse_adversaries(text: Optional[str]):
    if not text:
        return None
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    unknown = [name for name in names if name not in LIBRARY]
    if unknown:
        raise UsageError(
            f"unknown adversaries {unknown}; library: {', '.join(LIBRARY)}"
        )
    return names


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    try:
        with open(args.scenario) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read scenario file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"scenario file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError("invalid scenario: the file must hold a JSON object")
    if args.seed is not None:
        doc["seed"] = args.seed
    try:
        scenario = Scenario.from_json(doc)
        strategy = adversary.build_strategy(scenario.adversary, scenario)
    except _MALFORMED as exc:
        raise UsageError(f"invalid scenario: {type(exc).__name__}: {exc}") from None

    try:
        outcome, transcripts = run_simulation(
            scenario, adversary=strategy, record_transcripts=args.transcripts is not None
        )
    except (KeyError, TypeError, ValueError) as exc:
        # Bad protocol or persona parameters show only when the run is built.
        raise UsageError(f"invalid scenario: {type(exc).__name__}: {exc}") from None
    out_doc = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario.to_json(),
        "outcome": {
            "decisions": {str(k): v for k, v in sorted(outcome.decisions.items())},
            "decided_round": outcome.decided_round,
            "agreement": outcome.agreement,
            "validity": outcome.validity,
            "termination": outcome.termination,
        },
    }
    _emit(_json(out_doc), args.out)
    if args.transcripts is not None:
        _write_atomic(args.transcripts, _transcript_chunks(transcripts))
    return 0


def cmd_sweep(args) -> int:
    alpha = _parse_alpha(args.alpha, args.mode)
    etas = _parse_eta_range(args.eta_range, args.n) if args.eta_range else None
    rows = sweep(args.mode, alpha, args.n, etas=etas, split=args.split, trials=args.trials,
                 seed=args.seed, adversaries=_parse_adversaries(args.adversaries))
    _emit(sweep_to_csv(rows), args.out)
    return 0


def cmd_curves(args) -> int:
    _emit(curves_to_csv(args.mode, _parse_alpha(args.alpha, args.mode), args.n), args.out)
    return 0


def cmd_verify(args) -> int:
    battery = VERIFY_SUITES[args.suite]
    kwargs = {"seed": args.seed}
    cell_flags = (args.mode, args.alpha, args.n)
    if any(v is not None for v in cell_flags):
        if args.suite in ("impossibility", "protocols"):
            raise UsageError(
                f"--mode/--alpha/--n do not apply to the {args.suite} suite"
            )
        if any(v is None for v in cell_flags):
            raise UsageError("--mode, --alpha and --n must be given together")
        cell = ((args.mode, _parse_alpha(args.alpha, args.mode), args.n),)
        kwargs["flagships" if args.suite == "smoothness" else "grid"] = cell
    if args.trials is not None:
        if args.suite == "protocols":
            kwargs["pk_seeds"] = kwargs["ds_seeds"] = args.trials
        elif args.suite == "impossibility":
            raise UsageError("--trials does not apply to the impossibility suite")
        else:
            kwargs["seeds"] = args.trials
    report = battery(**kwargs)
    text = _json(report)
    sys.stdout.write(text)
    if args.out:
        _write_atomic(args.out, text)
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="byzsim",
        description="Synchronous Byzantine agreement simulator with "
        "prediction-augmented protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario file")
    sim.add_argument("--scenario", required=True, help="scenario JSON file")
    sim.add_argument("--seed", type=int, help="override the scenario's seed")
    sim.add_argument("--out", help="outcome JSON file (default: stdout)")
    sim.add_argument("--transcripts", help="also dump per-node transcripts here")
    sim.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", help="empirical resilience over an error range")
    sw.add_argument("--mode", required=True, choices=MODES)
    sw.add_argument("--alpha", required=True, help="trust parameter, e.g. 0.8 or 4/5")
    sw.add_argument("--n", required=True, type=_positive_int, help="node count")
    sw.add_argument("--eta-range", help="'lo:hi' inclusive (default: 0:n)")
    sw.add_argument("--split", default=ETA_SPLITS[0], choices=ETA_SPLITS,
                    help="how the error divides over wrong-in/missing-from P")
    sw.add_argument("--trials", type=_positive_int, default=SWEEP_TRIALS,
                    help="trials per cell")
    sw.add_argument("--adversaries", help="comma-separated subset of the library")
    sw.add_argument("--seed", required=True, type=int)
    sw.add_argument("--out", help="CSV file (default: stdout)")
    sw.set_defaults(func=cmd_sweep)

    cv = sub.add_parser("curves", help="export theoretical bound curves (no runs)")
    cv.add_argument("--mode", required=True, choices=MODES)
    cv.add_argument("--alpha", required=True)
    cv.add_argument("--n", required=True, type=_positive_int)
    cv.add_argument("--out", help="CSV file (default: stdout)")
    cv.set_defaults(func=cmd_curves)

    vf = sub.add_parser("verify", help="run one acceptance battery")
    vf.add_argument("--suite", required=True, choices=sorted(VERIFY_SUITES))
    vf.add_argument("--seed", required=True, type=int)
    vf.add_argument("--mode", choices=MODES,
                    help="restrict to one grid cell (with --alpha and --n)")
    vf.add_argument("--alpha")
    vf.add_argument("--n", type=_positive_int)
    vf.add_argument("--trials", type=_positive_int,
                    help="seeded trials per cell (suite default otherwise)")
    vf.add_argument("--out", help="also save the JSON report here")
    vf.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"byzsim: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure: stable exit code 1
        print(f"byzsim: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
