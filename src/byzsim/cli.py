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
failure, 2 usage error (bad flags, unreadable or invalid input files,
unwritable output paths). Every output file is opened before the work
starts, and is written atomically (temp file + rename); it depends only
on the inputs and the seed, never on wall-clock or iteration order, so
repeating an invocation reproduces them byte for byte. Battery reports
are the one exception: they carry an ``elapsed_s`` timing field, which is
why ``verify`` prints to stdout instead of requiring an output file.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import stat
import sys
import tempfile
from typing import Iterator, Optional, Sequence

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
from .simnet import (SCHEMA_VERSION, ForgeryError, Memo, Scenario, ScenarioError,
                     run_simulation)

# What parsing a malformed scenario document or adversary spec raises:
# missing keys, wrong types, bad values, and an adversary asked to act for
# an honest node.
_MALFORMED = (ForgeryError, KeyError, TypeError, ValueError)


class UsageError(Exception):
    """Operator mistake: bad flag combination or unusable input file."""


def _open_mode(path: str) -> int:
    """The permission bits open(path, "w") would leave path with: an existing
    file keeps its own, a new one gets 0o666 less the umask. An empty path
    or a directory raises what open would."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        if not path:
            raise
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask
    if stat.S_ISDIR(mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    return stat.S_IMODE(mode)


@contextlib.contextmanager
def _cannot_write(path: str):
    """Report an OSError on path as a usage error."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


@contextlib.contextmanager
def _atomic_output(path: str):
    """Yield write(text), which writes text, or the chunks of an iterable in
    order, to path atomically.

    The temporary file is made on entry, so a path that cannot be written
    (missing directory, a directory, no permission) is a usage error before
    the block runs. On a clean exit the file is renamed to path, with the
    mode a plain open(path, "w") would give it; the temporary file mkstemp
    makes is readable by its owner only. If the block raises, the temporary
    file is removed. An OSError while the file is made, written or renamed
    is a usage error.
    """
    with _cannot_write(path):
        mode = _open_mode(path)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".byzsim-tmp-")
    fh = os.fdopen(fd, "w")

    def write(text):
        with _cannot_write(path):
            fh.writelines((text,) if isinstance(text, str) else text)

    try:
        yield write
        with _cannot_write(path):
            os.fchmod(fd, mode)
            fh.close()
            os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            fh.close()
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _output(path: Optional[str]):
    """_atomic_output(path), or stdout's write when no path is given; an
    empty path is a path, which cannot be written."""
    if path is None:
        return contextlib.nullcontext(sys.stdout.write)
    return _atomic_output(path)


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"


_I4, _I6, _I8, _I10, _I12, _I14 = (" " * k for k in (4, 6, 8, 10, 12, 14))


def _transcript_chunks(transcripts) -> Iterator[str]:
    """The transcript file, in file order, in pieces that join to exactly

        _json({"schema_version": SCHEMA_VERSION,
               "transcripts": [t.to_json() for t in transcripts]})

    without building that document or any node's text. Every payload string
    is escaped once, with the encoder json.dumps itself uses.

    A sent entry (receivers, payload) stands for one {"payload", "to"}
    object per receiver, so its text is rendered with a single str.join
    over the receiver ids. That text is a piece of its own and is not
    copied into a larger string. An entry equal to the previous node's
    entry at the same place in the same round (the same receivers object,
    an equal payload) is not rendered again; its text is yielded as the
    one shared string.

    A received list equal to the previous node's list of the same round is
    not rendered again, and its rendering is yielded as the one shared
    string. Nodes that were handed the same inbox share one received list
    object (RoundLog.received), which only needs an identity check; the
    lists are only read here. Both memos keep one node per round, so memory
    stays bounded when nodes differ.
    """
    esc = Memo(json.encoder.encode_basestring_ascii)  # payload json -> its string literal

    last = {}  # round -> (received list, its rendering)

    def received(r):
        prev = last.get(r.round)
        if prev is not None and (prev[0] is r.received or prev[0] == r.received):
            return prev[1]
        if r.received:
            text = "[\n" + ",\n".join(
                f'{_I12}{{\n{_I14}"from": {s},\n{_I14}"payload": {esc[pj]}\n{_I12}}}'
                for s, pj in r.received) + f"\n{_I10}]"
        else:
            text = "[]"
        last[r.round] = (r.received, text)
        return text

    close = f"\n{_I12}}}"
    last_sent = {}  # round -> the previous node's [(receivers, payload, head, text)]

    def sent(r):
        prev = last_sent.get(r.round, ())
        texts = []
        for j, (to, pj) in enumerate(r.sent):
            if j < len(prev) and prev[j][0] is to and prev[j][1] == pj:
                texts.append(prev[j])
                continue
            head = f'{_I12}{{\n{_I14}"payload": {esc[pj]},\n{_I14}"to": '
            texts.append((to, pj, head, (close + ",\n" + head).join(map(str, to))))
        last_sent[r.round] = texts
        return texts

    yield f'{{\n  "schema_version": {SCHEMA_VERSION},\n  "transcripts": '
    if not transcripts:
        yield "[]\n}\n"
        return
    for k, t in enumerate(transcripts):
        yield (",\n" if k else "[\n") + f'{_I4}{{\n{_I6}"node": {t.node},\n{_I6}"rounds": '
        if not t.rounds:
            yield f"[]\n{_I4}}}"
            continue
        for j, r in enumerate(t.rounds):
            yield (",\n" if j else "[\n") + f'{_I8}{{\n{_I10}"received": '
            yield received(r)
            texts = sent(r)
            if not texts:
                yield f',\n{_I10}"round": {r.round},\n{_I10}"sent": []\n{_I8}}}'
                continue
            sep = f',\n{_I10}"round": {r.round},\n{_I10}"sent": [\n'
            for _, _, head, text in texts:
                yield sep + head
                yield text
                sep = close + ",\n"
            yield f"{close}\n{_I10}]\n{_I8}}}"
        yield f"\n{_I6}]\n{_I4}}}"
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
    if text is None:
        return None
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise UsageError(f"--adversaries {text!r} names no adversary")
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
    record = args.transcripts is not None
    if record and args.out is not None and \
            os.path.realpath(args.out) == os.path.realpath(args.transcripts):
        raise UsageError(f"--out and --transcripts name one file: {args.transcripts}")
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

    with contextlib.ExitStack() as files:
        write_out = files.enter_context(_output(args.out))
        if record:
            write_transcripts = files.enter_context(_atomic_output(args.transcripts))
        try:
            outcome, transcripts = run_simulation(
                scenario, adversary=strategy, record_transcripts=record)
        except ScenarioError as exc:
            raise UsageError(f"invalid scenario: {exc}") from None
        write_out(_json({
            "schema_version": SCHEMA_VERSION,
            "scenario": scenario.to_json(),
            "outcome": {
                "decisions": {str(k): v for k, v in sorted(outcome.decisions.items())},
                "decided_round": outcome.decided_round,
                "agreement": outcome.agreement,
                "validity": outcome.validity,
                "termination": outcome.termination,
            },
        }))
        if record:
            write_transcripts(_transcript_chunks(transcripts))
    return 0


def cmd_sweep(args) -> int:
    alpha = _parse_alpha(args.alpha, args.mode)
    etas = _parse_eta_range(args.eta_range, args.n) if args.eta_range else None
    adversaries = _parse_adversaries(args.adversaries)
    with _output(args.out) as write:
        write(sweep_to_csv(sweep(args.mode, alpha, args.n, etas=etas, split=args.split,
                                 trials=args.trials, seed=args.seed,
                                 adversaries=adversaries)))
    return 0


def cmd_curves(args) -> int:
    alpha = _parse_alpha(args.alpha, args.mode)
    with _output(args.out) as write:
        write(curves_to_csv(args.mode, alpha, args.n))
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
    saving = _atomic_output(args.out) if args.out is not None else contextlib.nullcontext()
    with saving as save:
        report = battery(**kwargs)
        text = _json(report)
        sys.stdout.write(text)
        if save:
            save(text)
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
