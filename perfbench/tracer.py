"""Counters and spans around the calls into each byzsim module.

The program is not edited. ``Probe.install`` rebinds the public names each
module looks up at call time (``harness.run_simulation``,
``registry.factory_for``, ``adversary.build_strategy``,
``predba.build_active_set``, ``protocols.payload_digest``,
``simnet.payload_to_json``, the ``core`` bound functions as ``harness``
imported them, ``SignatureLedger.mint``/``verify``, ``RunCache.run``) and,
through the factory and strategy wrappers, the ``outbox``/``deliver`` and
``begin``/``emit``/``observe`` methods of every instance a run builds.

An untraced probe keeps only the counters the end-to-end metrics need:
simulations, trials and trials per sweep eta. A traced probe also times a
span at every layer boundary. A span's self time is its duration minus the
spans directly inside it; a layer's inclusive time counts only its
outermost spans, so nothing is counted twice. Spans of the coarse layers
(CLI call, battery, run, adversary set-up) are kept in memory in full and
written out by the worker when the round ends; the per-round and
per-message spans are summed as they close.
"""

from __future__ import annotations

import time
from collections import Counter

import checks

PER_LAYER = (
    "harness.trials", "harness.unique_runs", "harness.memo_hits",
    "harness.memo_hit_ratio", "harness.self_s",
    "simnet.runs", "simnet.rounds", "simnet.messages_delivered",
    "simnet.engine_self_s", "simnet.transcript_s", "simnet.sig_mints",
    "simnet.sig_verifies",
    "registry.instances_built", "registry.build_s",
    "predba.active_set_calls", "predba.active_set_s", "predba.self_s",
    "protocols.phase_king_s", "protocols.dolev_strong_s", "protocols.digests",
    "adversary.begin_s", "adversary.emit_s", "adversary.observe_s",
    "adversary.messages_emitted", "adversary.instances",
    "core.curve_calls", "core.curve_s",
    "cli.self_s",
)

# Per-layer metrics that are times; the rest are counts (or a ratio of
# counts) and must repeat exactly between runs of one seed.
TIMES = frozenset(m for m in PER_LAYER if m.endswith("_s"))

KEPT_SPANS = frozenset(
    ("cli.main", "harness.battery", "core.curve", "simnet.run", "adversary.begin"))

CORE_BOUNDS = ("consistency_bound", "robustness_bound", "theoretical_smoothness",
               "theoretical_impossibility", "curve_rows")

WRAPPERS = ("pred_ba", "auth_pred_ba")


class Probe:
    """Wrappers installed into the imported byzsim modules for one round."""

    def __init__(self, traced: bool, guarantee=None):
        self.traced = traced
        # (mode, alpha, n, faulty, prediction) -> (fault count the run must
        # have or None, whether the paper guarantees its outcome)
        self.guarantee = guarantee
        self.counts = Counter()
        self.eta_trials = Counter()
        self.run_problems = []
        self.incl = Counter()
        self.self_time = Counter()
        self.spans = []
        self._depth = Counter()
        self._stack = []
        self._run_rounds = 0
        self._undo = []
        self._t0 = time.perf_counter()

    # -- installation -----------------------------------------------------

    def _patch(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        from byzsim import adversary, cli, harness, predba, protocols, registry, simnet

        self._simnet = simnet
        self._protocols = protocols
        run_simulation = simnet.run_simulation
        self._patch(harness, "run_simulation",
                    self._run_wrapper(run_simulation, "harness.unique_runs"))
        self._patch(cli, "run_simulation", self._run_wrapper(run_simulation))

        cache_run = harness.RunCache.run
        counts = self.counts

        def run(cache, scenario):
            counts["harness.trials"] += 1
            return cache_run(cache, scenario)

        self._patch(harness.RunCache, "run", run)

        resilience = harness.empirical_resilience

        def empirical_resilience(mode, alpha, n, eta, **kwargs):
            before = counts["harness.trials"]
            try:
                return resilience(mode, alpha, n, eta, **kwargs)
            finally:
                self.eta_trials[eta] += counts["harness.trials"] - before

        self._patch(harness, "empirical_resilience", empirical_resilience)
        if not self.traced:
            return

        self._patch(cli, "main", self._spanned("cli.main", cli.main))
        for name in ("verify_consistency", "verify_robustness", "sweep"):
            self._patch(harness, name, self._spanned("harness.battery",
                                                     getattr(harness, name)))
        self._patch(cli, "sweep", harness.sweep)
        for name in CORE_BOUNDS:
            self._patch(harness, name, self._spanned(
                "core.curve", getattr(harness, name), "core.curve_calls"))
        self._patch(predba, "build_active_set", self._spanned(
            "predba.active_set", predba.build_active_set, "predba.active_set_calls"))
        self._patch(protocols, "payload_digest", self._counted(
            "protocols.digests", protocols.payload_digest))
        self._patch(simnet.SignatureLedger, "mint", self._counted(
            "simnet.sig_mints", simnet.SignatureLedger.mint))
        self._patch(simnet.SignatureLedger, "verify", self._counted(
            "simnet.sig_verifies", simnet.SignatureLedger.verify))

        to_json = simnet.payload_to_json
        stack = self._stack

        def payload_to_json(payload):
            # Only the engine's own calls are transcript encoding; the same
            # function also runs inside payload_digest.
            if stack and stack[-1][2] == "simnet.run":
                return self._span("simnet.transcript", to_json, payload)
            return to_json(payload)

        self._patch(simnet, "payload_to_json", payload_to_json)
        self._patch(registry, "factory_for", self._factory_wrapper(registry.factory_for))
        self._patch(adversary, "build_strategy",
                    self._strategy_wrapper(adversary.build_strategy))

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- spans ------------------------------------------------------------

    def _span(self, name, fn, *args, **kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        keep = name in KEPT_SPANS
        if keep:
            kept = len(self.spans)
            self.spans.append(None)
        else:
            kept = parent[1] if parent else -1
        frame = [0.0, kept, name]
        stack.append(frame)
        depth = self._depth
        depth[name] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            depth[name] -= 1
            if not depth[name]:
                self.incl[name] += duration
            self.self_time[name] += duration - frame[0]
            if parent is not None:
                parent[0] += duration
            if keep:
                self.spans[kept] = (name, round(start - self._t0, 6),
                                    round(duration, 6), parent[1] if parent else -1)

    def _spanned(self, name, fn, count=None):
        counts, span = self.counts, self._span

        def wrapped(*args, **kwargs):
            if count:
                counts[count] += 1
            return span(name, fn, *args, **kwargs)

        return wrapped

    def _counted(self, count, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)

        return wrapped

    # -- runs ---------------------------------------------------------------

    def _run_wrapper(self, run_simulation, count=None):
        counts = self.counts

        def wrapped(scenario, *args, **kwargs):
            counts["simnet.runs"] += 1
            if count:
                counts[count] += 1
            if not self.traced:
                return run_simulation(scenario, *args, **kwargs)
            self._run_rounds = 0
            result = self._span("simnet.run", run_simulation, scenario, *args, **kwargs)
            counts["simnet.rounds"] += self._run_rounds
            # Checked under a span of its own, so the check's time is not
            # charged to the layer that called run_simulation.
            self._span("bench.check", self._check_run, scenario, result[0])
            return result

        return wrapped

    def _check_run(self, scenario, outcome):
        if scenario.protocol not in WRAPPERS or not isinstance(
                scenario.prediction, frozenset):
            return
        faults, guaranteed = self.guarantee(
            scenario.mode, scenario.alpha, scenario.n, scenario.config.faulty,
            scenario.prediction)
        problems = checks.check_run(
            mode=scenario.mode, alpha=scenario.alpha, n=scenario.n,
            faulty=scenario.config.faulty, inputs=dict(scenario.config.inputs),
            prediction=scenario.prediction, decisions=dict(outcome.decisions),
            decided_round=outcome.decided_round,
            flags={"agreement": outcome.agreement, "validity": outcome.validity,
                   "termination": outcome.termination},
            expected_faults=faults, guaranteed=guaranteed)
        if problems:
            self.run_problems.append(
                f"{scenario.mode} alpha={scenario.alpha} n={scenario.n} "
                f"adversary={scenario.adversary.name}: {'; '.join(problems)}")

    # -- instances ----------------------------------------------------------

    def _factory_wrapper(self, factory_for):
        counts, span = self.counts, self._span
        signer_type = self._simnet.Signer

        def traced_factory_for(scenario):
            make = factory_for(scenario)
            honest = scenario.config.honest

            def traced_make(ctx):
                inst = span("registry.build", make, ctx)
                counts["registry.instances_built"] += 1
                # The engine hands honest nodes a plain Signer; persona and
                # shadow instances are the adversary's.
                engine_node = ctx.node_id in honest and type(ctx.signer) is signer_type
                if not engine_node:
                    counts["adversary.instances"] += 1
                if hasattr(inst, "aset"):
                    self._wrap_node(inst, "predba.node", engine_node)
                    if inst.inner is not None:
                        self._wrap_node(inst.inner, self._protocol_span(inst.inner), False)
                else:
                    self._wrap_node(inst, self._protocol_span(inst), engine_node)
                return inst

            return traced_make

        return traced_factory_for

    def _protocol_span(self, inst):
        if isinstance(inst, self._protocols.PhaseKing):
            return "protocols.phase_king"
        return "protocols.dolev_strong"

    def _wrap_node(self, inst, name, engine_node):
        counts, span = self.counts, self._span
        outbox, deliver = inst.outbox, inst.deliver

        def traced_outbox(rnd):
            return span(name, outbox, rnd)

        def traced_deliver(rnd, inbox):
            if engine_node:
                counts["simnet.messages_delivered"] += len(inbox)
                if rnd > self._run_rounds:
                    self._run_rounds = rnd
            return span(name, deliver, rnd, inbox)

        inst.outbox = traced_outbox
        inst.deliver = traced_deliver

    def _strategy_wrapper(self, build_strategy):
        counts, span = self.counts, self._span

        def traced_build_strategy(spec, scenario):
            strategy = build_strategy(spec, scenario)
            begin, emit, observe = strategy.begin, strategy.emit, strategy.observe

            def traced_emit(rnd, honest_messages):
                out = span("adversary.emit", emit, rnd, honest_messages)
                counts["adversary.messages_emitted"] += len(out)
                return out

            strategy.begin = lambda ctx: span("adversary.begin", begin, ctx)
            strategy.emit = traced_emit
            strategy.observe = lambda rnd, msgs: span("adversary.observe", observe,
                                                      rnd, msgs)
            return strategy

        return traced_build_strategy

    # -- results ------------------------------------------------------------

    def per_layer(self) -> dict:
        c, incl, own = self.counts, self.incl, self.self_time
        trials, unique = c["harness.trials"], c["harness.unique_runs"]
        values = {
            "harness.trials": trials,
            "harness.unique_runs": unique,
            "harness.memo_hits": trials - unique,
            "harness.memo_hit_ratio": (trials - unique) / trials if trials else 0.0,
            "harness.self_s": own["harness.battery"],
            "simnet.engine_self_s": own["simnet.run"],
            "simnet.transcript_s": incl["simnet.transcript"],
            "registry.build_s": incl["registry.build"],
            "predba.active_set_s": incl["predba.active_set"],
            "predba.self_s": own["predba.node"] + own["predba.active_set"],
            "protocols.phase_king_s": incl["protocols.phase_king"],
            "protocols.dolev_strong_s": incl["protocols.dolev_strong"],
            "adversary.begin_s": incl["adversary.begin"],
            "adversary.emit_s": incl["adversary.emit"],
            "adversary.observe_s": incl["adversary.observe"],
            "core.curve_s": incl["core.curve"],
            "cli.self_s": own["cli.main"],
        }
        for name in PER_LAYER:
            values.setdefault(name, c[name])
        return {name: values[name] for name in PER_LAYER}
