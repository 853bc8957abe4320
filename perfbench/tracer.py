"""Spans around calls into the aramid layers, recorded from outside the package.

`Tracer.patched()` wraps the public functions and methods listed in
`TARGETS`. A module-level function is replaced in every aramid module that
holds it, because `cli`, `ltenc` and `gmd` import functions by name, so
patching the defining module alone would miss their calls. Methods are
replaced on their class. Each span knows its parent and the phase span at
the bottom of the stack ("build", "setup", "trial.encode", "trial.channel",
"trial.decode"), which is enough to derive self times and stage splits.
Spans are folded into per-(phase, parent, name) aggregates as they close,
so memory stays flat however long the run is.
"""

from __future__ import annotations

import copy
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from aramid import bigraph, channel, cli, gmd, grs, iterdec, linalg, ltenc, tanner

# -- observers: exact counts read from the values a layer returns ----------------


def _grs_decode_counts(args, kwargs, result):
    erased = args[2] if len(args) > 2 else kwargs.get("erased")
    return {
        "grs.decode_none": int(result is None),
        "grs.decode_erasure": int(erased is not None and bool(np.any(erased))),
    }


def _decode_phi_counts(args, kwargs, report):
    return {"iterdec.rounds": report.rounds_run, "iterdec.scheduled": report.component_calls}


def _lt_decode_counts(args, kwargs, report):
    erased = report.w_tilde_erased
    return {"ltenc.d2_erased": int(erased.sum()), "ltenc.d2_rows": len(erased)}


def _gmd_decode_counts(args, kwargs, result):
    reliab = result[1].reliabilities
    return {
        "gmd.outer_calls": len(result[1].attempts),
        "gmd.inner_failed": int((reliab == gmd._FAILED_ROW).sum()),
        "gmd.inner_rows": len(reliab),
    }


# (owner, attribute, span name, observer); owners that are classes get the
# wrapper on the class, functions are replaced at every import site.
TARGETS = [
    (cli, "load_plain_instance", "cli.load_instance", None),
    (cli, "load_lt_instance", "cli.load_instance", None),
    (bigraph.BipartiteRegularGraph, "__init__", "bigraph.graph_init", None),
    (bigraph, "gamma", "bigraph.gamma", None),
    (bigraph, "anneal_circulant_bipartite", "bigraph.anneal", None),
    (linalg, "rref", "linalg.rref", None),
    (tanner.TannerCode, "generator", "tanner.generator", None),
    (tanner.TannerCode, "encode_generic", "tanner.encode", None),
    (tanner.TannerCode, "psi", "tanner.encode", None),
    (grs.GrsCode, "decode_ee", "grs.decode", _grs_decode_counts),
    (grs.GrsCode, "syndromes", "grs.syndromes", None),
    (iterdec, "decode_phi", "iterdec.decode_phi", _decode_phi_counts),
    (ltenc.LtCode, "decode", "ltenc.decode", _lt_decode_counts),
    (ltenc.LtCode, "encode_trace", "ltenc.encode", None),
    (ltenc.InterleavedGrsMediator, "decode", "ltenc.mediator_decode", None),
    (gmd.ConcatCode, "decode", "gmd.decode", _gmd_decode_counts),
    (channel, "corrupt_phi", "channel.corrupt", None),
    (channel, "corrupt_pairs", "channel.corrupt", None),
    (channel, "corrupt_inner_rows", "channel.corrupt", None),
]


class Tracer:
    """Span aggregates keyed by (phase, parent, name) plus observed counts."""

    def __init__(self):
        self._stack: list[list] = []  # [name, time covered by child spans]
        # (phase, parent, name) -> [calls, inclusive seconds, self seconds]
        self.spans: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        # (phase, key) -> [observations, sum, max]
        self.counts: dict[tuple, list] = defaultdict(lambda: [0, 0, 0])

    def _enter(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, elapsed: float) -> str:
        stack = self._stack
        stack.pop()
        parent = stack[-1][0] if stack else None
        phase = stack[0][0] if stack else frame[0]
        agg = self.spans[(phase, parent, frame[0])]
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += elapsed - frame[1]
        if stack:
            stack[-1][1] += elapsed
        return phase

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, time.perf_counter() - start)

    def wrap(self, fn, name: str, observe=None):
        def traced(*args, **kwargs):
            frame = self._enter(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                phase = self._exit(frame, time.perf_counter() - start)
            if observe is not None:
                for key, value in observe(args, kwargs, result).items():
                    agg = self.counts[(phase, key)]
                    agg[0] += 1
                    agg[1] += value
                    agg[2] = max(agg[2], value)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, observe in TARGETS:
                original = getattr(owner, attr)
                wrapper = self.wrap(original, name, observe)
                if isinstance(owner, type):
                    sites = [owner]
                else:
                    sites = [
                        mod
                        for key, mod in list(sys.modules.items())
                        if key.startswith("aramid") and getattr(mod, attr, None) is original
                    ]
                for site in sites:
                    saved.append((site, attr, original))
                    setattr(site, attr, wrapper)
            yield self
        finally:
            for site, attr, original in reversed(saved):
                setattr(site, attr, original)

    def snapshot(self) -> "Tracer":
        """Frozen copy of the aggregates, for counts over a fixed trial prefix."""
        snap = Tracer()
        snap.spans.update(copy.deepcopy(dict(self.spans)))
        snap.counts.update(copy.deepcopy(dict(self.counts)))
        return snap

    # -- queries ----------------------------------------------------------------

    def _select(self, name, phase, parent=None) -> list:
        """Summed [calls, inclusive s, self s] of `name` spans in `phase`,
        under any parent unless one is given."""
        tot = [0, 0.0, 0.0]
        for (ph, par, nm), agg in self.spans.items():
            if nm != name or ph != phase:
                continue
            if parent is not None and par != parent:
                continue
            for i in range(3):
                tot[i] += agg[i]
        return tot

    def calls(self, name, phase, parent=None) -> int:
        return self._select(name, phase, parent)[0]

    def total(self, name, phase, parent=None) -> float:
        return self._select(name, phase, parent)[1]

    def self_time(self, name, phase, parent=None) -> float:
        return self._select(name, phase, parent)[2]

    def count(self, key, phase) -> tuple[int, int, int]:
        """(observations, sum, max) of an observed count."""
        return tuple(self.counts.get((phase, key), (0, 0, 0)))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, snap: Tracer, words: int, counted: int) -> dict:
    """Per-layer metrics from one traced build, one traced set-up and `words`
    traced trials; `snap` holds the aggregates after the first `counted`
    trials, from which every exact count is derived."""
    dec = "trial.decode"
    ms = 1e3 / words
    decode_calls = snap.calls("grs.decode", dec)
    scheduled = snap.count("iterdec.scheduled", dec)
    rounds = snap.count("iterdec.rounds", dec)
    setup_s = tr.total("setup", "setup")
    rref_self = tr.self_time("linalg.rref", "setup")
    return {
        "cli.load_instance_s": (tr.total("cli.load_instance", "setup"), "s"),
        "bigraph.graph_init_s": (tr.total("bigraph.graph_init", "setup"), "s"),
        "bigraph.gamma_s": (tr.total("bigraph.gamma", "setup"), "s"),
        "bigraph.anneal_s": (tr.total("bigraph.anneal", "build"), "s"),
        "linalg.rref_calls": (tr.calls("linalg.rref", "setup"), "count"),
        "linalg.rref_self_s": (rref_self, "s"),
        "linalg.rref_setup_frac": (ratio(rref_self, setup_s), "frac"),
        "tanner.generator_self_s": (tr.self_time("tanner.generator", "setup"), "s"),
        "tanner.encode_us": (tr.total("tanner.encode", "trial.encode") * 1e6 / words, "us"),
        "grs.decode_calls_per_word": (decode_calls / counted, "count"),
        "grs.decode_us_per_call": (
            ratio(tr.total("grs.decode", dec) * 1e6, tr.calls("grs.decode", dec)),
            "us",
        ),
        "grs.decode_self_ms_per_word": (tr.self_time("grs.decode", dec) * ms, "ms"),
        "grs.decode_none_frac": (ratio(snap.count("grs.decode_none", dec)[1], decode_calls), "frac"),
        "grs.decode_erasure_frac": (
            ratio(snap.count("grs.decode_erasure", dec)[1], decode_calls),
            "frac",
        ),
        "grs.syndromes_calls_per_word": (snap.calls("grs.syndromes", dec) / counted, "count"),
        "grs.syndromes_self_ms_per_word": (tr.self_time("grs.syndromes", dec) * ms, "ms"),
        "iterdec.self_ms_per_word": (tr.self_time("iterdec.decode_phi", dec) * ms, "ms"),
        "iterdec.rounds_mean": (ratio(rounds[1], rounds[0]), "count"),
        "iterdec.rounds_max": (rounds[2], "count"),
        "iterdec.scheduled_per_word": (scheduled[1] / counted, "count"),
        "iterdec.decoder_hit_frac": (
            ratio(snap.calls("grs.decode", dec, parent="iterdec.decode_phi"), scheduled[1]),
            "frac",
        ),
        "ltenc.d2_ms": (tr.total("grs.decode", dec, parent="ltenc.decode") * ms, "ms"),
        "ltenc.d3_ms": (tr.total("ltenc.mediator_decode", dec) * ms, "ms"),
        "ltenc.d4_ms": (tr.total("iterdec.decode_phi", dec, parent="ltenc.decode") * ms, "ms"),
        "ltenc.decode_self_ms": (tr.self_time("ltenc.decode", dec) * ms, "ms"),
        "ltenc.d2_erased_frac": (
            ratio(snap.count("ltenc.d2_erased", dec)[1], snap.count("ltenc.d2_rows", dec)[1]),
            "frac",
        ),
        "ltenc.encode_ms": (tr.total("ltenc.encode", "trial.encode") * ms, "ms"),
        "gmd.inner_ms": (tr.total("grs.decode", dec, parent="gmd.decode") * ms, "ms"),
        "gmd.outer_ms": (tr.total("iterdec.decode_phi", dec, parent="gmd.decode") * ms, "ms"),
        "gmd.decode_self_ms": (tr.self_time("gmd.decode", dec) * ms, "ms"),
        "gmd.outer_calls_per_word": (snap.count("gmd.outer_calls", dec)[1] / counted, "count"),
        "gmd.inner_failed_frac": (
            ratio(snap.count("gmd.inner_failed", dec)[1], snap.count("gmd.inner_rows", dec)[1]),
            "frac",
        ),
        "channel.corrupt_ms": (tr.total("channel.corrupt", "trial.channel") * ms, "ms"),
    }
