"""Closed-loop benchmark of the aramid decoders on the desk instances.

    python3 perfbench/run.py --workload plain-errors --seed 1 --seconds 20 --trace 0

One caller in one process runs trials back to back: draw a message, encode
it, corrupt it inside the decoder's contract, decode it and check exact
recovery. `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer metrics from a traced pass plus the tracing overhead against an
untraced pass of the same run. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only when
every trial decoded exactly. perfbench/README.md lists the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The trials are split into ROUNDS chunks, with BUILDS_PER_ROUND builds before
# each chunk and a set-up before every other one. Spreading the repeats over
# the whole run samples more of the host's speed swings than back-to-back
# repeats would.
ROUNDS = 5
BUILDS_PER_ROUND = 2
MIN_TRIALS = 100  # exact counts come from this prefix; >= 10 samples past p90
BLOCK = 10  # trials per throughput sample
BLAS_THREADS = 1  # at most nproc; one thread keeps a shared 2-core box steady


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class TrialLoop:
    """Closed-loop trials with indices running on across calls to `run`."""

    def __init__(self, workload, seed: int, tracer=None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.enc_ms: list[float] = []
        self.dec_ms: list[float] = []
        self.block_rates: list[float] = []  # trials/s over each BLOCK trials
        self.digest = hashlib.sha256()  # of the first MIN_TRIALS decoder inputs
        self.snapshot = None  # tracer aggregates after MIN_TRIALS trials

    def run(self, seconds: float, min_trials: int = 0) -> None:
        """Trials for at least `seconds`, until `min_trials` were attempted."""
        from aramid import channel

        w, tracer = self.workload, self.tracer
        span = tracer.span if tracer else (lambda name, _null=nullcontext(): _null)
        perf = time.perf_counter
        start = block_start = perf()
        done = 0
        while self.attempted < min_trials or perf() - start < seconds:
            rng = channel.trial_rng(self.seed, self.attempted)
            msg = w.message(rng)
            with span("trial.encode"):
                t0 = perf()
                sent = w.encode(msg)
                t1 = perf()
            with span("trial.channel"):
                received = w.corrupt(rng, sent)
            with span("trial.decode"):
                t2 = perf()
                result = w.decode(*received)
                t3 = perf()
            if not w.recovered(msg, sent, result):
                self.failed += 1
            self.enc_ms.append((t1 - t0) * 1e3)
            self.dec_ms.append((t3 - t2) * 1e3)
            self.attempted += 1
            if self.attempted <= MIN_TRIALS:
                for arr in received:
                    self.digest.update(arr.tobytes())
            if self.attempted == MIN_TRIALS and tracer:
                self.snapshot = tracer.snapshot()
            done += 1
            if done % BLOCK == 0:
                now = perf()
                self.block_rates.append(BLOCK / (now - block_start))
                block_start = now
        self.busy_s += perf() - start

    @property
    def trials_per_s(self) -> float:
        return self.attempted / self.busy_s


def percentile(values, pct: float) -> float:
    import numpy as np

    return float(np.percentile(values, pct))


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(str(lib)), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_metadata() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
    }


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def end_to_end(workload, args, config_path, instance_path):
    loop = TrialLoop(workload, args.seed)
    build_s, setup_s = [], []
    for r in range(ROUNDS):
        for _ in range(BUILDS_PER_ROUND):
            build_s.append(timed(lambda: workload.build(config_path, instance_path)))
        if r % 2 == 0:
            setup_s.append(timed(lambda: workload.setup(instance_path)))
        loop.run(args.seconds / ROUNDS, MIN_TRIALS if r == ROUNDS - 1 else 0)
        if r == 0:
            # what one `run` process peaks at: later set-ups reuse the heap
            # differently from run to run and add up to ~20 MB of noise
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = loop.attempted
    ok = n - loop.failed
    blocks = f"{len(loop.block_rates)} blocks of {BLOCK} trials"
    metrics = {
        "trials_per_s_p10": (percentile(loop.block_rates, 10), "1/s", blocks),
        "decode_ms_p90": (percentile(loop.dec_ms, 90), "ms", f"n={n}"),
        "encode_ms_p90": (percentile(loop.enc_ms, 90), "ms", f"n={n}"),
        "success_rate": (ok / n, "frac", f"{ok}/{n}"),
        "setup_s": (statistics.median(setup_s), "s", f"median of {len(setup_s)}"),
        "build_s": (percentile(build_s, 80), "s", f"p80 of {len(build_s)}"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss after the first set-up and chunk"),
    }
    # central figures, printed but not gated: they follow the host's
    # fast/slow mix from run to run (perfbench/README.md, "Noise")
    info = {
        "trials_per_s": (loop.trials_per_s, "1/s", f"{n} trials in {loop.busy_s:.2f} s"),
        "decode_ms_p50": (percentile(loop.dec_ms, 50), "ms", f"n={n}"),
        "encode_ms_p50": (percentile(loop.enc_ms, 50), "ms", f"n={n}"),
    }
    return metrics, info, [loop]


def per_layer(workload, args, config_path, instance_path):
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    with tracer.patched():
        with tracer.span("build"):
            workload.build(config_path, instance_path)
        with tracer.span("setup"):
            workload.setup(instance_path)
    untraced = TrialLoop(workload, args.seed)
    untraced.run(args.seconds / 2, MIN_TRIALS)
    traced = TrialLoop(workload, args.seed, tracer)
    with tracer.patched():
        traced.run(args.seconds / 2, MIN_TRIALS)
    words = traced.attempted
    metrics = {
        name: (value, unit, f"{words} traced words")
        for name, (value, unit) in layer_metrics(
            tracer, traced.snapshot, words, MIN_TRIALS
        ).items()
    }
    metrics["trace.overhead_frac"] = (
        1 - traced.trials_per_s / untraced.trials_per_s,
        "frac",
        f"{traced.trials_per_s:.3f} vs {untraced.trials_per_s:.3f} trials/s",
    )
    return metrics, {}, [untraced, traced]


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "aramid" / "__init__.py").is_file():
        print(f"error: no aramid package under {src}", file=sys.stderr)
        return 2
    # before numpy is imported, so that OpenBLAS reads it
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    meta = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    meta.update(run_metadata(), loadavg_start=os.getloadavg())

    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=scratch)
    try:
        config_path = os.path.join(workdir, "config.json")
        instance_path = os.path.join(workdir, "instance.json")
        with open(config_path, "w") as fh:
            json.dump(workload.config, fh)
        measure = per_layer if args.trace else end_to_end
        metrics, info, loops = measure(workload, args, config_path, instance_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    meta.update(loadavg_end=os.getloadavg(), inputs_sha256=loops[0].digest.hexdigest())
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit}  ({note})")
    for name, (value, unit, note) in info.items():
        print(f"{name} = {value:.6g} {unit}  ({note}; not gated)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
