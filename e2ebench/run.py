#!/usr/bin/env python3
"""End-to-end benchmark of aligned versus plain completion.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports tokalign from its
``src/`` directory.  The load is a closed loop: one process, one client, no
threads; each request starts when the previous one returns.  Every prompt
goes through ``align.aligned_generate`` (the aligned arm) and then
``decoding.generate`` (the plain arm) with the same sampler settings.

A run builds the system several times and keeps the last build, makes its
prompts from the seed, serves one untimed warm-up pass that fills the mask
cache and fixes the expected outputs, then serves the prompts in a cycle
until ``--seconds`` have gone by.  With ``--trace 1`` it then starts a fresh mask
cache and serves a warm-up pass and one timed pass with span wrappers
installed, and reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
ARMS = ("aligned", "plain")

# Reference samples (one per prompt) in the median that sets a prompt's speed.
NEIGHBOURS = 5
# Build references timed before and after each set-up, and their nominal time.
SETUP_REFERENCES = 5
BUILD_REFERENCE_MS = 4.0

END_TO_END_UNITS = {
    "req_ms_p50": "ms",
    "req_ms_p90": "ms",
    "plain_req_ms_p50": "ms",
    "overhead_x": "ratio",
    "tok_per_s": "tokens/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "vocab.encode_us_p50": "us",
    "vocab.encode_us_p99": "us",
    "trie.build_s": "s",
    "trie.nodes": "count",
    "trie.lookup_us_p50": "us",
    "trie.lookup_us_p99": "us",
    "trie.match_us_p50": "us",
    "trie.match_us_p99": "us",
    "trie.cache_hit_ratio": "ratio",
    "trie.cache_evictions": "count",
    "trie.mask_size_mean": "tokens",
    "align.backtrack_us_p50": "us",
    "align.mask_us_p50": "us",
    "align.mask_us_p99": "us",
    "align.steps_per_req": "count",
    "align.steps_mode": "count",
    "align.phase_us_p50": "us",
    "decoding.provider_us_p50": "us",
    "decoding.provider_calls_per_req": "count",
    "decoding.sample_align_us_p50": "us",
    "decoding.sample_free_us_p50": "us",
    "decoding.sample_free_us_p99": "us",
    "decoding.check_calls_per_req": "count",
    "decoding.check_us_per_req": "us",
    "decoding.free_phase_us_p50": "us",
    "vocab.self_us_per_req": "us",
    "trie.self_us_per_req": "us",
    "align.self_us_per_req": "us",
    "decoding.self_us_per_req": "us",
    "trace.overhead_x": "ratio",
    "fail_frac": "ratio",
}

LAYERS = ("vocab", "trie", "align", "decoding")
ROOT_SPANS = {"aligned": "align.aligned_generate", "plain": "decoding.generate"}


def import_tokalign():
    """Import tokalign from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tokalign
    except ImportError as exc:
        raise SystemExit(f"e2ebench: cannot import tokalign from {src}: {exc}")
    if src.resolve() not in Path(tokalign.__file__).resolve().parents:
        raise SystemExit(f"e2ebench: tokalign was imported from {tokalign.__file__}, not {src}")


class Reference:
    """Fixed work that runs no tokalign code, timed after every prompt.

    An 800-step dict loop, then a stable argsort of ``sort_size`` floats.
    Its time tracks how fast the machine runs at that moment; see
    ``Phase.scaled``.  Interpreter code and NumPy sorts slow by
    different factors when the machine is contended, so each workload
    sizes the sort to weigh the two as its requests do.
    """

    def __init__(self, sort_size: int, nominal_ms: float):
        rng = np.random.default_rng(0)
        self.keys = rng.random(sort_size)
        # End-to-end times are reported as if the machine ran at the speed
        # where this work takes nominal_ms.
        self.nominal_ms = nominal_ms
        self.words = [bytes(rng.integers(97, 123, int(n)).tolist()) for n in rng.integers(2, 13, 6000)]

    def time_ms(self) -> float:
        t0 = time.perf_counter_ns()
        table: dict[int, int] = {}
        for i in range(800):
            table[i & 31] = table.get(i & 31, 0) + i
        np.argsort(self.keys, kind="stable")
        return (time.perf_counter_ns() - t0) / 1e6

    def build_ms(self) -> float:
        """Time a small build shaped like a trie build: 6000 words into nested dicts.

        Set-up allocates hundreds of thousands of small objects, which
        contention slows by another factor than it slows ``time_ms``.
        """
        gc.disable()  # time the machine, not collections of whatever else is alive
        try:
            t0 = time.perf_counter_ns()
            root: dict = {}
            for word in self.words:
                node = root
                for b in word:
                    node = node.setdefault(b, {})
            return (time.perf_counter_ns() - t0) / 1e6
        finally:
            gc.enable()


class Phase:
    """Counts and samples of one phase: warm-up, timed, or traced."""

    def __init__(self, reference: Reference, vocab=None):
        self.reference = reference
        self.sent = Counter()
        self.failed = Counter()
        # One entry per prompt served, None where the request failed.
        self.latency_ms = {arm: [] for arm in ARMS}
        self.reference_ms: list[float] = []
        # Tokens each aligned request emitted, None where it failed.
        self.tokens: list[int | None] = []
        self.steps = Counter()
        self.mask_sizes: list[int] = []
        self.lost_prompt = 0
        self.mismatched = 0
        # Given a vocabulary, record every alignment prefix looked up.
        self._vocab = vocab
        self.prefixes: set[bytes] = set()

    def requests(self) -> dict:
        return {
            arm: {"sent": self.sent[arm], "succeeded": self.sent[arm] - self.failed[arm],
                  "failed": self.failed[arm]}
            for arm in ARMS
        }

    def record_aligned(self, result, prompt) -> None:
        self.tokens[-1] = len(result.token_ids) - prompt.context_len
        self.steps[result.alignment_steps] += 1
        self.mask_sizes.extend(result.mask_sizes)
        if self._vocab is not None:
            prefix = prompt.prefix
            first = prompt.context_len
            for token_id in result.token_ids[first : first + result.alignment_steps]:
                self.prefixes.add(prefix)
                prefix = prefix[len(self._vocab.tokens[token_id]):]

    def raw(self, arm: str) -> list[float]:
        return [ms for ms in self.latency_ms[arm] if ms is not None]

    def speed(self) -> np.ndarray:
        """Per prompt: the nominal over the local median reference time."""
        ref = np.asarray(self.reference_ms)
        half = NEIGHBOURS // 2
        padded = np.pad(ref, half, mode="edge")
        local = np.median(np.lib.stride_tricks.sliding_window_view(padded, NEIGHBOURS), axis=1)
        return self.reference.nominal_ms / local

    def scaled(self, arm: str) -> list[float | None]:
        """Latencies scaled to the speed at which the reference takes its nominal time.

        Other tenants of a shared host slow every instruction of this
        process by up to about 1.6x, for spells of a fraction of a second
        to minutes.  Scaling each request by the reference timed beside it
        removes most of that; a change to tokalign moves the request and
        not the reference.
        """
        return [None if ms is None else ms * f for ms, f in zip(self.latency_ms[arm], self.speed())]

    def normalized(self, arm: str) -> list[float]:
        return [ms for ms in self.scaled(arm) if ms is not None]

    def token_rates(self) -> list[float]:
        """Tokens per second of each successful aligned request, scaled like its latency."""
        return [tokens * 1e3 / ms for tokens, ms in zip(self.tokens, self.scaled("aligned"))
                if ms is not None]


def serve(calls, prompts, expected, phase: Phase, tracer=None, seconds=None) -> dict:
    """Send prompts through each arm in turn; return the outputs per arm.

    Without ``seconds`` this is one pass over the prompts.  With it, the
    prompts are served in a cycle until that many seconds have elapsed.
    A typed error (tokalign's errors derive from AlignmentError or
    ValueError) fails the request without stopping the run; its output
    is the error's class name.  Outputs are compared with ``expected``.
    """
    from tokalign import AlignmentError

    clock = time.perf_counter_ns
    order = range(len(prompts)) if seconds is None else itertools.cycle(range(len(prompts)))
    deadline = None if seconds is None else time.perf_counter() + seconds
    outputs = {arm: [None] * len(prompts) for arm in ARMS}
    for i in order:
        prompt = prompts[i]
        for arm, call in calls:
            if tracer is not None:
                tracer.request += 1
            if arm == "aligned":
                phase.tokens.append(None)
            phase.sent[arm] += 1
            latency = None
            t0 = clock()
            try:
                result = call(prompt)
            except (AlignmentError, ValueError) as exc:
                phase.failed[arm] += 1
                output = type(exc).__name__
            else:
                elapsed = clock() - t0
                output = result.output
                if not output.startswith(prompt.text):
                    phase.failed[arm] += 1
                    phase.lost_prompt += 1
                else:
                    latency = elapsed / 1e6
                    if arm == "aligned":
                        phase.record_aligned(result, prompt)
            phase.latency_ms[arm].append(latency)
            outputs[arm][i] = output
            if expected is not None and output != expected[arm][i]:
                phase.mismatched += 1
        phase.reference_ms.append(phase.reference.time_ms())
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return outputs


def digest(outputs: list) -> str:
    h = hashlib.sha256()
    for out in outputs:
        if isinstance(out, bytes):
            h.update(b"o%d:" % len(out) + out)
        else:
            h.update(b"e" + out.encode() + b";")
    return h.hexdigest()


def arm_calls(system, provider, cache, wrap=None):
    from tokalign import aligned_generate, generate
    from workloads import ALIGN_CFG

    def aligned(p):
        return aligned_generate(provider, system.vocab, system.trie, cache, p.text, ALIGN_CFG, p.sampler)

    def plain(p):
        return generate(provider, system.vocab, p.text, p.sampler)

    calls = [("aligned", aligned), ("plain", plain)]
    if wrap is not None:
        calls = [(arm, wrap(ROOT_SPANS[arm], fn)) for arm, fn in calls]
    return calls


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class CacheWatch:
    """Hits, misses and evictions of a MaskCache between two points."""

    def __init__(self, cache):
        self.cache = cache
        self.start = (cache.hits, cache.misses, len(cache))

    def delta(self) -> dict:
        hits = self.cache.hits - self.start[0]
        misses = self.cache.misses - self.start[1]
        growth = len(self.cache) - self.start[2]
        return {"hits": hits, "misses": misses, "evictions": misses - growth,
                "hit_ratio": hits / (hits + misses) if hits + misses else 0.0}


def environment() -> dict:
    return {
        "debug": __debug__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def timed_setup(spec, corpus, reference: Reference) -> tuple[object, dict]:
    """Build the system once; return it with the seconds each part took.

    ``setup_s_scaled`` is the build time scaled, like request latencies,
    by build references timed just before and just after it.
    """
    from workloads import build_system

    gc.collect()
    around = [reference.build_ms() for _ in range(SETUP_REFERENCES)]
    t0 = time.perf_counter()
    system, parts = build_system(spec, corpus)
    parts["setup_s"] = time.perf_counter() - t0
    around += [reference.build_ms() for _ in range(SETUP_REFERENCES)]
    parts["setup_s_scaled"] = parts["setup_s"] * BUILD_REFERENCE_MS / statistics.median(around)
    return system, parts


def run_workload(spec, seed: int, seconds: float, trace: bool) -> dict:
    from tokalign import MaskCache

    import spans
    from workloads import CACHE_CAPACITY, load_inputs, make_prompts

    corpus = load_inputs(spec)
    reference = Reference(spec.reference_sort, spec.reference_ms)
    setups = []
    for _ in range(spec.setup_reps):
        system = None  # free the previous build, so builds never overlap in memory
        system, parts = timed_setup(spec, corpus, reference)
        setups.append(parts)

    prompts = make_prompts(spec, seed, corpus, system.vocab)
    calls = arm_calls(system, system.provider, system.cache)

    warm = Phase(reference, system.vocab)
    warm_watch = CacheWatch(system.cache)
    expected = serve(calls, prompts, None, warm)
    warm_cache = warm_watch.delta()

    timed = Phase(reference)
    timed_watch = CacheWatch(system.cache)
    serve(calls, prompts, expected, timed, seconds=seconds)
    timed_cache = timed_watch.delta()

    phases = {"warmup": warm, "timed": timed}
    digests = {arm: digest(expected[arm]) for arm in ARMS}
    lat_a, lat_p = timed.normalized("aligned"), timed.normalized("plain")
    req_ms_p50 = percentile(lat_a, 50)
    plain_ms_p50 = percentile(lat_p, 50)

    record = {
        "workload": spec.name,
        "seed": seed,
        "prompts": len(prompts),
        "mean_prompt_bytes": statistics.fmean(len(p.text) for p in prompts),
        "cache_capacity": CACHE_CAPACITY,
        "distinct_alignment_prefixes": len(warm.prefixes),
        "alignment_steps_histogram": {str(k): v for k, v in sorted(warm.steps.items())},
        "cache_warmup": warm_cache,
        "cache_steady": timed_cache,
        "timed_prompts_served": len(timed.reference_ms),
        "latency_samples": {arm: len(timed.raw(arm)) for arm in ARMS},
        "raw": {
            "req_ms_p50": percentile(timed.raw("aligned"), 50),
            "req_ms_p90": percentile(timed.raw("aligned"), 90),
            "plain_req_ms_p50": percentile(timed.raw("plain"), 50),
            "setup_s": statistics.median(p["setup_s"] for p in setups),
            "speed_p10_p50_p90": [percentile(timed.speed(), q) for q in (10, 50, 90)],
        },
        "setup_parts_s": setups,
        "digests": digests,
        "environment": environment(),
    }

    if not trace:
        metrics = {
            "req_ms_p50": req_ms_p50,
            "req_ms_p90": percentile(lat_a, 90),
            "plain_req_ms_p50": plain_ms_p50,
            "overhead_x": req_ms_p50 / plain_ms_p50,
            "tok_per_s": percentile(timed.token_rates(), 50),
            "setup_s": statistics.median(p["setup_s_scaled"] for p in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        # A fresh cache gives the traced phases the start state the
        # untraced ones had, so their latencies compare like for like.
        cache = MaskCache(system.trie, CACHE_CAPACITY)
        tracer = spans.Tracer()
        provider = spans.TracedProvider(system.provider, tracer)
        traced_calls = arm_calls(system, provider, cache, wrap=tracer.wrap)
        traced_warm, traced_timed = Phase(reference), Phase(reference)
        with spans.installed(tracer):
            traced_expected = serve(traced_calls, prompts, expected, traced_warm, tracer)
            watch = CacheWatch(cache)
            serve(traced_calls, prompts, expected, traced_timed, tracer)
            traced_cache = watch.delta()
        phases.update(traced_warmup=traced_warm, traced_timed=traced_timed)
        traced_digests = {arm: digest(traced_expected[arm]) for arm in ARMS}
        record["traced_digests"] = traced_digests
        record["cache_traced_steady"] = traced_cache
        if traced_digests != digests:
            record["error"] = "traced outputs differ from untraced outputs"

        arrays = tracer.arrays()
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{spec.name}-seed{seed}.npz"
        np.savez(span_file, meta=np.asarray(json.dumps(record)), **arrays)
        record["span_file"] = str(span_file.relative_to(ROOT))
        record["spans"] = len(tracer.names)

        metrics = layer_metrics(arrays, (traced_warm, traced_timed))
        metrics.update({
            "trie.build_s": statistics.median(p["trie_s"] for p in setups),
            "trie.nodes": system.trie.node_count,
            "trie.cache_hit_ratio": traced_cache["hit_ratio"],
            "trie.cache_evictions": traced_cache["evictions"],
            "trace.overhead_x": percentile(traced_timed.normalized("aligned"), 50) / req_ms_p50,
        })

    attempted = sum(sum(ph.sent.values()) for ph in phases.values())
    failed = sum(sum(ph.failed.values()) for ph in phases.values())
    if trace:
        metrics["fail_frac"] = failed / attempted
    record["requests"] = {name: ph.requests() for name, ph in phases.items()}
    record["fail_frac"] = failed / attempted
    lost = sum(ph.lost_prompt for ph in phases.values())
    mismatched = sum(ph.mismatched for ph in phases.values())
    record["prompt_not_preserved"] = lost
    record["outputs_differing_from_warmup"] = mismatched
    correct = lost == 0 and mismatched == 0 and "error" not in record
    return {
        "record": record,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def layer_metrics(sp: dict, phases) -> dict:
    """Per-layer metrics from the traced phases' spans and results.

    Function timings are self times (span minus traced callees), except
    ``trie.lookup_us_*``, ``align.phase_us_p50`` and
    ``decoding.free_phase_us_p50``, which are whole spans.  A timing whose
    call never happened in the traced phases reads 0.
    """
    names = list(sp["names"])
    name = sp["name"]
    code = {n: k for k, n in enumerate(names)}
    self_us = sp["self_ns"] / 1e3
    span_us = (sp["end_ns"] - sp["start_ns"]) / 1e3
    parent = sp["parent"]

    def of(span_name: str, values=self_us):
        return values[name == code.get(span_name, -1)]

    roots = parent < 0
    n_requests = int(roots.sum())
    aligned_root = code.get(ROOT_SPANS["aligned"], -1)
    parent_name = np.where(roots, -1, name[np.maximum(parent, 0)])
    in_aligned = parent_name == aligned_root
    backtrack = (name == code.get("align.backtrack_split", -1)) & in_aligned
    free = (name == code.get("decoding.run_free_phase", -1)) & in_aligned
    backtrack_end = dict(zip(parent[backtrack].tolist(), sp["end_ns"][backtrack].tolist()))
    phase_us = [
        (start - backtrack_end[p]) / 1e3
        for p, start in zip(parent[free].tolist(), sp["start_ns"][free].tolist())
        if p in backtrack_end
    ]

    steps = Counter()
    mask_sizes: list[int] = []
    for ph in phases:
        steps.update(ph.steps)
        mask_sizes.extend(ph.mask_sizes)
    aligned_requests = sum(steps.values())
    metrics = {
        "vocab.encode_us_p50": percentile(of("vocab.encode"), 50),
        "vocab.encode_us_p99": percentile(of("vocab.encode"), 99),
        "trie.lookup_us_p50": percentile(of("trie.lookup", span_us), 50),
        "trie.lookup_us_p99": percentile(of("trie.lookup", span_us), 99),
        "trie.match_us_p50": percentile(of("trie.matching_tokens"), 50),
        "trie.match_us_p99": percentile(of("trie.matching_tokens"), 99),
        "trie.mask_size_mean": statistics.fmean(mask_sizes) if mask_sizes else 0.0,
        "align.backtrack_us_p50": percentile(of("align.backtrack_split"), 50),
        "align.mask_us_p50": percentile(of("align.mask_distribution"), 50),
        "align.mask_us_p99": percentile(of("align.mask_distribution"), 99),
        "align.steps_per_req": (
            sum(k * v for k, v in steps.items()) / aligned_requests if aligned_requests else 0.0
        ),
        "align.steps_mode": max(steps.items(), key=lambda kv: (kv[1], -kv[0]))[0] if steps else 0,
        "align.phase_us_p50": percentile(phase_us, 50),
        "decoding.provider_us_p50": percentile(of("decoding.provider"), 50),
        "decoding.provider_calls_per_req": of("decoding.provider").size / n_requests,
        "decoding.sample_align_us_p50": percentile(of("decoding.sample_align"), 50),
        "decoding.sample_free_us_p50": percentile(of("decoding.sample_free"), 50),
        "decoding.sample_free_us_p99": percentile(of("decoding.sample_free"), 99),
        "decoding.check_calls_per_req": of("decoding.check_distribution").size / n_requests,
        "decoding.check_us_per_req": float(of("decoding.check_distribution").sum()) / n_requests,
        "decoding.free_phase_us_p50": percentile(of("decoding.run_free_phase", span_us), 50),
    }
    for layer in LAYERS:
        in_layer = np.asarray([n.startswith(layer + ".") for n in names])
        metrics[f"{layer}.self_us_per_req"] = float(self_us[in_layer[name]].sum()) / n_requests
    return metrics


def print_report(spec, result: dict, trace: bool) -> None:
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    record = result["record"]
    print(f"workload {spec.name}  seed {record['seed']}  trace {int(trace)}")
    for name, unit in units.items():
        value = result["metrics"][name]
        note = ""
        if name == "req_ms_p90":
            note = f"  (n={record['latency_samples']['aligned']})"
        print(f"  {name:34s} {value:14.6f} {unit}{note}")
    if not trace:
        print(f"  {'fail_frac':34s} {record['fail_frac']:14.6f} ratio"
              f"  ({result['failed']} failed of {result['attempted']} attempted)")
    print("working_set " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def run_all(args, names) -> int:
    """Run every workload in its own fresh process; end with a combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"e2ebench: workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_tokalign()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    spec = WORKLOADS.get(args.workload)
    if spec is None:
        raise SystemExit(f"e2ebench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    result = run_workload(spec, args.seed, args.seconds, bool(args.trace))
    print_report(spec, result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
