#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; exits non-zero on any failure.

    python3 e2ebench/selftest.py

For every workload, shrunk to a small vocabulary and a few prompts, it
checks that an untraced run emits exactly the end-to-end metrics declared
in BENCHMARK.json and a traced run exactly the per-layer ones, each with
its declared unit; that both pass the correctness gate; that tracing
leaves the outputs unchanged; and that a second run at the same seed
gives the same outputs.
"""

from __future__ import annotations

import dataclasses
import io
import json
import sys
from contextlib import redirect_stdout

import run

TINY = {
    "code512-eval": dict(max_prompts=30, setup_reps=1),
    "synth50k-nucleus-hot": dict(vocab_size=1000, prompts=12, tail_pool=3, setup_reps=1),
    "synth50k-greedy-cold": dict(vocab_size=1000, prompts=30, setup_reps=1),
}


def declared() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {
        "workloads": [w["name"] for w in doc["workloads"]],
        0: {m["name"]: m["unit"] for m in doc["end_to_end"]},
        1: {m["name"]: m["unit"] for m in doc["per_layer"]},
    }


def last_line(spec, result, trace: bool) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.print_report(spec, result, trace)
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def main() -> int:
    run.import_tokalign()
    from workloads import WORKLOADS

    spec_doc = declared()
    problems = []
    if sorted(spec_doc["workloads"]) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {spec_doc['workloads']} != {sorted(WORKLOADS)}")
    for name, shrink in TINY.items():
        spec = dataclasses.replace(WORKLOADS[name], **shrink)
        results = {}
        for trace in (0, 1):
            result = run.run_workload(spec, seed=3, seconds=0.01, trace=bool(trace))
            line = last_line(spec, result, bool(trace))
            emitted = {m: v["unit"] for m, v in line["metrics"].items()}
            if emitted != spec_doc[trace]:
                problems.append(f"{name} trace={trace}: emitted {emitted} != declared {spec_doc[trace]}")
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                problems.append(f"{name} trace={trace}: gate {line['correct']} "
                                f"{line['failed']} failed of {line['attempted']}")
            results[trace] = result["record"]
        if results[1]["traced_digests"] != results[0]["digests"]:
            problems.append(f"{name}: traced outputs differ from untraced outputs")
        if results[1]["digests"] != results[0]["digests"]:
            problems.append(f"{name}: outputs differ between two runs at the same seed")
        print(f"{name}: checked")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
