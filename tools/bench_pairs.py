#!/usr/bin/env python3
"""Run e2ebench on two commits in alternating pairs and write a BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent REV --change REV --seeds 1401-1410 \\
        --name BENCH_14 --note "what the change does" [--claim WORKLOAD/METRIC] \\
        [--workdir DIR] [--out FILE]

Each commit is copied once with ``git archive`` into its own fresh
directory under ``--workdir`` (a new temporary directory by default), so
neither run sees the working tree or the other's files.  For every
workload the change's ``BENCHMARK.json`` declares, and every seed, both
copies run its ``command`` with ``--trace 0`` for its ``run_seconds``,
one after the other: the parent goes first on even pair indexes and the
change on odd ones.  One extra traced pair (``--trace 1``, parent first)
runs at the first seed.  The output keeps the layout of the earlier
``BENCH_*.json`` files: the method and environment; per end-to-end
metric the parent's and change's median and quartiles, wins, losses and
the per-pair values; the digests of both arms with ``equal_to_parent``;
failed-request counts; the unscaled ``raw_setup_s`` and the quartiles of
each timed part of the build (``setup_parts_s``); and the traced pair.

``--claim WORKLOAD/METRIC`` adds a ``claim`` entry judged by the rule
the benchmark's gate applies to a claimed gain: the change wins at least
9 of 10 pairs, and the medians differ by more than the parent's IQR.

After each workload it prints one line per end-to-end metric (both
medians, ``change_rel``, wins, losses and ``within_bound``), then one
line per timed part of the build (both unscaled medians and
``change_rel``), then how many pairs' output digests equal the parent's
for each benchmark arm (aligned and plain), and at the end the claim's
verdict, so a breached bound or a changed output shows without the JSON.  The benchmark scales ``setup_s`` by a reference
build timed around it, so the scaled figure can move against the raw
build; the part lines show which raw part moved.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ARMS = ("parent", "change")
CLAIM_WINS = 0.9
# the parts of one build that the benchmark times, in order
SETUP_PARTS = ("vocab_s", "trie_s", "cache_s", "provider_s")


def parse_seeds(text: str) -> list[int]:
    """``"1401-1410"`` or ``"5,7,9"`` as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def checkout(rev: str, dest: Path) -> str:
    """Extract ``rev`` into the empty directory ``dest``; return its full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", rev + "^{commit}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "-o", str(archive), commit], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return commit


def run_once(copy: Path, declared: dict, workload: str, seed: int, trace: bool) -> dict:
    """One benchmark run: its result line, plus the working-set record."""
    argv = [*declared["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(declared["run_seconds"]), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=copy, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {copy.name} {workload} seed {seed} exited "
                         f"{proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    record = next(json.loads(line[len("working_set "):]) for line in lines
                  if line.startswith("working_set "))
    result["record"] = record
    return result


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(np.asarray(values, dtype=np.float64), [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1)}


def summarise_metric(spec: dict, seeds: list[int], runs: dict) -> dict:
    """Medians, quartiles, wins and the per-pair values of one end-to-end metric."""
    name = spec["name"]
    values = {arm: [r["metrics"][name]["value"] for r in runs[arm]] for arm in ARMS}
    stats = {arm: quartiles(values[arm]) for arm in ARMS}
    sign = 1.0 if spec["better"] == "lower" else -1.0
    # positive: the change is better in the metric's direction
    gains = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
    change_rel = stats["change"]["median"] / stats["parent"]["median"] - 1.0
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        **stats,
        "per_pair": [{"seed": s, "parent": p, "change": c}
                     for s, p, c in zip(seeds, values["parent"], values["change"])],
        "change_rel": change_rel,
        "wins": sum(g > 0 for g in gains),
        "losses": sum(g < 0 for g in gains),
        "within_bound": sign * change_rel <= spec["bound"],
    }


def median_gap(entry: dict) -> float:
    """How far the change's median is better than the parent's, in the metric's direction."""
    gap = entry["parent"]["median"] - entry["change"]["median"]
    return -gap if entry["better"] == "higher" else gap


def judge_claim(workload: str, metric: str, entry: dict) -> dict:
    """The claimed-gain rule on one metric's pairs."""
    gap = median_gap(entry)
    pairs = len(entry["per_pair"])
    return {
        "metric": metric,
        "workload": workload,
        "direction": entry["better"],
        "rule": "the change wins at least 9 of 10 pairs and the medians differ by more "
                "than the parent's IQR",
        "met": entry["wins"] >= CLAIM_WINS * pairs and gap > entry["parent"]["iqr"],
    }


def gate_lines(workload: str, summary: dict) -> list[str]:
    """One line per end-to-end metric: both medians, change_rel, wins, losses and the bound."""
    return [
        f"{workload} {name}: parent {m['parent']['median']:.4g} change {m['change']['median']:.4g} "
        f"{m['unit']}, change_rel {m['change_rel']:+.2%}, wins {m['wins']} losses {m['losses']}, "
        f"within_bound {m['within_bound']} (bound {m['bound']:.0%})"
        for name, m in summary["end_to_end"].items()
    ]


def setup_part_lines(workload: str, summary: dict) -> list[str]:
    """One line per timed part of the build: both arms' unscaled medians and change_rel."""
    lines = []
    for part, arms in summary["setup_parts_s"].items():
        parent, change = arms["parent"]["median"], arms["change"]["median"]
        rel = f"{change / parent - 1.0:+.2%}" if parent else "n/a"
        lines.append(f"{workload} setup part {part}: parent {parent:.4g} change {change:.4g} s, "
                     f"change_rel {rel}")
    return lines


def digest_line(workload: str, runs: dict) -> str:
    """Per benchmark arm, in how many pairs the change's output digest equals the parent's."""
    pairs = [(p["record"]["digests"], c["record"]["digests"])
             for p, c in zip(runs["parent"], runs["change"])]
    counts = ", ".join(f"{arm} {sum(p[arm] == c[arm] for p, c in pairs)} of {len(pairs)}"
                       for arm in pairs[0][1])
    return f"{workload} digests equal to parent: {counts}"


def claim_line(claim: dict, entry: dict) -> str:
    """The claim's verdict, with the wins and the median gap it rests on."""
    return (f"claim {claim['workload']}/{claim['metric']}: {'met' if claim['met'] else 'NOT met'} "
            f"(wins {entry['wins']} of {len(entry['per_pair'])}, median gap {median_gap(entry):.4g} "
            f"vs parent IQR {entry['parent']['iqr']:.4g})")


def summarise_setup_parts(runs: dict) -> dict:
    """Per part and arm, quartiles over runs of the part's median over a run's builds."""
    def run_median(run: dict, part: str) -> float:
        return float(np.median([build[part] for build in run["record"]["setup_parts_s"]]))

    return {part: {arm: quartiles([run_median(r, part) for r in runs[arm]]) for arm in ARMS}
            for part in SETUP_PARTS}


def summarise_workload(specs: list[dict], seeds: list[int], runs: dict, traced: dict) -> dict:
    digests = {}
    for k, seed in enumerate(seeds):
        theirs, ours = (runs[arm][k]["record"]["digests"] for arm in ARMS)
        digests[str(seed)] = {**ours, "equal_to_parent": ours == theirs}
    out = {
        "pairs": len(seeds),
        "end_to_end": {spec["name"]: summarise_metric(spec, seeds, runs) for spec in specs},
        "digests": digests,
        "all_correct": all(r["correct"] for arm in ARMS for r in runs[arm]),
        "failed": {arm: sum(r["failed"] for r in runs[arm]) for arm in ARMS},
        "raw_setup_s": {arm: quartiles([r["record"]["raw"]["setup_s"] for r in runs[arm]])
                        for arm in ARMS},
        "setup_parts_s": summarise_setup_parts(runs),
    }
    out["traced"] = {
        "seed": seeds[0],
        **{arm: {name: m["value"] for name, m in traced[arm]["metrics"].items()}
           for arm in ARMS},
        "correct": {arm: traced[arm]["correct"] for arm in ARMS},
    }
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--change", default="HEAD", help="the commit under test")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1401-1410")
    parser.add_argument("--name", required=True, help="e.g. BENCH_14")
    parser.add_argument("--note", default="", help="what the change does")
    parser.add_argument("--claim", help="WORKLOAD/METRIC the change claims to improve")
    parser.add_argument("--workdir", type=Path, help="where the copies go")
    parser.add_argument("--out", type=Path, help="default: <name>.json in the repo root")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    copies = {arm: workdir / arm for arm in ARMS}
    commits = {arm: checkout(rev, copies[arm])
               for arm, rev in zip(ARMS, (args.parent, args.change))}
    declared = json.loads((copies["change"] / "BENCHMARK.json").read_text())
    result = {
        "name": args.name,
        "change": args.note,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "claim": None,
        "method": {
            "command": " ".join(declared["command"])
                       + f" --workload W --seed N --seconds {declared['run_seconds']:g} --trace 0",
            "seeds": args.seeds,
            "pairs": "each seed runs the parent commit and the change once, each from its own "
                     "fresh copy of the files (git archive of the commit); the parent goes first "
                     "on even pair indexes, the change on odd ones",
            "quartiles": "numpy.percentile, linear interpolation",
            "wins": "pairs in which the change's value is better than the parent's in the "
                    "metric's direction; ties count for neither",
            "traced": "one extra pair per workload with --trace 1 at the first seed, parent first",
            "raw_setup_s": "the unscaled build time the benchmark records under raw.setup_s, "
                           "for reference",
            "setup_parts_s": "per part of the build (" + ", ".join(SETUP_PARTS) + "), the "
                             "quartiles over runs of each run's median over its builds, "
                             "unscaled, from the working-set record's setup_parts_s",
            "runner": "tools/bench_pairs.py",
        },
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "workloads": {},
    }
    for workload in (w["name"] for w in declared["workloads"]):
        runs = {arm: [] for arm in ARMS}
        for k, seed in enumerate(args.seeds):
            for arm in (ARMS if k % 2 == 0 else ARMS[::-1]):
                runs[arm].append(run_once(copies[arm], declared, workload, seed, False))
                value = runs[arm][-1]["metrics"]["req_ms_p50"]["value"]
                print(f"{workload} seed {seed} {arm}: req_ms_p50 {value:.4f}", flush=True)
        traced = {arm: run_once(copies[arm], declared, workload, args.seeds[0], True)
                  for arm in ARMS}
        result["workloads"][workload] = summarise_workload(
            declared["end_to_end"], args.seeds, runs, traced
        )
        summary = result["workloads"][workload]
        lines = gate_lines(workload, summary) + setup_part_lines(workload, summary)
        print("\n".join([*lines, digest_line(workload, runs)]), flush=True)
    if args.claim:
        workload, _, metric = args.claim.partition("/")
        entry = result["workloads"][workload]["end_to_end"][metric]
        result["claim"] = judge_claim(workload, metric, entry)
        print(claim_line(result["claim"], entry))
    out = args.out or ROOT / f"{args.name}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
