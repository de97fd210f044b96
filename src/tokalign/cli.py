"""Command-line entry point.

Subcommands: ``align`` (masked or plain completion over prompt files),
``gen-dataset`` (partial-token scenario datasets), ``validate`` (check a
dataset against the scenario rules), ``eval`` (generate both arms and
score them), ``score`` (score saved eval records), ``bench`` (lookup
latency and alignment-step statistics), ``vocab train`` / ``vocab
inspect``.  Each subcommand takes only the flags its job reads.

All byte-carrying I/O is JSONL with base64 fields so non-UTF-8 prompts
survive end to end.  Paths may use ``bundled:<name>`` to reach the
packaged fixtures (code, prose, demo-vocab, demo-table).

Exit codes: 0 success, 1 usage, 2 data error, 3 alignment failure (a
dead end, or a broken alignment invariant).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import align as align_mod
from . import bench as bench_mod
from . import fixtures, metrics, scenarios
from .decoding import (
    ConfigError,
    SamplerConfig,
    _check_seed,
    build_ngram_model,
    check_ngram_config,
    generate,
    load_scripted_model,
)
from .trie import MaskCache, build_trie
from .vocab import (
    PretokenizeOptions,
    Vocabulary,
    check_target_size,
    load_vocabulary,
    save_vocabulary,
    train_tiny_bpe,
    write_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ALIGNMENT = 3


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _resolve(path: str) -> str:
    if path.startswith("bundled:"):
        return fixtures.resolve_bundled(path)
    return path


def _escape_bytes(text: str) -> bytes:
    """A flag value as bytes, with \\n, \\t and \\xNN escapes (an argparse ``type``)."""
    try:
        return text.encode("utf-8").decode("unicode_escape").encode("latin-1")
    except UnicodeError as exc:
        raise argparse.ArgumentTypeError(
            f"bad escape in {text!r} ({exc.reason}); use \\n, \\t or \\xNN,"
            " or write the character itself"
        ) from None


def _load_provider(args, vocab: Vocabulary):
    spec = args.provider
    if spec.startswith("scripted:"):
        return load_scripted_model(_resolve(spec[len("scripted:"):]), vocab)
    if spec.startswith("ngram:"):
        docs = [text for _, text in scenarios.load_corpus(_resolve(spec[len("ngram:"):]))]
        return build_ngram_model(docs, vocab, args.ngram_order, args.ngram_alpha)
    raise ValueError(f"unknown provider spec {spec!r}")


# the config fields whose flag is not "--" plus the field name with "-" for "_"
_CONFIG_FLAGS = {
    "backtrack_tokens": "--backtrack",
    "order": "--ngram-order",
    "alpha": "--ngram-alpha",
    "size": "--vocab-size",
    "count": "--prompts",
}


def _attach_configs(args) -> None:
    """Build ``args.sampler`` and ``args.align_cfg`` from the command's flags.

    The configs (and ``metrics.check_metrics``) hold the range rules;
    :func:`main` turns a value they reject into a usage error naming its flag.
    """
    if hasattr(args, "mode"):
        args.sampler = SamplerConfig(
            mode=args.mode,
            top_p=args.top_p,
            temperature=args.temperature,
            seed=args.seed,
            max_new_tokens=args.max_new_tokens,
            stop_sequences=tuple(args.stop or ()),
        )
    if hasattr(args, "backtrack"):
        args.align_cfg = align_mod.AlignConfig(backtrack_tokens=args.backtrack)
    if hasattr(args, "metrics"):
        metrics.check_metrics(args.metrics)
    # before align and eval load the vocabulary, and vocab train reads the corpus
    if hasattr(args, "provider"):
        check_ngram_config(args.ngram_order, args.ngram_alpha)
    if hasattr(args, "target_size"):
        check_target_size(args.target_size, len(args.special or ()))


def _open_or(path: str | None, std, mode: str, encoding: str | None):
    """``path`` opened, or the stream ``std``, left open, for no path or "-"."""
    if path in (None, "-"):
        return contextlib.nullcontext(std)
    return open(path, mode, encoding=encoding)


def _arms(args, vocab: Vocabulary, provider, names) -> dict:
    """Each named arm's completion function, ``prompt -> GenerationResult``.

    Only the aligned arm builds the index and the mask cache it shares
    across prompts.
    """
    arms = {}
    if "aligned" in names:
        trie = build_trie(vocab)
        cache = MaskCache(trie)
        arms["aligned"] = lambda prompt: align_mod.aligned_generate(
            provider, vocab, trie, cache, prompt, args.align_cfg, args.sampler
        )
    if "unaligned" in names:
        arms["unaligned"] = lambda prompt: generate(provider, vocab, prompt, args.sampler)
    return arms


# ---------------------------------------------------------------------------
# Subcommands


def _stdin_stat() -> os.stat_result | None:
    """The status of the file behind stdin, or None when it has no descriptor."""
    try:
        return os.fstat(sys.stdin.fileno())
    except (AttributeError, OSError, ValueError):
        return None


def cmd_align(args) -> int:
    # results written over their own prompts would leave no copy of the input
    if args.out not in (None, "-") and os.path.exists(args.out):
        if args.prompt_file in (None, "-"):
            source, prompts = "standard input", _stdin_stat()
        else:
            source, prompts = "--prompt-file", os.stat(args.prompt_file)
        if prompts is not None and os.path.samestat(prompts, os.stat(args.out)):
            args.command_parser.error(f"argument --out: is the same file as {source}")
    vocab = load_vocabulary(_resolve(args.vocab))
    provider = _load_provider(args, vocab)
    arm = "unaligned" if args.no_align else "aligned"
    complete = _arms(args, vocab, provider, [arm])[arm]
    # prompts are read as bytes, so each line is decoded on its own
    name = "<stdin>" if args.prompt_file in (None, "-") else args.prompt_file
    with _open_or(args.prompt_file, getattr(sys.stdin, "buffer", sys.stdin), "rb", None) as fh:
        docs = list(scenarios.read_text_docs(fh, name, "prompt_b64"))
    # every prompt is completed before --out is opened, so a bad line (exit 2)
    # or a failed alignment (exit 3) writes nothing
    lines = []
    for prompt_id, prompt in docs:
        doc = {"id": prompt_id, **complete(prompt).to_json_dict()}
        if not args.timings:
            # wall-clock fields would break bit-reproducibility of seeded runs
            del doc["timings_us"]
        lines.append(json.dumps(doc) + "\n")
    with _open_or(args.out, sys.stdout, "w", "ascii") as out:
        out.writelines(lines)
    return EXIT_OK


def cmd_gen_dataset(args) -> int:
    if args.scenario == "all" and args.out:
        args.command_parser.error(
            "argument --out: not allowed with --scenario all (each scenario goes to --out-dir)"
        )
    if args.out and args.out_dir is not None:
        args.command_parser.error("argument --out-dir: not allowed with --out")
    corpus = scenarios.load_corpus(_resolve(args.corpus))
    names = list(scenarios.SCENARIOS) if args.scenario == "all" else [args.scenario]
    # every scenario is generated before any file is written, so a scenario
    # that fails leaves no partial dataset set behind
    datasets = {
        name: scenarios.generate_dataset(corpus, name, args.seed, args.per_doc) for name in names
    }
    out_dir = args.out_dir or "."
    for name, (examples, stats) in datasets.items():
        path = args.out or f"{out_dir}/{name}.jsonl"
        scenarios.write_dataset(path, examples, stats)
        print(f"{name}: wrote {stats['emitted']} examples to {path} "
              f"({stats['skipped']} documents skipped)")
    if len(names) > 1:
        combined = f"{out_dir}/dataset_stats.json"
        write_json(combined, {name: stats for name, (_, stats) in datasets.items()})
        print(f"combined stats: {combined}")
    return EXIT_OK


def cmd_validate(args) -> int:
    examples = scenarios.read_dataset(_resolve(args.dataset))
    bad = 0
    for ex in examples:
        problems = scenarios.validate_example(ex)
        if problems:
            bad += 1
            print(f"INVALID {ex.source_id}@{ex.cut_offset}: {'; '.join(problems)}")
    print(f"validated {len(examples)} examples, {bad} invalid")
    return EXIT_OK if bad == 0 else EXIT_DATA


def cmd_eval(args) -> int:
    examples = scenarios.read_dataset(_resolve(args.dataset))
    vocab = load_vocabulary(_resolve(args.vocab))
    provider = _load_provider(args, vocab)
    names = ["aligned", "unaligned"] if args.arm == "both" else [args.arm]
    arms = _arms(args, vocab, provider, names)
    records = []
    for ex in examples:
        if args.use_baseline:
            prompt = ex.baseline_prompt
            reference = ex.prompt[len(ex.baseline_prompt):] + ex.ground_truth
        else:
            prompt, reference = ex.prompt, ex.ground_truth
        if not prompt:
            continue
        for arm, complete in arms.items():
            result = complete(prompt)
            records.append(
                metrics.EvalRecord(
                    example_id=f"{ex.source_id}@{ex.cut_offset}",
                    generated=result.output[len(prompt):],
                    references=[reference],
                    arm=arm,
                )
            )
    if args.save_records:
        metrics.write_eval_records(args.save_records, records)
    label = args.label or (examples[0].scenario if examples else "")
    if args.use_baseline:
        label = f"{label}_baseline"
    return _emit_eval_report(args, records, vocab, label)


def cmd_score(args) -> int:
    if "fta" in args.metrics and args.vocab is None:
        args.command_parser.error(
            "argument --vocab: required to score fta; or leave fta out of --metrics"
        )
    records = metrics.read_eval_records(_resolve(args.records))
    vocab = load_vocabulary(_resolve(args.vocab)) if args.vocab else None
    return _emit_eval_report(args, records, vocab, args.label or "")


def _emit_eval_report(args, records, vocab, label) -> int:
    wanted = args.metrics
    report = metrics.score_records(records, wanted, vocab, scenario=label)
    for arm in sorted(report.aggregates):
        cols = "  ".join(f"{m}={report.aggregates[arm][m]:.4f}" for m in wanted)
        print(f"{label:>24} {arm:>10}: {cols}")
    if report.deltas:
        cols = "  ".join(f"{m}={report.deltas[m]:+.4f}" for m in wanted)
        print(f"{label:>24} {'delta':>10}: {cols}")
    if args.out:
        write_json(args.out, report.to_json_dict())
    if args.csv:
        metrics.write_report_csv(report, args.csv)
    return EXIT_OK


def cmd_bench(args) -> int:
    # every range rule is checked before any corpus is read or vocabulary built
    _check_seed(args.seed)
    if not args.skip_steps:
        bench_mod.check_prompt_count(args.prompts)
        check_target_size(args.train_size)
        check_ngram_config(args.ngram_order, args.ngram_alpha)
    if not args.skip_lookup:
        bench_mod.check_lookup_counts(args.queries, args.warmup, args.naive_queries)
        if not args.vocab:
            bench_mod.check_synthetic_size(args.vocab_size)
    report = {}
    if not args.skip_steps:
        # built first, so a bad step flag fails before the lookup benchmark runs
        corpus = scenarios.load_corpus(_resolve(args.corpus))
        options = PretokenizeOptions(space_prefix=True, group_whitespace=True)
        train_vocab = train_tiny_bpe((t for _, t in corpus), args.train_size, options)
        provider = build_ngram_model(
            (t for _, t in corpus), train_vocab, args.ngram_order, args.ngram_alpha
        )
        try:
            prompts = bench_mod.boundary_prompts(corpus, train_vocab, args.prompts, args.seed)
        except ValueError as exc:
            raise ValueError(f"{args.corpus}: {exc}") from exc
    if not args.skip_lookup:
        if args.vocab:
            vocab = load_vocabulary(_resolve(args.vocab))
        else:
            vocab = bench_mod.make_synthetic_vocabulary(args.vocab_size, args.seed)
        report["lookup"] = bench_mod.bench_lookup(
            vocab,
            queries=args.queries,
            warmup=args.warmup,
            naive_queries=args.naive_queries,
            seed=args.seed,
        )
    if not args.skip_steps:
        report["alignment_steps"] = bench_mod.bench_alignment_steps(
            provider, train_vocab, prompts,
            backtrack_tokens=args.align_cfg.backtrack_tokens,
        )
    if args.out:
        write_json(args.out, report)
    write_json(sys.stdout, report)
    return EXIT_OK


def cmd_vocab_train(args) -> int:
    corpus = scenarios.load_corpus(_resolve(args.corpus))
    options = PretokenizeOptions(
        space_prefix=args.space_prefix, group_whitespace=args.group_whitespace
    )
    specials = args.special or []
    vocab = train_tiny_bpe((t for _, t in corpus), args.target_size, options, specials)
    save_vocabulary(vocab, args.out)
    print(f"trained {len(vocab)} tokens ({len(vocab.merges or ())} merges) -> {args.out}")
    return EXIT_OK


def cmd_vocab_inspect(args) -> int:
    vocab = load_vocabulary(_resolve(args.vocab))
    lengths = np.array([len(t) for t in vocab.tokens])
    multi = [t for i, t in enumerate(vocab.tokens) if len(t) > 1 and not vocab.is_special(i)]
    print(f"tokens: {len(vocab)}")
    print(f"merges: {len(vocab.merges) if vocab.merges is not None else 'none (greedy matching)'}")
    print(f"specials: {sorted(vocab.specials)}")
    print(f"token length: min={lengths.min()} median={int(np.median(lengths))} max={lengths.max()}")
    print(f"covers all single bytes: {vocab.has_all_byte_tokens()}")
    sample = ", ".join(repr(t)[1:] for t in multi[:12])
    print(f"sample multi-byte tokens: {sample}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring


def _add_sampler_flags(p: _Parser) -> None:
    p.add_argument("--mode", choices=["greedy", "nucleus"], default=SamplerConfig.mode)
    p.add_argument("--top-p", type=float, default=SamplerConfig.top_p)
    p.add_argument("--temperature", type=float, default=SamplerConfig.temperature)
    p.add_argument("--max-new-tokens", type=int, default=SamplerConfig.max_new_tokens)
    p.add_argument("--stop", action="append", type=_escape_bytes, default=None,
                   help="stop sequence (supports \\n style escapes); repeatable")
    p.add_argument("--seed", type=int, default=SamplerConfig.seed)


def _add_provider_flags(p: _Parser) -> None:
    p.add_argument("--provider", required=True,
                   help="scripted:<table.json> or ngram:<corpus>")
    p.add_argument("--ngram-order", type=int, default=3)
    p.add_argument("--ngram-alpha", type=float, default=0.1)


def _add_report_flags(p: _Parser) -> None:
    p.add_argument("--metrics", type=lambda text: tuple(text.split(",")),
                   default=metrics.ALL_METRICS, help="comma list, e.g. em,es")
    p.add_argument("--label", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="tokalign")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", parents=[], help="complete prompts, aligned by default")
    p.add_argument("--vocab", required=True)
    _add_provider_flags(p)
    p.add_argument("--prompt-file", default=None, help="JSONL of {id, text|prompt_b64}; default stdin")
    p.add_argument("--out", default=None)
    p.add_argument("--no-align", action="store_true")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings_us in results (not bit-reproducible)")
    p.add_argument("--backtrack", type=int, default=align_mod.AlignConfig.backtrack_tokens)
    _add_sampler_flags(p)
    p.set_defaults(func=cmd_align, command_parser=p)

    p = sub.add_parser("gen-dataset", help="cut a corpus into scenario datasets")
    p.add_argument("--corpus", required=True)
    p.add_argument("--scenario", choices=list(scenarios.SCENARIOS) + ["all"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-doc", type=int, default=1)
    p.add_argument("--out", default=None, help="output file (single scenario only)")
    p.add_argument("--out-dir", default=None, help="output directory (default: .)")
    p.set_defaults(func=cmd_gen_dataset, command_parser=p)

    p = sub.add_parser("validate", help="check a dataset against the scenario rules")
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("eval", help="generate both arms over a dataset and score them")
    p.add_argument("--dataset", required=True)
    p.add_argument("--vocab", required=True)
    _add_provider_flags(p)
    p.add_argument("--save-records", default=None,
                   help="also write the generated EvalRecord JSONL here")
    p.add_argument("--arm", choices=["both", "aligned", "unaligned"], default="both")
    p.add_argument("--use-baseline", action="store_true")
    p.add_argument("--backtrack", type=int, default=align_mod.AlignConfig.backtrack_tokens)
    _add_report_flags(p)
    _add_sampler_flags(p)
    p.set_defaults(func=cmd_eval, command_parser=p)

    p = sub.add_parser("score", help="score a saved EvalRecord JSONL")
    p.add_argument("--records", required=True)
    p.add_argument("--vocab", default=None, help="needed to score fta")
    _add_report_flags(p)
    p.set_defaults(func=cmd_score, command_parser=p)

    p = sub.add_parser("bench", help="lookup latency and alignment-step stats")
    p.add_argument("--vocab", default=None, help="vocabulary file (default: synthetic)")
    p.add_argument("--vocab-size", type=int, default=50_000)
    p.add_argument("--queries", type=int, default=10_000)
    p.add_argument("--warmup", type=int, default=1_000)
    p.add_argument("--naive-queries", type=int, default=200)
    skip = p.add_mutually_exclusive_group()
    skip.add_argument("--skip-lookup", action="store_true")
    skip.add_argument("--skip-steps", action="store_true")
    p.add_argument("--corpus", default="bundled:code")
    p.add_argument("--train-size", type=int, default=512)
    p.add_argument("--ngram-order", type=int, default=3)
    p.add_argument("--ngram-alpha", type=float, default=0.1)
    p.add_argument("--prompts", type=int, default=200)
    p.add_argument("--backtrack", type=int, default=align_mod.AlignConfig.backtrack_tokens)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    # train_tiny_bpe names its target_size, which --train-size sets here
    p.set_defaults(func=cmd_bench, command_parser=p, config_flags={"target_size": "--train-size"})

    p = sub.add_parser("vocab", help="vocabulary tools")
    vocab_sub = p.add_subparsers(dest="vocab_command", required=True)
    pt = vocab_sub.add_parser("train", help="train a tiny BPE vocabulary")
    pt.add_argument("--corpus", required=True)
    pt.add_argument("--target-size", type=int, required=True)
    pt.add_argument("--space-prefix", action=argparse.BooleanOptionalAction, default=True)
    pt.add_argument("--group-whitespace", action=argparse.BooleanOptionalAction, default=True)
    pt.add_argument("--special", action="append", type=_escape_bytes, default=None,
                    help="special token (supports \\n style escapes); repeatable")
    pt.add_argument("--out", required=True)
    pt.set_defaults(func=cmd_vocab_train, command_parser=pt)
    pi = vocab_sub.add_parser("inspect", help="summarize a vocabulary file")
    pi.add_argument("--vocab", required=True)
    pi.set_defaults(func=cmd_vocab_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            _attach_configs(args)
            return args.func(args)
        except ConfigError as exc:
            # raised by _attach_configs, or by the library function that takes the value
            flags = {**_CONFIG_FLAGS, **getattr(args, "config_flags", {})}
            flag = flags.get(exc.field, "--" + exc.field.replace("_", "-"))
            args.command_parser.error(f"argument {flag}: {exc}")
    except SystemExit as exc:
        return int(exc.code or 0)
    except align_mod.AlignmentError as exc:
        print(f"tokalign: alignment failed: {exc}", file=sys.stderr)
        return EXIT_ALIGNMENT
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"tokalign: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
