"""Every byte the CLI writes stays the same across refactors.

A fixed set of small commands runs in-process through ``cli.main``:
datasets with their stats sidecars, a trained vocabulary, ``align``
results (aligned, plain and nucleus), eval reports, CSV tables and saved
records (both arms, the baseline control arm, and a ``score`` of saved
records), a ``validate`` pass, and the shipped bundled data.
The sha256 of every file written, and of each command's stdout with the
output directory replaced by ``<out>``, must equal the digest recorded
below.

A change that alters an output format on purpose updates these digests
and says so; any other change must leave them as they are.
"""

import base64
import hashlib
import json

from tokalign import fixtures
from tokalign.cli import main

# name, argv; "{out}" is the output directory and "{in}" the input directory
COMMANDS = [
    ("gen-all", ["gen-dataset", "--corpus", "bundled:code", "--scenario", "all",
                 "--seed", "1", "--per-doc", "1", "--out-dir", "{out}"]),
    ("gen-mixed", ["gen-dataset", "--corpus", "{in}/mixed.jsonl", "--scenario", "subword",
                   "--seed", "2", "--per-doc", "2", "--out", "{out}/mixed_subword.jsonl"]),
    ("vocab-train", ["vocab", "train", "--corpus", "bundled:code", "--target-size", "300",
                     "--out", "{out}/vocab.json"]),
    ("align", ["align", "--vocab", "bundled:demo-vocab", "--provider", "scripted:bundled:demo-table",
               "--prompt-file", "{in}/prompts.jsonl", "--max-new-tokens", "4",
               "--out", "{out}/aligned.jsonl"]),
    ("align-plain", ["align", "--vocab", "bundled:demo-vocab",
                     "--provider", "scripted:bundled:demo-table",
                     "--prompt-file", "{in}/prompts.jsonl", "--max-new-tokens", "4",
                     "--no-align", "--out", "{out}/plain.jsonl"]),
    ("align-nucleus", ["align", "--vocab", "{out}/vocab.json", "--provider", "ngram:bundled:code",
                       "--prompt-file", "{in}/prompts.jsonl", "--max-new-tokens", "4",
                       "--mode", "nucleus", "--top-p", "0.9", "--seed", "5",
                       "--out", "{out}/nucleus.jsonl"]),
    ("eval", ["eval", "--dataset", "{out}/subword.jsonl", "--vocab", "{out}/vocab.json",
              "--provider", "ngram:bundled:code", "--max-new-tokens", "4",
              "--out", "{out}/eval.json", "--csv", "{out}/eval.csv",
              "--save-records", "{out}/records.jsonl"]),
    ("eval-baseline", ["eval", "--dataset", "{out}/prefix_sep.jsonl", "--vocab", "{out}/vocab.json",
                       "--provider", "ngram:bundled:code", "--max-new-tokens", "4",
                       "--use-baseline", "--arm", "unaligned", "--out", "{out}/baseline.json",
                       "--save-records", "{out}/baseline_records.jsonl"]),
    ("eval-records", ["score", "--records", "{out}/records.jsonl", "--vocab", "{out}/vocab.json",
                      "--label", "rescored", "--out", "{out}/rescored.json",
                      "--csv", "{out}/rescored.csv"]),
    ("eval-validate", ["validate", "--dataset", "{out}/punctuation.jsonl"]),
]

BUNDLED = (
    fixtures.CODE_CORPUS_FILE, fixtures.DEMO_TABLE_FILE,
    fixtures.DEMO_VOCAB_FILE, fixtures.PROSE_CORPUS_FILE,
)

GOLDEN = {
    "stdout:gen-all":
        "ddd4d7b320fa700226e2c855f50db0d63b78e87952c8a2f1c6de16b3aa2e908c",
    "stdout:gen-mixed":
        "d76b4e12b798ce7b662960fe60eede355e28479683b2f07ea7f2ba63661b5639",
    "stdout:vocab-train":
        "509166cc7be3ac2ee88d8e5fa20557658a33bdd0427a00b8c30e578fc6d043a0",
    "stdout:align":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "stdout:align-plain":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "stdout:align-nucleus":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "stdout:eval":
        "c3aa8a365fbfebdbe92816150ff84f5958658a965abae55c6091601736363e5f",
    "stdout:eval-baseline":
        "76ef34f33324a53262f01bad72f03537dbaa1263c496e7c310ecf9d499040116",
    "stdout:eval-records":
        "c794d12c7a89a44dbcf4b90987a546fce28eb5c3a4b701bfc225833e261c6d24",
    "stdout:eval-validate":
        "441668597865565f9caf4f26462362a1c00b642313547c148cc547320f432703",
    "aligned.jsonl":
        "b893dd704a73ba47a5be4dc6f5107cb6c8db95fed019e65db45bfae5c924ac5e",
    "baseline.json":
        "b7d527d3daca23f5dcfd130a94b7f0bcf72e2055b0c97642c19cf6672b1b3e6c",
    "baseline_records.jsonl":
        "421c6fc3ab339267ac64f0363bf5c0926b12e517e96a7c56df828421964cfcad",
    "bundled/code_corpus.jsonl":
        "931322e53aeb9cfe9163702af5fb643f1e6bb6786b4f1edbcf3fdef13616c04b",
    "bundled/demo_table.json":
        "42936ba100c8bdfeab7cf608e2ead972575062f0c9f3670b5b6091ddf3d32f71",
    "bundled/demo_vocab.json":
        "cd5d3e281ad665ab85c9bf274eecc59af9583e15a40be6562782bbdfd4fd79c9",
    "bundled/prose_corpus.jsonl":
        "70b922c7b081eb0e2019d7058d61c4e91af48a158a4883b0e971ad45a730dc90",
    "contiguous_space.jsonl":
        "a09c0afd204c9c35afd256cc620c4775411ebf3f6d26600b733f3b14f685597c",
    "contiguous_space.jsonl.stats.json":
        "ab90d0a09d19e9aa9f0b5e880ef8e5cf19122fbad3ff91dd86b18e15cda99b07",
    "dataset_stats.json":
        "6062da2c4a7d3c2e70135b24dded564e0a14cd1b0e89050feed5a85d593bef60",
    "eval.csv":
        "87e0b91eb21b25361673c932bc0af604ac614f69f469bb70fd616b1f5e02b371",
    "eval.json":
        "0e85173f556be99974c19e17b4d8c62afe943007f0f017f0babf77871306378f",
    "mixed_subword.jsonl":
        "a8a5cba58a4ce77d33b2a62f4e94e7d0142838647f23d08d3e24efa8a0dc9707",
    "mixed_subword.jsonl.stats.json":
        "6f7c3d7c8f0498d378504c92eaca47fa1a25aaf945fbc8b0fb4aa9618c53c203",
    "nucleus.jsonl":
        "b468bca58a2ee5fb7d37d22988de0e7c11d078c9efe022760d6d8e9c42e8aa55",
    "plain.jsonl":
        "06b83eb0e1ab1ecb9c2e4df0a93dae93bbec589f143b93e7aedfa5b5179a068c",
    "prefix_indent.jsonl":
        "08f8d8e45741aefb2123329603e51c596c6d9a6d673fe17e4b6b3982017e0d3d",
    "prefix_indent.jsonl.stats.json":
        "8d06291e6100d0b00f6008fb553fb6b92dcd668e6a31d3603c589bad5d3d163a",
    "prefix_sep.jsonl":
        "470ed29a00df1e39cdefc54295c059ae4086900d0bf961e4d36fa44641160bbb",
    "prefix_sep.jsonl.stats.json":
        "72e37226005edcb916c6df11209fc209bfe793ecead65b818e25a1a78537c3a8",
    "punctuation.jsonl":
        "6a6c280fab4e6153eeb538d9d2b154fbb25ce9d0687cf98fb86f080a56d61570",
    "punctuation.jsonl.stats.json":
        "93de3931e0b3c5986f90ca697014339b7a97eb55a805c18f0ea8ed24541d9b5a",
    "records.jsonl":
        "4dd264f85c243511a7ad8c2f07c2f5fe933e155f9f3316433ebe83b9f1a36c9b",
    "rescored.csv":
        "5eba44ff9dc1e46a5667c00c9d567ebd4d5d5bc2b5667504a3a3653fb0bffa57",
    "rescored.json":
        "dfffc48ee394083f83868c48d9b4b1061d099e78cc65d637d080ab27b2475162",
    "subword.jsonl":
        "4e820f02cfa4490b9373a9ac5daa535f341202110e08f2e45403e9484b4f4d82",
    "subword.jsonl.stats.json":
        "67e3f8042e75e15281ce223298bd81f0904b5c3226621628edc134f959e8042a",
    "vocab.json":
        "9171572107a1174628b9aeee5eec36b3747ef34d7fa13144fa3c7c4fa29a3019",
}


def _write_inputs(directory):
    def b64(data):
        return base64.b64encode(data).decode("ascii")

    prompts = [
        {"id": "demo", "prompt_b64": b64(fixtures.DEMO_PROMPT)},
        {"text": "def get_total(items):\n    tot"},
        {"id": 7, "prompt_b64": b64(b"    for item in it")},
    ]
    corpus = [
        {"id": "plain", "text": "def take_total(values):\n    return values\n"},
        {"text_b64": b64(b"caf\xe9 = lookup_value(key)\n")},
        {"text": "result = find_index(values, target)\n"},
    ]
    for name, docs in (("prompts.jsonl", prompts), ("mixed.jsonl", corpus)):
        (directory / name).write_text("".join(json.dumps(d) + "\n" for d in docs))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_commands(tmp_path, capsys) -> dict:
    inputs = tmp_path / "in"
    out = tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    _write_inputs(inputs)
    digests = {}
    for name, argv in COMMANDS:
        argv = [a.replace("{out}", str(out)).replace("{in}", str(inputs)) for a in argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, (name, captured.err)
        assert captured.err == "", name
        digests[f"stdout:{name}"] = _sha256(captured.out.replace(str(out), "<out>").encode())
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digests[path.relative_to(out).as_posix()] = _sha256(path.read_bytes())
    for name in BUNDLED:
        with open(fixtures.data_path(name), "rb") as fh:
            digests[f"bundled/{name}"] = _sha256(fh.read())
    return digests


def test_cli_outputs_are_byte_identical(tmp_path, capsys):
    assert run_commands(tmp_path, capsys) == GOLDEN
