"""Generation outputs stay bit-identical across refactors.

For the seed-1 dataset of every scenario (bundled code corpus, trained
512-token vocabulary, n-gram provider) and for the demo fixture, both
arms generate 16 new tokens per prompt, greedy and nucleus (``top_p``
0.9, the prompt's index as its seed), the aligned arm with
``MaskCache(trie, 1024)``.  Each result's ``to_json_dict()`` without
``timings_us`` is one JSON line, and the sha256 of each run's lines must
equal the digest recorded below.

A change that alters outputs on purpose updates these digests and says
so; any other change must leave them as they are.
"""

import hashlib
import json

import pytest

from tokalign import (
    SCENARIOS,
    AlignConfig,
    MaskCache,
    SamplerConfig,
    aligned_generate,
    build_trie,
    fixtures,
    generate,
    generate_dataset,
)

GOLDEN = {
    "contiguous_space/aligned/greedy":
        "d6f4f6335be2f7619ee16c38997d043866f7bf28b19e85414bdc7fa816ea2a84",
    "contiguous_space/aligned/nucleus":
        "5d22809fd6903e3716ed886861e49baeea52529c581e829e2ec17d5090e89079",
    "contiguous_space/plain/greedy":
        "2553d5a8d5a77b030d1972d149556eb0d59e3709671388a30ba19a70c92a08c3",
    "contiguous_space/plain/nucleus":
        "a32cbed27a766530d9942ea88af56ae0b2e30e833d57d86236cf4b88a7ccfa09",
    "demo/aligned/greedy":
        "024cb4748606233023549c3820f47bb14540d575821d3a527e968277857c3ece",
    "demo/aligned/nucleus":
        "2ab162b28bb1218b81b466ce16d51f5290ad8c535f16018653a5f8c8ced8ce0f",
    "demo/plain/greedy":
        "9f965d26eac3f4b4cb5aa6b7ed11242dd661ab51f869ce211bed3c406e0e42e6",
    "demo/plain/nucleus":
        "03c88fa2a2f1bb6e2146589df468a941ef0a92902c84730943b88babcda5d5e4",
    "prefix_indent/aligned/greedy":
        "6946196df2248ab8c0fe553fbc3f49e511ed53ef4883bd068652393f2cf609f8",
    "prefix_indent/aligned/nucleus":
        "eb6a0360577dfab6af01be97f133b2fdf5ef68ac04efdb55117529b510790c63",
    "prefix_indent/plain/greedy":
        "c91c500035e9de6a0d6a40f43cf34b213382af6340db5daea8b8e7d67b4afd25",
    "prefix_indent/plain/nucleus":
        "2b203f75274cd00e97f1538883276ec31092af3914f7a0a10a5840d6f92481ca",
    "prefix_sep/aligned/greedy":
        "0025da9ad597dd1e08e812a190f2f0371fdff5af3e67e0a533978ea967183906",
    "prefix_sep/aligned/nucleus":
        "b58992db643f7bc25ee35b86fff8845a78531fbffa46f09ac823d190a92a82ec",
    "prefix_sep/plain/greedy":
        "8128eee519c8b2645403bad8d050ffa0d3a6fdcce52c9585676ce9482342901e",
    "prefix_sep/plain/nucleus":
        "aa00caa75278b8588936541050b247988befd77c3cca957074f42a30be914f79",
    "punctuation/aligned/greedy":
        "eff1b9ec15842277e997a8cce48b092cad8027b604c33ce3117bb97b595358fd",
    "punctuation/aligned/nucleus":
        "e37d55cee66ef28033f39068b11ba1dee5ea9392a63134a21ac863a231ef5b4d",
    "punctuation/plain/greedy":
        "434fea371eba2f719dd12036ae11fe2c4f44b2ec2e1bcfa1905cef22c0327b4b",
    "punctuation/plain/nucleus":
        "97f48c3871ff511f54010fd4269aca366156be2cdeeb95f635e634b54428b724",
    "subword/aligned/greedy":
        "7d5d49fe19fae3a7017abafe1b695cae019994abaea9d86238c8d92388dd923f",
    "subword/aligned/nucleus":
        "fe8ac395c953b9a49e9be1f7ffdf52c6597a5a146e177a4e6d6cd1a96fdd5c96",
    "subword/plain/greedy":
        "7ce9fcf289699ee833938eead1ca1411bc65acc56e7b69be7caafa6d07c0e0e6",
    "subword/plain/nucleus":
        "ccfe1ae7b1979cff40962dced6a46e6028b49821f0c9ec1e25cc751c289a23d4",
}

MODES = {
    "greedy": dict(mode="greedy"),
    "nucleus": dict(mode="nucleus", top_p=0.9),
}


def run_digest(arm, provider, vocab, trie, prompts, mode):
    cache = MaskCache(trie, 1024)
    digest = hashlib.sha256()
    for index, prompt in enumerate(prompts):
        cfg = SamplerConfig(seed=index, max_new_tokens=16, **MODES[mode])
        if arm == "aligned":
            result = aligned_generate(provider, vocab, trie, cache, prompt, AlignConfig(), cfg)
        else:
            result = generate(provider, vocab, prompt, cfg)
        doc = result.to_json_dict()
        del doc["timings_us"]
        digest.update(json.dumps(doc, sort_keys=True).encode("ascii") + b"\n")
    return digest.hexdigest()


@pytest.fixture(scope="module")
def sources(code_corpus, trained_vocab, ngram_provider, trained_trie, demo_vocab, demo_model):
    out = {
        scenario: (
            ngram_provider, trained_vocab, trained_trie,
            [ex.prompt for ex in generate_dataset(code_corpus, scenario, seed=1)[0]],
        )
        for scenario in SCENARIOS
    }
    out["demo"] = (demo_model, demo_vocab, build_trie(demo_vocab), [fixtures.DEMO_PROMPT])
    return out


@pytest.mark.parametrize("source", [*SCENARIOS, "demo"])
def test_outputs_match_recorded_digests(sources, source):
    provider, vocab, trie, prompts = sources[source]
    got = {
        f"{source}/{arm}/{mode}": run_digest(arm, provider, vocab, trie, prompts, mode)
        for arm in ("aligned", "plain")
        for mode in MODES
    }
    assert got == {key: GOLDEN[key] for key in got}
