"""Robust text completion for prompts that end mid-token.

The pipeline: tokenize the prompt, back off the last few tokens into an
alignment prefix, then decode with the next-token distribution masked to
tokens compatible with that prefix (via a sorted-token index and a mask cache)
until the prefix is consumed; free decoding follows.  The package also
generates partial-token evaluation datasets and scores paired
with/without-alignment runs.
"""

from .align import (
    AlignConfig,
    AlignmentContractError,
    AlignmentError,
    DeadEndError,
    EmptyMaskError,
    advance,
    aligned_generate,
    backtrack_split,
    mask_distribution,
)
from .decoding import (
    GenerationResult,
    LogitsProvider,
    NGramModel,
    SamplerConfig,
    ScriptedModel,
    build_ngram_model,
    generate,
    make_rng,
    nucleus_keep_set,
    sample,
)
from .metrics import (
    EvalRecord,
    ScoreReport,
    edit_similarity,
    exact_match,
    first_token_accuracy,
    levenshtein,
    pass_at_k,
    read_eval_records,
    rouge_l,
    score_records,
    write_eval_records,
)
from .scenarios import (
    SCENARIOS,
    DatasetError,
    ScenarioExample,
    generate_dataset,
    validate_example,
)
from .trie import ByteTrie, MaskCache, TokenMask, build_trie
from .vocab import (
    EncodingError,
    PretokenizeOptions,
    Vocabulary,
    VocabularyError,
    VocabularyFormatError,
    VocabularyValidationError,
    decode,
    encode,
    load_vocabulary,
    save_vocabulary,
    train_tiny_bpe,
)

__version__ = "0.1.0"
