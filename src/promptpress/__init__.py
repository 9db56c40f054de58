"""promptpress: task-agnostic prompt compression.

Token deletion is modeled as a sequential decision process: a per-token
keep/drop policy compresses a prompt over a handful of rounds. It is
trained with a clipped-surrogate policy update and no value network: each
step's advantage is its return minus the mean return of the other
trajectories in its update round. The reward balances the compression
ratio, key-information retention, and the divergence of a proxy model's
continuations, under a curriculum that gradually tightens the permitted
compression band.
"""

__version__ = "0.1.0"

from .baselines import (
    IdentityCompressor,
    PolicyCompressor,
    RandomCompressor,
    SelfInfoCompressor,
    random_compress,
    selfinfo_compress,
)
from .encoder import EncoderConfig, TinyTransformerEncoder
from .evaluation import EvalReport, EvalSettings, evaluate
from .metrics import exact_match, lcs_length, rouge_l, rouge_n, token_f1
from .policy import (
    Actor,
    apply_action,
    greedy_actions,
    policy_forward,
    sample_actions,
)
from .reward import Band, RewardBreakdown, RewardConfig, assemble_reward, compute_reward, in_band
from .scoring import (
    IdfRetentionScorer,
    NextTokenDistribution,
    NgramLM,
    ProxyLM,
    RetentionScorer,
    fit_ngram_lm,
    idf_retention_score,
    kl_divergence,
    output_distribution_kl,
)
from .text import (
    PromptRecord,
    TokenSequence,
    Vocabulary,
    build_vocabulary,
    compute_idf_table,
    detokenize,
    load_corpus,
    make_synthetic_corpus,
    save_corpus,
    tokenize,
    tokenize_corpus,
)
from .trainer import (
    CurriculumSchedule,
    Scorers,
    TrainerConfig,
    TrainingDiverged,
    TrainingLog,
    TrainState,
    Trajectory,
    TrajectoryStep,
    collect_trajectory,
    curriculum_bounds,
    hpc_train,
    init_train_state,
    load_checkpoint,
    returns_from,
    save_checkpoint,
)
