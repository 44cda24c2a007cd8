"""Conformer speaker-verification toolkit.

Transfers ASR Conformer knowledge to speaker verification three ways:
pretrained initialization with a freeze-then-finetune schedule, frame-level
CTC-logit distillation, and a frozen-backbone speaker adaptation module.
Includes the full training recipe, scoring/calibration stack, and a
parameter/MACs accounting subsystem.

The Python API is the module classes, one path per job:
`ConformerEncoder(cfg)` (its forward maps (B, T, 80) log-mel features to
per-block (B, T', d) feature maps), then `MfaAggregator`,
`AttentiveStatsPooling` and `EmbeddingHead`, composed as
`SpeakerModel(cfg)`; or `SpeakerAdaptation(backbone, cfg)` on a frozen
encoder.  No constructor takes a seed: a module is seeded with
`nn.seed_parameters(module, seed, scope)` or loaded from a checkpoint.
Both embed one utterance's (T, 80) `log_mel` features with
`embed_utterance`, and `load_embedder(path, backbone_ckpt)` returns either
one, frozen, from a speaker or an adaptation checkpoint.  A forward with
`rng=None`, or of a frozen encoder, is inference and changes nothing; any
other forward with an rng is a training step.  Scoring takes whole trial
lists: `scoring.score_trials` or `snorm_scores`, then `qmf_features`,
`qmf_fit` and `QmfModel.calibrate`.
Every name re-exported below is used inside the package.
"""

from .adaptation import (
    AdaptationConfig,
    LayerAdaptor,
    SpeakerAdaptation,
    linear_probe,
)
from .autodiff import Tensor, backward, layer_norm, matmul, softmax, tensor
from .conformer import ENCODER_PRESETS, ConformerBlock, ConformerEncoder, EncoderConfig
from .accounting import CountReport, count_adaptation_params, count_params, estimate_macs
from .datapipe import (
    Corpus,
    SynthSpeakerProfile,
    Utterance,
    add_noise,
    augment_onthefly,
    crop,
    log_mel,
    reverb,
    speed_perturb,
)
from .heads import AttentiveStatsPooling, EmbeddingHead, MfaAggregator, SpeakerModel
from .losses import (
    AamClassifier,
    CtcDecoder,
    RateMatcher,
    aam_softmax_loss,
    combined_loss,
    distill_kl_loss,
)
from .scoring import TrialList, eer, min_dcf, parse_trials, qmf_fit
from .training import load_embedder

__version__ = "0.1.0"
