"""Batch command-line surface.

Subcommands: gen-data, gen-trials, pretrain-asr, train, distill, adapt, probe,
embed, score, evaluate, count.  Every command is deterministic given its
config and seed; outputs land in the --out directory and inputs are never
mutated.  Exit codes: 0 success, 2 config error, 3 data error, 4 numeric
error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import autodiff as ad
from .accounting import count_adaptation_params, count_params, estimate_macs
from .adaptation import AdaptationConfig, linear_probe
from .config import RunConfig, load_run_config
from .conformer import EncoderConfig, encoder_preset
from .datapipe import (
    Corpus,
    load_utterance,
    log_mel,
    make_trials,
    read_manifest,
    write_corpus,
)
from .errors import ConfigError, ConfsvError, DataError, NumericError
from .scoring import (
    TrialList,
    eer,
    load_embeddings,
    min_dcf,
    parse_trials,
    qmf_features,
    qmf_fit,
    save_embeddings,
    score_trials,
    snorm_scores,
    write_score_file,
)
from .training import (
    extract_embeddings,
    load_asr_model,
    load_embedder,
    pretrain_asr,
    quality_features,
    train_adaptation,
    train_speaker,
)
from .util import rng_for, write_atomic, write_lines

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _load_config(args) -> RunConfig:
    if args.config:
        cfg = load_run_config(args.config)
    elif getattr(args, "seed", None) is not None:
        cfg = RunConfig(seed=args.seed)
    else:
        raise ConfigError("a seed is required: pass --config with a seed or --seed N")
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "lmft", False):
        cfg = replace(cfg, lmft=True)
    return cfg


def cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    corpus = Corpus(cfg.n_speakers, cfg.utts_per_speaker, cfg.seed)
    manifest = write_corpus(corpus, args.out)
    print(f"wrote {len(corpus)} utterances, manifest {manifest}")
    return EXIT_OK


def cmd_gen_trials(args) -> int:
    entries = read_manifest(args.manifest)
    trials = make_trials(entries, args.seed, args.n_target, args.n_nontarget)
    lines = [f"{label} {a} {b}" for label, a, b in trials]
    write_lines(args.out, lines)
    print(f"wrote {len(trials)} trials to {args.out}")
    return EXIT_OK


def cmd_pretrain_asr(args) -> int:
    cfg = _load_config(args)
    path = pretrain_asr(cfg, args.manifest, args.out)
    print(f"checkpoint {path}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args)
    path = train_speaker(cfg, args.manifest, args.out, init_ckpt=args.init)
    print(f"checkpoint {path}")
    return EXIT_OK


def cmd_distill(args) -> int:
    cfg = _load_config(args)
    if args.alpha is not None:
        cfg = replace(cfg, alpha=args.alpha)
    path = train_speaker(cfg, args.manifest, args.out, teacher_ckpt=args.teacher)
    print(f"checkpoint {path}")
    return EXIT_OK


def cmd_adapt(args) -> int:
    cfg = _load_config(args)
    path = train_adaptation(cfg, args.manifest, args.teacher, args.out)
    print(f"checkpoint {path}")
    return EXIT_OK


def cmd_probe(args) -> int:
    if args.max_utts is not None and args.max_utts < 1:
        raise ConfigError(f"--max-utts must be >= 1, got {args.max_utts}")
    encoder, _ = load_asr_model(args.ckpt)
    entries = read_manifest(args.manifest)
    if args.max_utts is not None:
        entries = entries[: args.max_utts]
    speakers = sorted({e.speaker_id for e in entries})  # one speaker: linear_probe raises
    label_of = {s: i for i, s in enumerate(speakers)}
    labels = [label_of[e.speaker_id] for e in entries]
    per_layer: list[list[np.ndarray]] = [[] for _ in range(encoder.cfg.layers)]
    for e in entries:
        utt = load_utterance(args.manifest, e)
        maps = encoder(ad.tensor(log_mel(utt.waveform)[None]))
        for layer, m in enumerate(maps):
            per_layer[layer].append(m.data[0])
    accuracies = linear_probe(per_layer, labels, seed=args.seed)
    lines = ["layer,accuracy"]
    lines += [f"{i + 1},{acc:.6f}" for i, acc in enumerate(accuracies)]
    write_lines(args.out, lines)
    print(f"wrote per-layer accuracies to {args.out}")
    return EXIT_OK


def cmd_embed(args) -> int:
    model = load_embedder(args.ckpt, args.teacher)
    store = extract_embeddings(model.embed_utterance, args.manifest)
    save_embeddings(args.out, store)
    print(f"wrote {len(store)} embeddings to {args.out}")
    return EXIT_OK


def _scored(args):
    """Cosine or s-norm scores of the trials, then QMF calibration if asked for."""
    if args.snorm:
        if args.cohort is None:
            raise ConfigError("--snorm needs --cohort embeddings")
        if args.cohort_size < 0:
            raise ConfigError(f"--cohort-size must be >= 0, got {args.cohort_size}")
        if args.top_k < 2:
            raise ConfigError(f"--top-k must be >= 2, got {args.top_k}")
    if args.qmf:
        if args.calib_trials is None:
            raise ConfigError("--qmf needs --calib-trials")
        if args.manifest is None:
            raise ConfigError("--qmf needs --manifest for quality features")
    store = load_embeddings(args.embeddings)
    trials = parse_trials(args.trials)
    if len(trials) == 0:
        raise DataError(f"{args.trials}: no trials")
    calib = parse_trials(args.calib_trials) if args.qmf else TrialList([])
    # one scorer call: the calibration trials go through the same normalization
    # as the trials, and the two lists share the per-key work
    both = TrialList(calib.trials + trials.trials)
    if args.snorm:
        cohort = load_embeddings(args.cohort)
        if args.cohort_size and len(cohort) > args.cohort_size:
            rng = rng_for(args.cohort_seed, "cohort")
            keys = sorted(cohort)
            picked = rng.choice(len(keys), size=args.cohort_size, replace=False)
            cohort = {keys[i]: cohort[keys[i]] for i in sorted(picked)}
        scores = snorm_scores(store, both, cohort, args.top_k)
    else:
        scores = score_trials(store, both)
    if not args.qmf:
        return trials, scores
    used = {key for t in both for key in (t.enroll, t.test)}  # the manifest may list more
    entries = [e for e in read_manifest(args.manifest) if e.path in used]
    quality = quality_features(args.manifest, entries, store)
    features = qmf_features(both, scores, quality)
    model = qmf_fit(features[:len(calib)], calib.labels)
    return trials, model.calibrate(features[len(calib):])


def cmd_score(args) -> int:
    trials, scores = _scored(args)
    write_score_file(args.out, trials, scores)
    print(f"wrote {len(trials)} scores to {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    trials, scores = _scored(args)
    labels = trials.labels
    e = eer(scores, labels)
    d = min_dcf(scores, labels)
    print(f"EER[%] {e:.4f}")
    print(f"minDCF {d:.4f}")
    if args.out:
        write_lines(args.out, ["eer_percent,min_dcf", f"{e:.17g},{d:.17g}"])
    return EXIT_OK


def _encoder_from_args(args) -> EncoderConfig:
    if args.preset:
        return encoder_preset(args.preset)
    if None in (args.layers, args.dim, args.heads, args.hidden):
        raise ConfigError("count needs --preset or all of --layers/--dim/--heads/--hidden")
    return EncoderConfig(args.layers, args.dim, args.heads, args.hidden, args.rate)


def cmd_count(args) -> int:
    cfg = _encoder_from_args(args)
    if args.variant:
        if args.adapted_layers is None:
            raise ConfigError("--variant needs --adapted-layers")
        acfg = AdaptationConfig(args.variant, args.adapted_layers, args.extra_layers)
        report = count_adaptation_params(acfg, cfg)
    elif args.macs:
        report = estimate_macs(cfg, input_seconds=args.seconds, convention=args.convention,
                               scope=args.scope)
    else:
        report = count_params(cfg, scope=args.scope)
    sys.stdout.write(report.to_text())
    if args.csv:
        write_atomic(args.csv, report.to_csv().encode("utf-8"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="confsv", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", required=True)

    sp = sub.add_parser("gen-data", help="synthesize a corpus and manifest")
    common(sp)
    sp.set_defaults(fn=cmd_gen_data)

    sp = sub.add_parser("gen-trials", help="sample trials from a manifest")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n-target", type=int, default=200)
    sp.add_argument("--n-nontarget", type=int, default=200)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_gen_trials)

    sp = sub.add_parser("pretrain-asr", help="CTC-train an encoder on corpus tokens")
    common(sp)
    sp.add_argument("--manifest", required=True)
    sp.set_defaults(fn=cmd_pretrain_asr)

    sp = sub.add_parser("train", help="speaker training (scratch or pretrained-init)")
    common(sp)
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--init", default=None, help="ASR checkpoint for initialization")
    sp.add_argument("--lmft", action="store_true")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("distill", help="speaker training with frame-level distillation")
    common(sp)
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--teacher", required=True)
    sp.add_argument("--alpha", type=float, default=None)
    sp.set_defaults(fn=cmd_distill)

    sp = sub.add_parser("adapt", help="train the frozen-backbone adaptation module")
    common(sp)
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--teacher", required=True, help="frozen backbone ASR checkpoint")
    sp.set_defaults(fn=cmd_adapt)

    sp = sub.add_parser("probe", help="per-layer linear probe accuracies")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-utts", type=int, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_probe)

    sp = sub.add_parser("embed", help="extract embeddings into a binary store")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--teacher", default=None, help="backbone for adaptation checkpoints")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_embed)

    for name, fn in (("score", cmd_score), ("evaluate", cmd_evaluate)):
        sp = sub.add_parser(name)
        sp.add_argument("--embeddings", required=True)
        sp.add_argument("--trials", required=True)
        sp.add_argument("--snorm", action="store_true")
        sp.add_argument("--cohort", default=None, help="cohort embedding store for --snorm")
        sp.add_argument("--cohort-size", type=int, default=300,
                        help="seeded random subsample of the cohort store (0 = all)")
        sp.add_argument("--cohort-seed", type=int, default=0)
        sp.add_argument("--top-k", type=int, default=70)
        sp.add_argument("--qmf", action="store_true")
        sp.add_argument("--calib-trials", default=None)
        sp.add_argument("--manifest", default=None)
        sp.add_argument("--out", required=(name == "score"), default=None)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("count", help="parameter/MACs accounting reports")
    sp.add_argument("--preset", default=None)
    sp.add_argument("--layers", type=int, default=None)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--heads", type=int, default=None)
    sp.add_argument("--hidden", type=int, default=None)
    sp.add_argument("--rate", type=float, default=0.25)
    sp.add_argument("--scope", default="speaker",
                    choices=["speaker", "encoder", "encoder+decoder"])
    sp.add_argument("--macs", action="store_true")
    sp.add_argument("--seconds", type=float, default=5.0)
    sp.add_argument("--convention", default="conv", choices=["conv", "full"])
    sp.add_argument("--variant", default=None, choices=["V1", "V2", "V3"])
    sp.add_argument("--adapted-layers", type=int, default=None)
    sp.add_argument("--extra-layers", type=int, default=0)
    sp.add_argument("--csv", default=None)
    sp.set_defaults(fn=cmd_count)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, ConfsvError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
