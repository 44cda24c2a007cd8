"""Spans around the public callables of each confsv module.

The tracer wraps callables from outside the program: a method is replaced on
its class, a function under every name a confsv module binds it to (for
example `training.log_mel` as well as `datapipe.log_mel`).  A span records its
name, start, end, parent span, thread and the command it belongs to.  Parent
stacks are kept per thread; spans are held in memory and written out at the
end.  Self time is a span's duration minus the part of it that its children
cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple, Optional

# module -> public callables wrapped in that module
TARGETS = {
    "datapipe": ["load_utterance", "augment_onthefly", "speed_perturb", "crop", "log_mel"],
    "conformer": ["ConformerEncoder.forward", "ConvSubsampling.forward",
                  "ConformerBlock.forward", "FeedForwardModule.forward",
                  "AttentionModule.forward", "ConvolutionModule.forward"],
    "heads": ["MfaAggregator.forward", "AttentiveStatsPooling.forward",
              "EmbeddingHead.forward", "SpeakerModel.embed_utterance"],
    "losses": ["aam_softmax_loss", "ctc_loss_batch", "distill_kl_loss",
               "CtcDecoder.forward", "RateMatcher.forward"],
    "adaptation": ["SpeakerAdaptation.forward", "SpeakerAdaptation.backbone_taps",
                   "LayerAdaptor.forward"],
    "autodiff": ["backward"],
    "training": ["pretrain_asr", "train_speaker", "train_adaptation", "AdamW.step",
                 "extract_embeddings", "quality_features"],
    "checkpoint": ["save_checkpoint", "load_checkpoint"],
    "scoring": ["load_embeddings", "parse_trials", "score_trials", "snorm_scores",
                "eer", "min_dcf", "qmf_fit"],
    "util": ["parallel_map"],
}
SPAN_NAMES = [f"{m}.{c}" for m, names in TARGETS.items() for c in names]

# spans that contain other wrapped spans; they also report busy (inclusive) time
NESTING = {
    "conformer.ConformerEncoder.forward", "conformer.ConformerBlock.forward",
    "heads.SpeakerModel.embed_utterance", "adaptation.SpeakerAdaptation.forward",
    "adaptation.SpeakerAdaptation.backbone_taps", "training.pretrain_asr",
    "training.train_speaker", "training.train_adaptation", "training.extract_embeddings",
    "training.quality_features", "util.parallel_map",
}

# per-layer counts and ratios besides calls/self_s/busy_s: name -> (unit, better)
EXTRA_METRICS = {
    "autodiff.backward.nodes": ("count", "lower"),
    "training.AdamW.step.wasted_grad_ratio": ("ratio", "lower"),
    "adaptation.SpeakerAdaptation.backbone_taps.blocks_used_ratio": ("ratio", "higher"),
    "util.parallel_map.idle_share": ("ratio", "lower"),
    "conformer.ConvSubsampling.forward.gmacs_per_s": ("GMAC/s", "higher"),
    "conformer.ConformerBlock.forward.gmacs_per_s": ("GMAC/s", "higher"),
    "checkpoint.bytes_written": ("bytes", "lower"),
    "checkpoint.bytes_read": ("bytes", "lower"),
    "trace_overhead": ("ratio", "lower"),
}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in SPAN_NAMES:
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
        if name in NESTING:
            specs.append((f"{name}.busy_s", "s", "lower"))
    specs.extend((name, unit, better) for name, (unit, better) in EXTRA_METRICS.items())
    return specs


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    command: str


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Installs span-recording wrappers and turns the spans into per-layer metrics."""

    def __init__(self):
        self.spans: list[Span] = []
        self.command = ""
        self.counts: Counter = Counter()
        self.macs: dict[int, int] = {}  # span id -> forward MACs of that call
        self.taps_layers: dict[int, int] = {}  # backbone_taps span id -> adapted_layers
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------------

    @contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._undo):
                setattr(owner, attr, original)
            self._undo.clear()

    def _install(self):
        hooks = {
            "autodiff.backward": (self._pre_backward, None),
            "training.AdamW.step": (self._pre_adamw, None),
            "adaptation.SpeakerAdaptation.backbone_taps": (self._pre_taps, None),
            "util.parallel_map": (self._pre_parallel_map, self._post_parallel_map),
            "conformer.ConvSubsampling.forward": (self._pre_subsampling, None),
            "conformer.ConformerBlock.forward": (self._pre_block, None),
            "checkpoint.save_checkpoint": (None, self._post_save),
            "checkpoint.load_checkpoint": (self._pre_load, None),
        }
        bindings = [m for n, m in list(sys.modules.items())
                    if n == "confsv" or n.startswith("confsv.")]
        for name in SPAN_NAMES:
            module_name, _, attr = name.partition(".")
            module = importlib.import_module(f"confsv.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            pre, post = hooks.get(name, (None, None))
            if owner_name:
                cls = getattr(module, owner_name)
                self._patch(cls, method, self._wrap(name, cls.__dict__[method], pre, post))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, pre, post)
            for mod in bindings:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, pre, post):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            if pre is not None:
                args = pre(sid, args)
            stack = self._stack()
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent,
                                       threading.get_ident(), self.command))
                if post is not None:
                    post(sid, args, end - start)

        return traced

    # -- counters taken at the layer boundaries, outside the timed span -------

    def _pre_backward(self, sid, args):
        from confsv.autodiff import topo_order

        self.counts["backward_nodes"] += len(topo_order(args[0]))
        return args

    def _pre_adamw(self, sid, args):
        named = list(args[1])
        holding = [p for _, p in named if p.grad is not None]
        self.counts["grads_held"] += len(holding)
        self.counts["grads_wasted"] += sum(not p.trainable for p in holding)
        return (args[0], named, *args[2:])

    def _pre_taps(self, sid, args):
        self.taps_layers[sid] = args[0].cfg.adapted_layers
        return args

    def _pre_parallel_map(self, sid, args):
        fn = args[0]

        def timed(item):
            stack = self._stack()
            pushed = not stack or stack[-1] != sid  # worker threads start without a parent
            if pushed:
                stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(item)
            finally:
                elapsed = time.perf_counter() - start
                if pushed:
                    stack.pop()
                with self._lock:
                    self.counts["map_item_s"] += elapsed

        return (timed, *args[1:])

    def _post_parallel_map(self, sid, args, wall):
        from confsv.util import worker_count

        workers = max(1, min(worker_count(), len(args[1])))
        self.counts["map_capacity_s"] += wall * workers

    def _pre_subsampling(self, sid, args):
        from confsv.accounting import estimate_macs

        sub, mel = args[0], args[1]
        batch, frames = mel.shape[0], mel.shape[1]
        report = estimate_macs(sub.cfg, frames / 100, convention="full", scope="encoder")
        self.macs[sid] = report.entries[0].macs * batch
        return args

    def _pre_block(self, sid, args):
        from confsv.accounting import estimate_macs
        from confsv.conformer import EncoderConfig

        block, x = args[0], args[1]
        batch, frames = x.shape[0], x.shape[1]
        # blocks do not keep their config; rebuild it from the block's shapes.
        # At quarter rate, 4 * T' mel frames subsample to exactly T' frames.
        cfg = EncoderConfig(layers=1, dim=block.attn.dim, heads=block.attn.heads,
                            hidden=block.ffn1.linear1.weight.shape[1],
                            subsample_rate=0.25, conv_kernel=block.conv.kernel)
        report = estimate_macs(cfg, 4 * frames / 100, convention="full", scope="encoder")
        self.macs[sid] = report.entries[1].macs * batch
        return args

    def _post_save(self, sid, args, wall):
        self.counts["bytes_written"] += os.path.getsize(args[0])

    def _pre_load(self, sid, args):
        self.counts["bytes_read"] += os.path.getsize(args[0])
        return args

    # -- reduction -------------------------------------------------------------

    def metrics(self, passes: int, overhead: float) -> dict[str, float]:
        """Per-layer metrics per traced pass; ratios are over all traced passes."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        self_s = {s.sid: (s.end - s.start)
                  - _covered([(c.start, c.end) for c in children[s.sid]], s.start, s.end)
                  for s in self.spans}
        by_name: dict[str, list[Span]] = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)

        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            spans = by_name[name]
            out[f"{name}.calls"] = len(spans) / passes
            out[f"{name}.self_s"] = sum(self_s[s.sid] for s in spans) / passes
            if name in NESTING:
                out[f"{name}.busy_s"] = sum(s.end - s.start for s in spans) / passes

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        out["autodiff.backward.nodes"] = ratio(c["backward_nodes"],
                                               len(by_name["autodiff.backward"]))
        out["training.AdamW.step.wasted_grad_ratio"] = ratio(c["grads_wasted"], c["grads_held"])
        blocks_inside = sum(self._descendants(sid, children, "conformer.ConformerBlock.forward")
                            for sid in self.taps_layers)
        out["adaptation.SpeakerAdaptation.backbone_taps.blocks_used_ratio"] = ratio(
            sum(self.taps_layers.values()), blocks_inside)
        out["util.parallel_map.idle_share"] = (
            1.0 - ratio(c["map_item_s"], c["map_capacity_s"]) if c["map_capacity_s"] else 0.0)
        for name in ("conformer.ConvSubsampling.forward", "conformer.ConformerBlock.forward"):
            spans = by_name[name]
            # a block's MACs are spent in its child spans, so divide by inclusive time
            out[f"{name}.gmacs_per_s"] = ratio(sum(self.macs[s.sid] for s in spans) / 1e9,
                                               sum(s.end - s.start for s in spans))
        out["checkpoint.bytes_written"] = c["bytes_written"] / passes
        out["checkpoint.bytes_read"] = c["bytes_read"] / passes
        out["trace_overhead"] = overhead
        return out

    @staticmethod
    def _descendants(sid: int, children, name: str) -> int:
        count, todo = 0, list(children[sid])
        while todo:
            s = todo.pop()
            count += s.name == name
            todo.extend(children[s.sid])
        return count

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s._asdict()) + "\n")
