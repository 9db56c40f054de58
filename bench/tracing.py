"""Spans around the calls into each ``promptpress`` layer, from outside.

A :class:`Tracer` replaces a function under the name its caller looks it
up by (a module global such as ``promptpress.trainer.generate_reference``,
or a method on its class such as ``NgramLM.next_token_dist``) with a
wrapper that records a span: name, start, end and the enclosing span.
Spans stay in memory; :meth:`Tracer.write` writes them out once the run
has ended, and leaving the ``with`` block puts every original back.

A span's self time is its duration minus the time covered by its direct
child spans. The program is synchronous and single-process, so spans
nest strictly and no layer waits in a queue.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

# Timed layers: metric prefix -> places the function is looked up from.
# "module:attr" is a module global; "module:Class.attr" a method.
LAYERS: dict[str, tuple[str, ...]] = {
    "encoder.forward": ("promptpress.encoder:TinyTransformerEncoder.forward",),
    "encoder.backward": ("promptpress.encoder:TinyTransformerEncoder.backward",),
    "trainer.collect_trajectory": ("promptpress.trainer:collect_trajectory",),
    "trainer.update_round": ("promptpress.trainer:_update_round",),
    "trainer.ppo_objective_and_grads": ("promptpress.trainer:ppo_objective_and_grads",),
    "trainer.critic_loss_and_grads": ("promptpress.trainer:critic_loss_and_grads",),
    "trainer.save_checkpoint": ("promptpress.cli:save_checkpoint",),
    "trainer.load_checkpoint": ("promptpress.cli:load_checkpoint",),
    "optim.adam_step": ("promptpress.optim:Adam.step",),
    "optim.clip_gradients": ("promptpress.trainer:clip_gradients",),
    "policy.policy_forward": (
        "promptpress.trainer:policy_forward",
        "promptpress.cli:policy_forward",
        "promptpress.baselines:policy_forward",
    ),
    "policy.value_forward": ("promptpress.trainer:value_forward",),
    "policy.action_log_prob_and_grad": ("promptpress.trainer:action_log_prob_and_grad",),
    "policy.value_and_grad": ("promptpress.trainer:value_and_grad",),
    "scoring.next_token_dist": ("promptpress.scoring:NgramLM.next_token_dist",),
    "scoring.generate_reference": ("promptpress.trainer:generate_reference",),
    "scoring.greedy_continue": ("promptpress.scoring:NgramLM.greedy_continue",),
    "scoring.output_distribution_kl": ("promptpress.reward:output_distribution_kl",),
    "scoring.kl_divergence": ("promptpress.scoring:kl_divergence",),
    "scoring.idf_retention": ("promptpress.scoring:IdfRetentionScorer.score",),
    "reward.compute_reward": ("promptpress.trainer:compute_reward",),
    "text.load_corpus": ("promptpress.cli:load_corpus",),
    "text.tokenize": tuple(
        f"promptpress.{m}:tokenize"
        for m in ("cli", "trainer", "evaluation", "scoring", "text")
    ),
    "env.apply_action": tuple(
        f"promptpress.{m}:apply_action" for m in ("cli", "trainer", "baselines")
    ),
    "baselines.random_compress": ("promptpress.baselines:random_compress",),
    "baselines.selfinfo_compress": ("promptpress.baselines:selfinfo_compress",),
    "baselines.policy_compress": ("promptpress.baselines:PolicyCompressor.compress",),
    "evaluation.evaluate": ("promptpress.cli:evaluate",),
    "metrics.rouge_n": ("promptpress.evaluation:rouge_n",),
    "metrics.rouge_l": ("promptpress.evaluation:rouge_l",),
}

# A KL value within this distance of 0 counts as wasted work.
ZERO_KL = 1e-12


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Wraps the :data:`LAYERS` while active and aggregates their spans."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._open: list[list] = []  # [name, start, child seconds, index]
        self._restore: list[tuple[object, str, object]] = []
        self._seen: dict[str, set] = defaultdict(set)

    # -- wrapping -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        observers = self._observers()
        for name, places in LAYERS.items():
            for place in places:
                self._wrap(name, place, observers.get(name))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, place: str, observe: Callable | None) -> None:
        module_name, _, path = place.partition(":")
        owner: object = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = owner.__dict__.get(attr) if owner is not None else None
        if original is None:
            # A refactor moved the function; its layer reports 0 calls.
            self.missing.append(place)
            return
        enter, leave = self._enter, self._leave

        @functools.wraps(original)
        def traced(*args, **kwargs):
            enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                leave()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def _enter(self, name: str) -> None:
        self._open.append([name, time.perf_counter(), 0.0, len(self.spans)])
        self.spans.append((name, 0.0, 0.0, -1))  # filled in by _leave

    def _leave(self) -> None:
        end = time.perf_counter()
        name, start, child_s, index = self._open.pop()
        duration = end - start
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent[2] += duration
        self.spans[index] = (name, start, end, parent[3] if parent else -1)
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s

    # -- counters measured at the call boundary -------------------------

    def _observers(self) -> dict[str, Callable]:
        counts, seen = self.counts, self._seen

        def forward_tokens(args, kwargs, result):
            counts["encoder.forward.tokens"] += len(_arg(args, kwargs, 1, "ids"))

        def backward_tokens(args, kwargs, result):
            shape = _arg(args, kwargs, 2, "dh").shape
            counts["encoder.backward.tokens"] += math.prod(shape[:-1])

        def kl_zero(args, kwargs, result):
            if abs(result) <= ZERO_KL:
                counts["scoring.kl_divergence.zero"] += 1

        def repeated(name: str, seq_index: int, seq_name: str, n_index: int, n_name: str):
            def observe(args, kwargs, result):
                key = (
                    tuple(_arg(args, kwargs, seq_index, seq_name).ids),
                    _arg(args, kwargs, n_index, n_name),
                )
                if key in seen[name]:
                    counts[name + ".repeat"] += 1
                seen[name].add(key)

            return observe

        def checkpoint_bytes(index: int, arg_name: str):
            def observe(args, kwargs, result):
                counts["trainer.checkpoint_bytes"] += os.path.getsize(
                    _arg(args, kwargs, index, arg_name)
                )

            return observe

        return {
            "encoder.forward": forward_tokens,
            "encoder.backward": backward_tokens,
            "scoring.kl_divergence": kl_zero,
            "scoring.generate_reference": repeated(
                "scoring.generate_reference", 1, "s0", 2, "n_gen"
            ),
            "scoring.greedy_continue": repeated(
                "scoring.greedy_continue", 1, "context", 2, "n"
            ),
            "trainer.save_checkpoint": checkpoint_bytes(2, "path"),
            "trainer.load_checkpoint": checkpoint_bytes(0, "path"),
        }

    # -- results --------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer numbers as {metric name: (value, unit)}."""
        out: dict[str, tuple[float, str]] = {}
        for name in LAYERS:
            if name == "trainer.update_round":
                continue
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for name in ("encoder.forward", "encoder.backward"):
            out[f"{name}.tokens"] = (self.counts[f"{name}.tokens"], "count")
        for name in ("scoring.generate_reference", "scoring.greedy_continue"):
            out[f"{name}.repeat_frac"] = (
                self.counts[name + ".repeat"] / max(self.calls[name], 1), "frac"
            )
        out["scoring.kl_divergence.zero_frac"] = (
            self.counts["scoring.kl_divergence.zero"]
            / max(self.calls["scoring.kl_divergence"], 1),
            "frac",
        )
        # One PPO objective per update iteration.
        out["trainer.update_iter_s"] = (
            self.total_s["trainer.update_round"]
            / max(self.calls["trainer.ppo_objective_and_grads"], 1),
            "s",
        )
        out["trainer.checkpoint_bytes"] = (self.counts["trainer.checkpoint_bytes"], "B")
        return out

    def write(self, path: Path) -> None:
        """One JSON array per span: [name, start_s, end_s, parent index]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
