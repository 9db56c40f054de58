"""The compression environment: states, keep/drop actions, transitions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .text import TokenSequence


def _is_subsequence(sub: tuple[int, ...], full: tuple[int, ...]) -> bool:
    it = iter(full)
    return all(any(x == y for y in it) for x in sub)


@dataclass(frozen=True)
class CompressionState:
    """MDP state: the original prompt and the current compressed prompt."""

    original: TokenSequence
    current: TokenSequence

    def __post_init__(self) -> None:
        if not _is_subsequence(self.current.ids, self.original.ids):
            raise ValueError("current is not a subsequence of original")

    @classmethod
    def _trusted(
        cls, original: TokenSequence, current: TokenSequence
    ) -> "CompressionState":
        """A state whose ``current`` is a subsequence of ``original`` by
        construction, built without the constructor's O(L) check."""
        state = object.__new__(cls)
        object.__setattr__(state, "original", original)
        object.__setattr__(state, "current", current)
        return state


@dataclass(frozen=True)
class ActionVector:
    """Per-token keep/drop labels: 0 removes the token, 1 preserves it."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(l not in (0, 1) for l in self.labels):
            raise ValueError("labels must be 0 or 1")

    def __len__(self) -> int:
        return len(self.labels)


def reset(prompt: TokenSequence) -> CompressionState:
    """Start an episode: the prompt is both the original and the current sequence."""
    if len(prompt) == 0:
        raise ValueError("empty prompt")
    return CompressionState._trusted(prompt, prompt)


def apply_action(
    state: CompressionState, action: ActionVector, keep_probs: Sequence[float]
) -> CompressionState:
    """Keep exactly the tokens labeled 1, in order.

    An all-zeros action would empty the prompt, which leaves the
    compression rate and all scorers undefined; instead one token is
    force-kept: the one with the highest keep probability (the first
    among equals).
    """
    if len(action) != len(state.current):
        raise ValueError(
            f"action/sequence length mismatch: {len(action)} != {len(state.current)}"
        )
    kept = tuple(
        tid for tid, label in zip(state.current.ids, action.labels) if label == 1
    )
    if not kept:
        kept = (state.current.ids[int(np.argmax(keep_probs))],)
    return CompressionState._trusted(state.original, TokenSequence(kept))


def compression_rate(state: CompressionState) -> float:
    """rho = compressed length / original length, in (0, 1]."""
    return len(state.current) / len(state.original)
