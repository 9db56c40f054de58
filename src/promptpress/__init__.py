"""promptpress: task-agnostic prompt compression.

Token deletion is modeled as a sequential decision process: a per-token
keep/drop policy compresses a prompt over a handful of rounds. It is
trained with a clipped-surrogate policy update and no value network: each
step's advantage is its return minus the mean return of the other
trajectories in its update round. The reward balances the compression
ratio, key-information retention, and the divergence of a proxy model's
continuations, under a curriculum that gradually tightens the permitted
compression band.

The package re-exports nothing: import each name from the module that
defines it, e.g. ``from promptpress.trainer import hpc_train``.
"""

__version__ = "0.1.0"
