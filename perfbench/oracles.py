"""Counting oracle wrapper.

The wrapper logs every `extend` and `reset` an oracle receives, rollback
replays included, without changing what the decoder sees: every attribute
not defined here is forwarded to the wrapped oracle, and `truncate_cache`
exists only when the wrapped oracle has it, so `_align_oracle` takes the
same rollback path with or without the wrapper.
"""

from __future__ import annotations

from time import thread_time_ns

from specdec.oracle import CostModel, simulate_cost


class CallLog:
    """Oracle calls made during one decode.

    `batches` has one entry per `extend`: its length, negated when the call
    is a prefill, i.e. the first `extend` after a `reset`. The first
    prefill is the prompt; every later one replays the committed prefix
    after a rollback. `starts` holds the client thread's CPU time (ns) at
    the start of each other `extend`, the verify calls. With `keep_tokens`, `sent` keeps every
    batch sent, so request sizes can be counted afterwards.
    """

    def __init__(self, keep_tokens: bool = False) -> None:
        self.batches: list[int] = []
        self.starts: list[int] = []
        self.resets = 0
        self.truncates = 0
        self.sent: list[list[int]] | None = [] if keep_tokens else None

    @property
    def extend_calls(self) -> int:
        return len(self.batches)

    @property
    def extend_tokens(self) -> int:
        return sum(abs(b) for b in self.batches)

    @property
    def replays(self) -> int:
        return max(0, sum(1 for b in self.batches if b < 0) - 1)

    @property
    def replay_tokens(self) -> int:
        prefills = [-b for b in self.batches if b < 0]
        return sum(prefills[1:])

    @property
    def rollbacks(self) -> int:
        return self.truncates + self.replays

    def sim_time(self, cost_model: CostModel) -> float:
        """Cost-model time of every call made, replays charged as prefill.

        Summed in call order, so with no replays it is bit-identical to
        `specdec.metrics.sim_total_time` of the same decode."""
        total = 0.0
        for b in self.batches:
            total += simulate_cost(cost_model, "prefill", -b) if b < 0 else simulate_cost(
                cost_model, "verify", b)
        return total

    def summary(self) -> tuple:
        return (tuple(self.batches), self.resets, self.truncates)


class CountingOracle:
    """Forwards to `inner`; logs extend/reset calls in `log`."""

    def __init__(self, inner, log: CallLog) -> None:
        self._inner = inner
        self._after_reset = False
        self.log = log
        self.eos = inner.eos  # read once per committed token by the decoders

    @property
    def consumed_len(self) -> int:
        return self._inner.consumed_len

    def extend(self, tokens: list[int]) -> list[int]:
        log = self.log
        if self._after_reset:
            self._after_reset = False
            log.batches.append(-len(tokens))
        else:
            log.starts.append(thread_time_ns())
            log.batches.append(len(tokens))
        if log.sent is not None:
            log.sent.append(tokens)
        return self._inner.extend(tokens)

    def reset(self) -> None:
        self._after_reset = True
        self.log.resets += 1
        self._inner.reset()

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TruncatingCountingOracle(CountingOracle):
    def truncate_cache(self, length: int) -> None:
        self.log.truncates += 1
        self._inner.truncate_cache(length)


def counting(inner, log: CallLog) -> CountingOracle:
    """Wrap `inner`, keeping its rollback capability exactly as it is."""
    cls = TruncatingCountingOracle if hasattr(inner, "truncate_cache") else CountingOracle
    return cls(inner, log)
