"""Seeded workload inputs: every array here is a pure function of ``seed``.

The deployment under test receives only these arrays. Each generator
draws from its own ``numpy`` stream keyed by ``(seed, purpose)``, so adding
a phase or a workload never shifts the inputs of another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data import generate_synth_mnist, generate_synth_svhn
from repro.transforms import Contrast, Rotation

# Stream keys for np.random.default_rng([seed, key]).
_STREAM_POOL, _STREAM_SCHEDULE, _BULK_POOL, _BULK_ORDER, _REFIT_TRAIN, _REFIT_CHECK = range(6)

#: Request kinds on the stream.
CLEAN, ROTATED, CONTRAST, NAN = 0, 1, 2, 3

#: Share of stream requests that are corner cases / NaN-pixel frames.
CORNER_SHARE = 0.10
NAN_SHARE = 0.01


def _rng(seed: int, key: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed, key, *extra])


class StreamPool:
    """Unique single ``(1, 28, 28)`` images for the open-loop stream.

    Request ``n`` is ``variant[kind][n % P] + jitter[n // P]``: a digit from
    a pool of ``P`` generated digits (clean, rotated or contrast-changed),
    plus one of a table of small noise frames. Distinct ``n`` never
    repeat a ``(digit, noise)`` pair, so no two requests share bytes and the
    engine's batch cache never hits. Images are built on demand, which
    keeps a long run's traffic out of the benchmark's own memory.
    """

    def __init__(self, seed: int, digits: int = 512, jitters: int = 1024) -> None:
        rng = _rng(seed, _STREAM_POOL)
        clean, _ = generate_synth_mnist(digits, rng=rng)
        clean = clean.astype(np.float32)
        thetas = rng.choice([-1.0, 1.0], digits) * rng.uniform(50.0, 90.0, digits)
        rotated = np.stack([Rotation(float(t))(image) for t, image in zip(thetas, clean)])
        alphas = rng.uniform(0.15, 0.35, digits)
        contrast = np.stack([Contrast(float(a))(image) for a, image in zip(alphas, clean)])
        self.variants = np.stack([clean, rotated, contrast]).astype(np.float32)
        self.jitter = rng.normal(0.0, 0.01, (jitters, 1, 28, 28)).astype(np.float32)
        self.nan_pixel = rng.integers(0, 28, (jitters, 2))
        self.capacity = digits * jitters

    def image(self, n: int, kind: int) -> np.ndarray:
        digits = self.variants.shape[1]
        if n >= self.capacity:
            raise ValueError(f"request {n} exceeds the pool's {self.capacity} unique images")
        variant = CLEAN if kind == NAN else kind
        frame = self.variants[variant, n % digits] + self.jitter[n // digits]
        if kind == NAN:
            row, col = self.nan_pixel[n // digits]
            frame[0, row, col] = np.nan
        return frame


@dataclass
class Phase:
    """One open-loop phase: Poisson due times (s from phase start) and kinds."""

    name: str
    rate: float
    due: np.ndarray
    kinds: np.ndarray
    first: int  # global request index of the phase's first request


def _kinds(rng: np.random.Generator, n: int) -> np.ndarray:
    """Request kinds: ``NAN_SHARE`` NaN frames, ``CORNER_SHARE`` corner cases."""
    u = rng.random(n)
    return np.where(
        u < NAN_SHARE,
        NAN,
        np.where(u < NAN_SHARE + CORNER_SHARE / 2, ROTATED,
                 np.where(u < NAN_SHARE + CORNER_SHARE, CONTRAST, CLEAN)),
    )


def poisson_phase(seed: int, index: int, name: str, rate: float, seconds: float, first: int) -> Phase:
    """Poisson arrivals at ``rate`` per second over ``seconds``, with kinds."""
    rng = _rng(seed, _STREAM_SCHEDULE, index)
    gaps = rng.exponential(1.0 / rate, int(rate * seconds * 1.5) + 16)
    due = np.cumsum(gaps)
    due = due[due < seconds]
    return Phase(name=name, rate=rate, due=due, kinds=_kinds(rng, len(due)), first=first)


def closed_phase(seed: int, index: int, name: str, requests: int, first: int) -> Phase:
    """Kinds of up to ``requests`` closed-loop requests (no schedule: ``rate`` is 0)."""
    rng = _rng(seed, _STREAM_SCHEDULE, index)
    return Phase(name=name, rate=0.0, due=np.zeros(requests), kinds=_kinds(rng, requests), first=first)


class BulkPool:
    """256-image batches from a seeded synth-svhn pool.

    Calls come in groups of four: three fresh batches (a seeded random
    subset of the pool) then an exact replay of one of the previous
    sixteen fresh batches, which is inside the engine cache's 32-entry
    window. So exactly one call in four hits the cache.
    """

    BATCH = 256
    REPLAY_EVERY = 4
    REPLAY_WINDOW = 16

    def __init__(self, seed: int, pool: int = 1024) -> None:
        images, _ = generate_synth_svhn(pool, rng=_rng(seed, _BULK_POOL))
        self.images = images.astype(np.float32)
        self._order = _rng(seed, _BULK_ORDER)
        self._fresh: list[np.ndarray] = []  # index arrays of fresh batches

    def next_indices(self, call: int) -> tuple[np.ndarray, int | None]:
        """Indices of call ``call``'s batch, and which fresh batch it replays."""
        if call % self.REPLAY_EVERY == self.REPLAY_EVERY - 1:
            window = min(len(self._fresh), self.REPLAY_WINDOW)
            replayed = len(self._fresh) - 1 - int(self._order.integers(0, window))
            return self._fresh[replayed], replayed
        indices = self._order.choice(len(self.images), self.BATCH, replace=False)
        self._fresh.append(indices)
        return indices, None


@dataclass
class RefitData:
    """The refit workload's training set, calibration sets and check batch."""

    train_images: np.ndarray
    train_labels: np.ndarray
    clean: np.ndarray
    corner: np.ndarray
    check: np.ndarray


def refit_data(seed: int, train: int = 3000, calibration: int = 100, check: int = 64) -> RefitData:
    """A seeded 3,000-image synth-svhn training set plus held-out images."""
    train_images, train_labels = generate_synth_svhn(train, rng=_rng(seed, _REFIT_TRAIN))
    held_out, _ = generate_synth_svhn(2 * calibration + check, rng=_rng(seed, _REFIT_CHECK))
    held_out = held_out.astype(np.float32)
    return RefitData(
        train_images=train_images.astype(np.float32),
        train_labels=train_labels,
        clean=held_out[:calibration],
        corner=Rotation(90.0)(held_out[calibration : 2 * calibration]).astype(np.float32),
        check=held_out[2 * calibration :],
    )
