"""Density dynamics of recursive operand splitting.

Halving a block of length b and 1-bit density d produces three child
blocks of length b/2: the two lineage halves with the shared pattern
removed (density d*(1-d) each) and the shared pattern itself (density
d**2). Extracting the shared block saves its weight once per lineage that
reuses it, and the lineage densities follow the logistic map
d <- d*(1-d).

`simulate_tree` walks the binary lineage frontier, held as one b-bit int
whose blocks are its contiguous slices, and reports per-level gain in two
accountings:

- "nodes-only": each shared block is harvested once; it still costs its
  own weight to process, so cumulative gain approaches (b/2)*d0.
- "full-recursive": shared blocks are modeled as completely recursed in
  turn, so each is harvested at its full ledger multiplicity of 2 (parent
  weight = w(b10) + w(b01) + 2*w(b11)); residual weight is then exactly
  the frontier weight, which decays with the logistic iterates toward 0,
  and cumulative gain approaches the whole initial weight.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernel as _k
from ._corepy import _from_bits
from .bitnum import BitNum

MODES = ("nodes-only", "full-recursive")

# Largest block every density function takes: the samplers draw it, and
# the walks build masks from b alone, so a larger b would cost its memory
# even for an empty block. On the pure kernel lane bernoulli_block holds 9
# bytes per bit (a float64 draw and a bool), so 2**24 bits is about 150 MB;
# the compiled lane packs the draw as it goes and holds b/8 bytes.
MAX_BLOCK_BITS = 1 << 24


@dataclass(frozen=True, init=False)
class SplitOutcome:
    """The three children of one halving split with measured densities."""

    b10: BitNum
    b01: BitNum
    b11: BitNum
    density10: float
    density01: float
    density11: float

    def __init__(self, b10, b01, b11, density10, density01, density11):
        # one dict update, not the generated init's setattr per field
        self.__dict__.update(b10=b10, b01=b01, b11=b11, density10=density10,
                             density01=density01, density11=density11)


def _check_density(delta):
    """Refuse a density outside [0, 1], NaN included."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"density {delta} outside [0, 1]")


def logistic_step(delta):
    """One density iterate delta * (1 - delta)."""
    _check_density(delta)
    return delta * (1.0 - delta)


def iterates(delta0, count):
    """[delta_0, delta_1, ..., delta_count]."""
    out = [delta0]
    d = delta0
    for _ in range(count):
        d = logistic_step(d)
        out.append(d)
    return out


def telescoping_sum(delta0, n):
    """Direct summation of delta_i**2 for i = 0 .. n-1.

    Algebraically equals delta_0 - delta_n; the direct sum is kept so the
    identity stays testable.
    """
    if not 0.0 <= delta0 <= 0.5:
        raise ValueError(f"initial density {delta0} outside [0, 1/2]")
    total = 0.0
    d = delta0
    for _ in range(n):
        total += d * d
        d = logistic_step(d)
    return total


def split_gain(delta, b):
    """Expected weight of the shared block: delta**2 * b / 2."""
    return delta * delta * b / 2.0


def tree_gain(delta0, b, j):
    """Expected nodes-only gain after j levels: (b/2) * (delta_0 - delta_j)."""
    if j < 0:
        raise ValueError(f"level must be >= 0, got {j}")
    return (b / 2.0) * (delta0 - iterates(delta0, j)[-1])


def full_gain(delta0, b, j):
    """Expected full-recursive gain after j levels: b * (delta_0 - delta_j)."""
    return 2.0 * tree_gain(delta0, b, j)


def _unshare(v, half, mask):
    """Halve-AND-XOR of every 2*half-bit block of v: (rest, shared).

    mask holds each block's low half. Per block, shared (in the low half)
    and rest's high and low halves are the k=2 characteristic vectors of
    the halves (patterns 3, 2 and 1).
    """
    shared = v & (v >> half) & mask
    return v ^ (shared | shared << half), shared


def simulate_split(parent, b):
    """Split a b-bit block in half and return the three children.

    The children are the k=2 characteristic vectors of the halves, so
    weight(parent) = weight(b10) + weight(b01) + 2*weight(b11) exactly.
    """
    if b < 2 or b % 2:
        raise ValueError(f"block length must be even and >= 2, got {b}")
    _check_budget(b)
    if parent.bit_length() > b:
        raise ValueError(
            f"block has {parent.bit_length()} bits, exceeds b = {b}")
    half = b // 2
    mask = (1 << half) - 1
    rest, b11 = _unshare(parent.to_int(), half, mask)
    b10, b01 = rest >> half, rest & mask
    return SplitOutcome(
        b10=BitNum._wrap(b10),
        b01=BitNum._wrap(b01),
        b11=BitNum._wrap(b11),
        density10=b10.bit_count() / half,
        density01=b01.bit_count() / half,
        density11=b11.bit_count() / half,
    )


@dataclass(frozen=True, init=False)
class LevelStats:
    """Per-level accounting of one tree walk."""

    level: int
    harvested: int
    cumulative_gain: int
    residual_weight: int
    frontier_weight: int
    frontier_density: float

    def __init__(self, level, harvested, cumulative_gain, residual_weight,
                 frontier_weight, frontier_density):
        self.__dict__.update(
            level=level, harvested=harvested, cumulative_gain=cumulative_gain,
            residual_weight=residual_weight, frontier_weight=frontier_weight,
            frontier_density=frontier_density)


@dataclass(frozen=True, init=False)
class TreeReport:
    """Gain report of simulate_tree."""

    mode: str
    b: int
    depth: int
    initial_weight: int
    levels: tuple

    def __init__(self, mode, b, depth, initial_weight, levels):
        self.__dict__.update(mode=mode, b=b, depth=depth,
                             initial_weight=initial_weight, levels=levels)

    @property
    def gain(self):
        return self.levels[-1].cumulative_gain

    @property
    def residual(self):
        return self.levels[-1].residual_weight


def _check_walk(b, depth, mode):
    """The walk's arguments: a known mode, 1 <= b <= MAX_BLOCK_BITS and
    2**depth dividing b."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if b < 1:
        raise ValueError(f"block length must be >= 1, got {b}")
    _check_budget(b)
    # b & -b is b's lowest set bit: b % 2**depth without building 2**depth
    if (b & -b).bit_length() <= depth:
        raise ValueError(
            f"depth {depth} exceeds log2 of the block length {b}")


def simulate_tree(B, b, depth, mode="nodes-only"):
    """Split B recursively for `depth` levels and account the gains.

    Level r holds 2**r lineage blocks of b/2**r bits as the slices of one
    int, halved all at once by _unshare. Its mask, the low half of every
    block, starts as the low b/2 bits; mask ^= mask << half (the next
    level's half) derives the next one, as the repeating block masks of
    Warren, Hacker's Delight, sections 5-1 and 7-1. A level's harvested
    weight is the popcount of its shared blocks, counted once (nodes-only)
    or twice (full-recursive); residual = initial - cumulative gain.
    """
    _check_walk(b, depth, mode)
    if B.bit_length() > b:
        raise ValueError(f"input has {B.bit_length()} bits, exceeds b = {b}")
    factor = 1 if mode == "nodes-only" else 2
    w0 = B.weight()
    frontier = B.to_int()
    half = b // 2
    mask = (1 << half) - 1
    cumulative = 0
    levels = [LevelStats(
        level=0,
        harvested=0,
        cumulative_gain=0,
        residual_weight=w0,
        frontier_weight=w0,
        frontier_density=w0 / b,
    )]
    for level in range(1, depth + 1):
        frontier, shared = _unshare(frontier, half, mask)
        harvested = shared.bit_count()
        cumulative += factor * harvested
        frontier_weight = frontier.bit_count()
        levels.append(LevelStats(
            level=level,
            harvested=harvested,
            cumulative_gain=cumulative,
            residual_weight=w0 - cumulative,
            frontier_weight=frontier_weight,
            frontier_density=frontier_weight / b,
        ))
        half //= 2
        mask ^= mask << half
    return TreeReport(
        mode=mode, b=b, depth=depth, initial_weight=w0, levels=tuple(levels))


def _check_budget(b):
    """Refuse a block length outside 0..MAX_BLOCK_BITS before any draw."""
    if b < 0:
        raise ValueError(f"block length must be >= 0, got {b}")
    if b > MAX_BLOCK_BITS:
        raise ValueError(f"block length {b} exceeds the sampling budget of "
                         f"{MAX_BLOCK_BITS} bits")


def _check_generator(rng):
    """Refuse an rng that is not a numpy Generator, before any draw: the
    one check for both samplers and both kernel lanes."""
    # looked up per call: numpy loads numpy.random lazily, and importing it
    # with this module would add ~6 MB and its import time to every command
    if not isinstance(rng, np.random.Generator):
        raise TypeError("rng must be a numpy.random.Generator, got "
                        f"{type(rng).__name__}")


def bernoulli_block(b, delta, rng):
    """Random b-bit block with independent Bernoulli(delta) bits: bit i is
    set iff the i-th double of rng.random(b) is below delta, for a numpy
    Generator rng (_kernel.bernoulli_bits). Both kernel lanes draw through
    a Generator's bit generator."""
    _check_budget(b)
    _check_density(delta)
    _check_generator(rng)
    return BitNum._wrap(_k.bernoulli_bits(rng, b, delta))


def exact_weight_block(b, w, rng):
    """Random b-bit block with exactly w set bits (variance reduction),
    drawn by rng.choice for a numpy Generator rng."""
    _check_budget(b)
    if not 0 <= w <= b:
        raise ValueError(f"weight {w} outside 0..{b}")
    _check_generator(rng)
    bits = np.zeros(b, bool)
    bits[rng.choice(b, size=w, replace=False)] = True
    return BitNum._wrap(_from_bits(bits))


def _sample_block(b, delta, rng, exact_weight):
    if exact_weight:
        return exact_weight_block(b, round(delta * b), rng)
    return bernoulli_block(b, delta, rng)


def _series(b, depth, delta0, trials, seed, mode, exact_weight, field,
            predict):
    """Per-level mean and stderr of one LevelStats field over seeded trials.

    Trial t walks a block drawn from default_rng([seed, b, t]); predict()
    gives the closed-form value per level once the trials have run. Every
    argument, delta0 included, is checked before the first draw.
    """
    _check_walk(b, depth, mode)
    _check_density(delta0)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    walks = []
    for t in range(trials):
        rng = np.random.default_rng([seed, b, t])
        block = _sample_block(b, delta0, rng, exact_weight)
        report = simulate_tree(block, b, depth, mode)
        walks.append([getattr(s, field) for s in report.levels])
    rows = []
    # zip(*walks) gives each level's samples in trial order
    for level, (samples, pred) in enumerate(zip(zip(*walks), predict())):
        mean = sum(samples) / trials
        if trials > 1:
            var = sum((s - mean) ** 2 for s in samples) / (trials - 1)
            stderr = math.sqrt(var / trials)
        else:
            stderr = 0.0
        rows.append({
            "depth_or_iter": level,
            "predicted": pred,
            "measured": mean,
            "stderr": stderr,
            "trials": trials,
            "seed": seed,
        })
    return rows


def gain_series(b, depth, delta0, trials, seed, mode="nodes-only",
                exact_weight=False):
    """Cumulative gain per level, measured against the closed form."""
    form = tree_gain if mode == "nodes-only" else full_gain
    return _series(b, depth, delta0, trials, seed, mode, exact_weight,
                   "cumulative_gain",
                   lambda: [form(delta0, b, j) for j in range(depth + 1)])


def density_series(b, depth, delta0, trials, seed, exact_weight=False):
    """Frontier density per level, measured against the logistic iterates."""
    return _series(b, depth, delta0, trials, seed, "nodes-only", exact_weight,
                   "frontier_density", lambda: iterates(delta0, depth))


SERIES_COLUMNS = ("depth_or_iter", "predicted", "measured",
                  "stderr", "trials", "seed")
