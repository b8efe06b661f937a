"""Density recursion model and the splitting simulator that validates it."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opfold.bitnum import BitNum, random_bitnum
from opfold.density import (
    MAX_BLOCK_BITS,
    MODES,
    SERIES_COLUMNS,
    LevelStats,
    SplitOutcome,
    TreeReport,
    bernoulli_block,
    density_series,
    exact_weight_block,
    full_gain,
    gain_series,
    iterates,
    logistic_step,
    simulate_split,
    simulate_tree,
    split_gain,
    telescoping_sum,
    tree_gain,
)
from opfold.folding import characteristic_vectors, split

TOY = BitNum(0b101010100011)


# --- logistic recursion ------------------------------------------------------

def test_logistic_step_values():
    assert logistic_step(0.0) == 0.0
    assert logistic_step(0.5) == 0.25
    assert logistic_step(1.0) == 0.0


def test_logistic_step_rejects():
    with pytest.raises(ValueError):
        logistic_step(-0.1)
    with pytest.raises(ValueError):
        logistic_step(1.1)


def test_iterates_shape_and_decay():
    seq = iterates(0.5, 10000)
    assert len(seq) == 10001
    assert seq[0] == 0.5 and seq[1] == 0.25
    for prev, cur in zip(seq[1:], seq[2:]):
        assert 0 < cur < prev
    # the iterate decays like 1/i
    assert 0.9 <= seq[10000] * 10000 <= 1.1


def test_telescoping_examples():
    assert telescoping_sum(0.0, 50) == 0.0
    assert telescoping_sum(0.5, 1) == 0.25


def test_telescoping_identity_grid():
    for delta0 in (0.05, 0.1, 0.25, 0.4, 0.5):
        for n in (1, 10, 100, 10000):
            seq = iterates(delta0, n)
            assert abs(telescoping_sum(delta0, n) - (delta0 - seq[n])) <= 1e-12


def test_telescoping_rejects():
    with pytest.raises(ValueError):
        telescoping_sum(0.6, 10)
    with pytest.raises(ValueError):
        telescoping_sum(-0.1, 10)


def test_split_gain_values():
    assert split_gain(0.0, 100) == 0.0
    assert split_gain(0.5, 12) == 1.5


def test_tree_gain_limit():
    assert tree_gain(0.5, 4096, 0) == 0.0
    # gap to the limit b*d0/2 is exactly (b/2)*delta_j
    for j in (1, 10, 100, 10000):
        d_j = iterates(0.5, j)[j]
        gap = 4096 * 0.5 / 2 - tree_gain(0.5, 4096, j)
        assert abs(gap - 2048 * d_j) <= 1e-9
    assert 4096 * 0.5 / 2 - tree_gain(0.5, 4096, 10000) <= 2048 * 1.1 / 10000


def test_tree_gain_rejects_negative_level():
    with pytest.raises(ValueError):
        tree_gain(0.5, 16, -1)


def test_full_gain_doubles_tree_gain():
    for j in (0, 1, 5):
        assert full_gain(0.5, 256, j) == 2 * tree_gain(0.5, 256, j)


# --- one split ------------------------------------------------------------------

def test_simulate_split_toy():
    out = simulate_split(TOY, 12)
    assert out.b10 == BitNum(0b001000)
    assert out.b01 == BitNum(0b000001)
    assert out.b11 == BitNum(0b100010)
    assert out.density11 == 2 / 6


@pytest.mark.parametrize("b,seed", [(12, None), (2, 1), (8, 2), (64, 3),
                                    (256, 4), (1030, 5)])
def test_split_children_are_k2_characteristic_vectors(b, seed):
    parent = TOY if seed is None else random_bitnum(b, seed)
    vecs = characteristic_vectors(split(parent, b, 2))
    out = simulate_split(parent, b)
    assert (out.b10, out.b01, out.b11) == (vecs[2], vecs[1], vecs[3])


def test_simulate_split_zero_parent():
    out = simulate_split(BitNum(0), 8)
    assert out.b10.is_zero() and out.b01.is_zero() and out.b11.is_zero()


def test_simulate_split_rejects():
    with pytest.raises(ValueError):
        simulate_split(TOY, 13)
    with pytest.raises(ValueError):
        simulate_split(TOY, 0)
    with pytest.raises(ValueError):
        simulate_split(TOY, 10)  # 12-bit input


@given(st.integers(min_value=1, max_value=128),
       st.integers(min_value=0, max_value=(1 << 256) - 1))
def test_split_weight_conservation(half, x):
    b = 2 * half
    parent = BitNum(x & ((1 << b) - 1))
    out = simulate_split(parent, b)
    assert (out.b10.weight() + out.b01.weight() + 2 * out.b11.weight()
            == parent.weight())
    assert (out.b10 & out.b01 & out.b11).is_zero()
    assert out.b10.bit_length() <= half
    assert out.density10 == out.b10.weight() / half


def test_split_density_grid():
    # 2000 Bernoulli parents per cell; child densities vs d(1-d), d**2
    for delta in (0.2, 0.3, 0.5):
        for b in (256, 1024):
            s10, s01, s11 = [], [], []
            for t in range(2000):
                rng = np.random.default_rng([0, b, t])
                out = simulate_split(bernoulli_block(b, delta, rng), b)
                s10.append(out.density10)
                s01.append(out.density01)
                s11.append(out.density11)
            for samples, target in ((s10, delta * (1 - delta)),
                                    (s01, delta * (1 - delta)),
                                    (s11, delta * delta)):
                arr = np.asarray(samples)
                se = arr.std(ddof=1) / np.sqrt(len(arr))
                assert abs(arr.mean() - target) <= 3 * se


# --- tree walk -------------------------------------------------------------------

def test_simulate_tree_depth_zero():
    report = simulate_tree(TOY, 12, 0)
    assert report.depth == 0 and len(report.levels) == 1
    assert report.gain == 0
    assert report.residual == report.initial_weight == 6


def test_simulate_tree_rejects():
    with pytest.raises(ValueError):
        simulate_tree(TOY, 12, 3)  # 12 not divisible by 8
    with pytest.raises(ValueError):
        simulate_tree(TOY, 12, -1)
    with pytest.raises(ValueError):
        simulate_tree(TOY, 12, 2, mode="both")
    with pytest.raises(ValueError):
        simulate_tree(BitNum(1 << 13), 12, 2)
    for b in (0, -4):
        with pytest.raises(ValueError,
                           match=f"^block length must be >= 1, got {b}$"):
            simulate_tree(BitNum(0), b, 0)


def test_tree_depth_check_matches_modulo():
    for b in range(1, 4097):
        for depth in range(15):
            try:
                simulate_tree(BitNum(0), b, depth)
            except ValueError as exc:
                assert str(exc) == (
                    f"depth {depth} exceeds log2 of the block length {b}")
                assert b % (1 << depth) != 0
            else:
                assert b % (1 << depth) == 0


def test_gain_series_huge_depth_fails_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(
                ValueError,
                match="^depth 1000000 exceeds log2 of the block length 4096$"):
            gain_series(4096, 10**6, 0.5, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@given(st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=(1 << 512) - 1))
def test_tree_accounting_identities(depth, x):
    b = 512
    block = BitNum(x)
    nodes = simulate_tree(block, b, depth, "nodes-only")
    full = simulate_tree(block, b, depth, "full-recursive")
    w0 = block.weight()
    assert nodes.initial_weight == full.initial_weight == w0
    for mode_report, factor in ((nodes, 1), (full, 2)):
        cum = 0
        for lv in mode_report.levels:
            cum += factor * lv.harvested if lv.level else 0
            assert lv.cumulative_gain == cum
            assert lv.residual_weight == w0 - cum
    for prev, cur in zip(nodes.levels, nodes.levels[1:]):
        # each split moves 2*harvested out of the frontier
        assert cur.frontier_weight == prev.frontier_weight - 2 * cur.harvested
    # harvesting every shared block twice accounts for the whole input:
    # what is not in the frontier has been banked
    assert full.residual == full.levels[-1].frontier_weight
    assert nodes.residual == nodes.levels[-1].frontier_weight + nodes.gain


def test_tree_gain_monte_carlo():
    rows = gain_series(4096, 8, 0.5, trials=400, seed=0)
    assert rows[0]["measured"] == 0.0
    for r in rows[1:]:
        assert abs(r["measured"] - r["predicted"]) <= 3 * r["stderr"]
    # measured gain grows level over level
    gains = [r["measured"] for r in rows]
    assert all(b > a for a, b in zip(gains, gains[1:]))


def test_full_recursive_gain_monte_carlo():
    rows = gain_series(4096, 8, 0.5, trials=400, seed=0, mode="full-recursive")
    for r in rows[1:]:
        assert abs(r["measured"] - r["predicted"]) <= 3 * r["stderr"]


def test_density_series_follows_logistic():
    rows = density_series(4096, 8, 0.5, trials=400, seed=0)
    assert [r["predicted"] for r in rows] == iterates(0.5, 8)
    for r in rows:
        assert abs(r["measured"] - r["predicted"]) <= 3 * r["stderr"] + 1e-12


def test_full_recursive_residual_decays_to_frontier():
    rng = np.random.default_rng([0, 1 << 16])
    block = exact_weight_block(1 << 16, 1 << 15, rng)
    report = simulate_tree(block, 1 << 16, 10, "full-recursive")
    ratio = report.residual / report.initial_weight
    d = iterates(0.5, 10)
    assert abs(ratio - d[10] / d[0]) <= 0.01
    assert ratio < 0.15
    residuals = [lv.residual_weight for lv in report.levels]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))


# --- block samplers ------------------------------------------------------------

def test_bernoulli_block_shape():
    rng = np.random.default_rng(5)
    blk = bernoulli_block(4096, 0.3, rng)
    assert blk.bit_length() <= 4096
    w = blk.weight()
    # binomial 3 sigma
    assert abs(w - 4096 * 0.3) <= 3 * (4096 * 0.3 * 0.7) ** 0.5
    assert bernoulli_block(0, 0.5, rng) == BitNum(0)
    assert bernoulli_block(64, 0.0, rng) == BitNum(0)
    assert bernoulli_block(64, 1.0, rng) == BitNum((1 << 64) - 1)


def test_bernoulli_block_rejects():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        bernoulli_block(-1, 0.5, rng)
    with pytest.raises(ValueError):
        bernoulli_block(8, 1.5, rng)


def test_bernoulli_block_takes_a_generator_only():
    # a RandomState has .random too, but the kernel draws through a
    # Generator's bit generator
    rng = np.random.RandomState(5)
    state = rng.get_state()[1].copy()
    with pytest.raises(TypeError, match="numpy.random.Generator"):
        bernoulli_block(8, 0.5, rng)
    assert np.array_equal(rng.get_state()[1], state)


@pytest.mark.parametrize("rng", [np.random.RandomState(1), None],
                         ids=["random-state", "none"])
def test_exact_weight_block_takes_a_generator_only(rng):
    # the same check and message as bernoulli_block, before any draw
    state = rng.get_state()[1].copy() if rng is not None else None
    with pytest.raises(TypeError) as info:
        exact_weight_block(8, 3, rng)
    assert str(info.value) == "rng must be a numpy.random.Generator, got " \
        f"{type(rng).__name__}"
    if state is not None:
        assert np.array_equal(rng.get_state()[1], state)


@pytest.mark.parametrize("cls, args", [
    (SplitOutcome, (BitNum(1), BitNum(2), BitNum(0), 0.5, 0.5, 0.0)),
    (LevelStats, (1, 3, 3, 5, 4, 0.25)),
    (TreeReport, ("nodes-only", 16, 1, 8, ())),
], ids=["SplitOutcome", "LevelStats", "TreeReport"])
def test_records_are_frozen_dataclasses(cls, args):
    names = [f.name for f in dataclasses.fields(cls)]
    record = cls(*args)
    assert record == cls(**dict(zip(names, args)))
    assert [getattr(record, n) for n in names] == list(args)
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{n}={a!r}" for n, a in zip(names, args)) + ")"
    assert hash(record) == hash(args)
    changed = dataclasses.replace(record, **{names[1]: args[0]})
    assert changed != record and getattr(changed, names[1]) == args[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, names[0], args[1])
    with pytest.raises(TypeError):
        cls(*args[:-1])


def test_exact_weight_block():
    rng = np.random.default_rng(6)
    for w in (0, 1, 17, 64):
        blk = exact_weight_block(64, w, rng)
        assert blk.weight() == w
        assert blk.bit_length() <= 64
    with pytest.raises(ValueError):
        exact_weight_block(8, 9, rng)


def test_series_determinism_and_schema():
    a = gain_series(64, 3, 0.5, trials=5, seed=11)
    b = gain_series(64, 3, 0.5, trials=5, seed=11)
    assert a == b
    # one trial has no spread to estimate
    assert [r["stderr"] for r in gain_series(64, 2, 0.5, 1, 3)] == [0.0] * 3
    for r in a:
        assert tuple(r) == SERIES_COLUMNS
    with pytest.raises(ValueError):
        gain_series(64, 3, 0.5, trials=0, seed=1)
    with pytest.raises(ValueError):
        density_series(64, 3, 0.5, trials=0, seed=1)
    assert MODES == ("nodes-only", "full-recursive")


# --- block samplers against the per-bit loops they replace ---------------------

def _loop_bernoulli_block(b, delta, rng):
    if b == 0:
        return 0
    bits = (rng.random(b) < delta).astype(np.uint8)
    data = np.packbits(bits, bitorder="little").tobytes()
    return int.from_bytes(data, "little")


def _loop_exact_weight_block(b, w, rng):
    value = 0
    for pos in rng.choice(b, size=w, replace=False):
        value |= 1 << int(pos)
    return value


@pytest.mark.parametrize("b", [0, 1, 7, 256, 1024, 4096])
@pytest.mark.parametrize("delta", [0.0, 0.2, 0.5, 1.0])
def test_bernoulli_block_matches_loop_value_and_stream(b, delta):
    ours = np.random.default_rng([b, int(delta * 10)])
    ref = np.random.default_rng([b, int(delta * 10)])
    for _ in range(3):
        assert bernoulli_block(b, delta, ours).to_int() == \
            _loop_bernoulli_block(b, delta, ref)
        assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("b, w", [
    (1 << 16, 1 << 15), (4096, 2048), (17, 5), (1, 0), (8, 8), (0, 0)])
def test_exact_weight_block_matches_loop_value_and_stream(b, w):
    ours = np.random.default_rng([b, w])
    ref = np.random.default_rng([b, w])
    for _ in range(2):
        assert exact_weight_block(b, w, ours).to_int() == \
            _loop_exact_weight_block(b, w, ref)
        assert ours.bit_generator.state == ref.bit_generator.state


def test_samplers_refuse_blocks_over_budget_before_drawing():
    for sample in (lambda rng: bernoulli_block(MAX_BLOCK_BITS + 1, 0.5, rng),
                   lambda rng: exact_weight_block(MAX_BLOCK_BITS + 1, 1, rng),
                   lambda rng: exact_weight_block(10**15, 10**14, rng)):
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="exceeds the sampling budget"):
            sample(rng)
        assert rng.bit_generator.state == state
    # the largest block the tests, README and bench draw fits
    assert MAX_BLOCK_BITS >= 1 << 20


def test_samplers_refuse_negative_blocks_before_drawing():
    for sample in (lambda rng: bernoulli_block(-4, 0.5, rng),
                   lambda rng: exact_weight_block(-4, 0, rng)):
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        with pytest.raises(ValueError) as info:
            sample(rng)
        assert str(info.value) == "block length must be >= 0, got -4"
        assert rng.bit_generator.state == state


def test_walks_refuse_blocks_over_budget():
    # the walks size their masks from b alone, so an empty block of a huge
    # b would allocate its 2**(b / 2)-bit mask; the series report the
    # budget before a bad delta0
    b = MAX_BLOCK_BITS + 2
    message = (f"block length {b} exceeds the sampling budget of "
               f"{MAX_BLOCK_BITS} bits")
    for walk in (lambda: simulate_split(BitNum(0), b),
                 lambda: simulate_tree(BitNum(0), b, 1),
                 lambda: gain_series(b, 1, 1.5, 1, 0),
                 lambda: density_series(b, 1, 1.5, 1, 0)):
        with pytest.raises(ValueError) as info:
            walk()
        assert str(info.value) == message


# --- tree walk and split against the per-block loop they replace -------------

def _loop_halve(v, half):
    lo = v & ((1 << half) - 1)
    hi = v >> half
    shared = hi & lo
    return hi ^ shared, lo ^ shared, shared


def _loop_tree(B, b, depth, mode="nodes-only"):
    factor = 1 if mode == "nodes-only" else 2
    w0 = B.weight()
    frontier = [B.to_int()]
    size = b
    cumulative = 0
    levels = [LevelStats(0, 0, 0, w0, w0, w0 / b)]
    for level in range(1, depth + 1):
        half = size // 2
        harvested = 0
        frontier_weight = 0
        children = []
        for v in frontier:
            c_hi, c_lo, shared = _loop_halve(v, half)
            harvested += shared.bit_count()
            frontier_weight += c_hi.bit_count() + c_lo.bit_count()
            children.append(c_hi)
            children.append(c_lo)
        cumulative += factor * harvested
        frontier = children
        size = half
        levels.append(LevelStats(level, harvested, cumulative, w0 - cumulative,
                                 frontier_weight, frontier_weight / b))
    return TreeReport(mode, b, depth, w0, tuple(levels))


WALK_WIDTHS = [2, 6, 12, 64, 96, 4096, 1 << 16]


def _walk_blocks(b):
    rng = np.random.default_rng([17, b])
    return {"zero": BitNum(0), "ones": BitNum((1 << b) - 1),
            "seeded": bernoulli_block(b, 0.5, rng),
            "sparse": bernoulli_block(b, 0.1, rng)}


@pytest.mark.parametrize("b", WALK_WIDTHS)
@pytest.mark.parametrize("mode", MODES)
def test_tree_matches_block_loop(b, mode):
    top = (b & -b).bit_length() - 1  # deepest legal depth
    for kind, block in _walk_blocks(b).items():
        for depth in range(top + 1):
            # dataclass equality: every LevelStats field, initial_weight,
            # and so gain and residual
            assert simulate_tree(block, b, depth, mode) == _loop_tree(
                block, b, depth, mode), (kind, depth)


@pytest.mark.parametrize("b", WALK_WIDTHS)
def test_split_matches_halve_loop(b):
    half = b // 2
    for kind, parent in _walk_blocks(b).items():
        out = simulate_split(parent, b)
        want = _loop_halve(parent.to_int(), half)
        assert (out.b10.to_int(), out.b01.to_int(), out.b11.to_int()) == want
        assert (out.density10, out.density01, out.density11) == tuple(
            c.bit_count() / half for c in want), kind


def test_deep_tree_walk_is_small_and_matches_loop():
    b, depth = 1 << 20, 20
    dense = bernoulli_block(b, 0.5, np.random.default_rng([3, b]))
    small = bernoulli_block(1 << 16, 0.5, np.random.default_rng([3, 1 << 16]))
    # walked as a 2**20-bit block, the 2**16-bit one sits in the low bits:
    # the first four splits share nothing, then the walk is the 2**16 walk
    tracemalloc.start()
    try:
        full = simulate_tree(dense, b, depth, "full-recursive")
        deep = simulate_tree(small, b, depth, "full-recursive")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert full.residual == full.levels[-1].frontier_weight
    ref = _loop_tree(small, 1 << 16, 16, "full-recursive")
    assert deep.gain == ref.gain
    assert deep.levels[-1].frontier_weight == ref.levels[-1].frontier_weight
