"""The three benchmark workloads.

A workload turns the benchmark seed into inputs (`setup`), runs one batch
of items through opfold's public entry points (`run_batch`, the timed
part), and checks a batch's outputs with host ints (`count_failed`, never
timed). Batch `i` of a seed always gets the same inputs. Every call into
opfold goes through a module attribute, so the tracer's wrappers see it.
"""

import contextlib
import io

import numpy as np

from opfold import baselines, bitnum, cli, density, folding

import verify


class Sweep:
    """`opfold bench --m-range 1024 --k-range 5`, run through cli.main.

    The paper's headline operating point. Each item is one trial: two
    1024-bit operands from default_rng([seed, 1024, 5, t]) and one fused
    folded multiply, so the kernel's accumulate phase dominates.
    """

    name = "sweep"
    batch_items = 10
    reference = (500, 32, 0, 0)  # long limb adds, as in the 1024-bit kernel
    m, k = 1024, 5

    def setup(self, seed):
        return {"seed": seed}

    def cli_seed(self, state, index):
        return state["seed"] * 1_000_000 + index

    def run_batch(self, state, index):
        argv = ["bench", "--m-range", str(self.m), "--k-range", str(self.k),
                "--trials", str(self.batch_items),
                "--seed", str(self.cli_seed(state, index))]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def count_failed(self, state, index, result):
        code, text = result
        ok = code == 0 and verify.sweep_csv_ok(
            text, self.m, self.k, self.batch_items,
            self.cli_seed(state, index))
        # the CSV holds only the mean, so one bad trial fails the batch
        return 0 if ok else self.batch_items


class Density:
    """Criterion 9's Monte Carlo in its own proportions.

    Each item is six bernoulli_block + simulate_split samples, one per
    (delta, b) in {0.2, 0.3, 0.5} x {256, 1024}, and every fifth item one
    simulate_tree(b=4096, depth=8). It never calls the multiply kernel.
    """

    name = "density"
    batch_items = 15
    reference = (0, 8, 3000, 600)  # BitNum objects, dicts, numpy calls
    deltas = (0.2, 0.3, 0.5)
    block_lengths = (256, 1024)
    tree_b, tree_depth, tree_every = 4096, 8, 5

    def setup(self, seed):
        return {"seed": seed}

    def run_batch(self, state, index):
        seed = state["seed"]
        out = []
        for item in range(index * self.batch_items,
                          (index + 1) * self.batch_items):
            splits = []
            for delta in self.deltas:
                for b in self.block_lengths:
                    rng = np.random.default_rng([seed, b, item])
                    parent = density.bernoulli_block(b, delta, rng)
                    splits.append(
                        (b, parent, density.simulate_split(parent, b)))
            tree = None
            if item % self.tree_every == 0:
                rng = np.random.default_rng([seed, self.tree_b, item])
                block = density.bernoulli_block(self.tree_b, 0.5, rng)
                tree = (block, density.simulate_tree(
                    block, self.tree_b, self.tree_depth))
            out.append((splits, tree))
        return out

    def count_failed(self, state, index, result):
        failed = 0
        for splits, tree in result:
            ok = all(
                verify.split_ok(
                    parent.to_int(), b,
                    (s.b10.to_int(), s.b01.to_int(), s.b11.to_int()),
                    (s.density10, s.density01, s.density11))
                for b, parent, s in splits)
            if tree is not None:
                block, report = tree
                ok = ok and verify.tree_ok(
                    block.to_int(), self.tree_b, self.tree_depth, report)
            failed += not ok
        return failed


class Oracle:
    """Criterion 1's shape: one operand pair, every k in 1..8, both baselines.

    Operands are host ints drawn in set-up with m ~ U[8, 256]. Small
    operands at high k weight per-call overhead and the combine phase far
    more than `sweep` does.
    """

    name = "oracle"
    batch_items = 8
    reference = (600, 8, 2000, 500)  # short limb adds, per-call overhead
    pool_size = 2048
    k_values = range(1, 9)

    def setup(self, seed):
        rng = np.random.default_rng([seed, 1])
        pool = []
        for m in rng.integers(8, 257, size=self.pool_size):
            m = int(m)
            nbytes = (m + 7) // 8
            mask = (1 << m) - 1
            a = int.from_bytes(rng.bytes(nbytes), "little") & mask
            b = int.from_bytes(rng.bytes(nbytes), "little") & mask
            pool.append((a, b, m))
        return {"pool": pool}

    def items(self, state, index):
        pool = state["pool"]
        start = index * self.batch_items
        return [pool[i % len(pool)]
                for i in range(start, start + self.batch_items)]

    def run_batch(self, state, index):
        out = []
        for a, b, m in self.items(state, index):
            A = bitnum.BitNum(a)
            B = bitnum.BitNum(b)
            folded = []
            for k in self.k_values:
                product, ledger = folding.multiply(A, B, m, k)
                folded.append((product.to_int(), ledger))
            classical, classical_count = baselines.classical_multiply(A, B)
            csd, csd_count = baselines.csd_multiply(A, B)
            out.append((folded, classical.to_int(), classical_count,
                        csd.to_int(), csd_count))
        return out

    def count_failed(self, state, index, result):
        return sum(
            not verify.oracle_item_ok(a, b, m, r)
            for (a, b, m), r in zip(self.items(state, index), result))


WORKLOADS = {w.name: w for w in (Sweep(), Density(), Oracle())}
