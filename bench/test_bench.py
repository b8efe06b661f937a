"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import dataclasses

import pytest

import run

workloads = run.import_workloads()

import tracer  # noqa: E402
import verify  # noqa: E402
from opfold import BitNum, baselines, density, folding  # noqa: E402


def oracle_result(a, b, m):
    A, B = BitNum(a), BitNum(b)
    folded = []
    for k in range(1, 9):
        product, ledger = folding.multiply(A, B, m, k)
        folded.append((product.to_int(), ledger))
    classical, classical_count = baselines.classical_multiply(A, B)
    csd, csd_count = baselines.csd_multiply(A, B)
    return [folded, classical.to_int(), classical_count, csd.to_int(),
            csd_count]


A_INT, B_INT, M = 0xB7D3_0C5E_91F4, 0xF0F0_3C3C_A5A5, 48


def test_oracle_verifier_accepts_program_output():
    assert verify.oracle_item_ok(A_INT, B_INT, M, oracle_result(A_INT, B_INT, M))


def test_oracle_verifier_rejects_corrupted_product():
    result = oracle_result(A_INT, B_INT, M)
    product, ledger = result[0][4]
    result[0][4] = (product ^ 1, ledger)
    assert not verify.oracle_item_ok(A_INT, B_INT, M, result)
    result = oracle_result(A_INT, B_INT, M)
    result[3] += 1  # CSD product
    assert not verify.oracle_item_ok(A_INT, B_INT, M, result)


def test_oracle_verifier_rejects_corrupted_ledger():
    for field in tracer.LEDGER_FIELDS:
        result = oracle_result(A_INT, B_INT, M)
        product, ledger = result[0][2]
        bad = dataclasses.replace(ledger, **{field: getattr(ledger, field) + 1})
        result[0][2] = (product, bad)
        assert not verify.oracle_item_ok(A_INT, B_INT, M, result), field
    result = oracle_result(A_INT, B_INT, M)
    result[2] += 1  # classical count
    assert not verify.oracle_item_ok(A_INT, B_INT, M, result)
    result = oracle_result(A_INT, B_INT, M)
    result[4] -= 1  # CSD weight
    assert not verify.oracle_item_ok(A_INT, B_INT, M, result)


def split_args(parent, b):
    out = density.simulate_split(BitNum(parent), b)
    return ([out.b10.to_int(), out.b01.to_int(), out.b11.to_int()],
            [out.density10, out.density01, out.density11])


def test_split_verifier_rejects_corrupted_split():
    parent, b = 0b1101_0110_1011_0011, 16
    children, densities = split_args(parent, b)
    assert verify.split_ok(parent, b, children, densities)
    for i in range(3):
        bad = list(children)
        bad[i] ^= 1 << 3
        assert not verify.split_ok(parent, b, bad, densities)
    # swapping the one-sided children keeps the weight but not the halves
    swapped = [children[1], children[0], children[2]]
    assert children[0] != children[1]
    assert not verify.split_ok(parent, b, swapped, densities)
    bad_densities = list(densities)
    bad_densities[2] += 1 / b
    assert not verify.split_ok(parent, b, children, bad_densities)


def test_tree_verifier_rejects_corrupted_level():
    block = int("10110111" * 32, 2)
    report = density.simulate_tree(BitNum(block), 256, 4)
    assert verify.tree_ok(block, 256, 4, report)
    levels = list(report.levels)
    levels[2] = dataclasses.replace(levels[2],
                                    harvested=levels[2].harvested + 1)
    bad = dataclasses.replace(report, levels=tuple(levels))
    assert not verify.tree_ok(block, 256, 4, bad)


def test_sweep_verifier_rejects_corrupted_csv():
    state = workloads.WORKLOADS["sweep"].setup(4)
    sweep = workloads.WORKLOADS["sweep"]
    code, text = sweep.run_batch(state, 0)
    assert code == 0 and sweep.count_failed(state, 0, (code, text)) == 0
    header, columns, row = text.splitlines()
    fields = row.split(",")
    fields[5] = format(float(fields[5]) + 0.01, ".6g")  # measured_mean
    bad = "\n".join([header, columns, ",".join(fields)]) + "\n"
    assert sweep.count_failed(state, 0, (0, bad)) == sweep.batch_items


def test_run_counts_failed_items(monkeypatch):
    real = folding.multiply

    def off_by_one(A, B, m, k):
        product, ledger = real(A, B, m, k)
        return product + BitNum(k == 3), ledger

    monkeypatch.setattr(folding, "multiply", off_by_one)
    oracle = workloads.WORKLOADS["oracle"]
    bench = run.Run(oracle, oracle.setup(2), seconds=0)
    bench.batch()
    assert (bench.attempted, bench.failed) == (oracle.batch_items,
                                               oracle.batch_items)


def binding_snapshot():
    return [(module, key, original)
            for _, module, key, original in tracer.bindings()]


def test_runs_leave_every_wrapped_function_original():
    before = binding_snapshot()
    assert len(before) >= len(tracer.TRACED)
    for trace in (0, 1):
        run.run_benchmark("oracle", 5, 0.01, trace, setup_repeats=0)
        assert all(getattr(module, key) is original
                   for module, key, original in before), trace


@pytest.mark.parametrize("name", ["sweep", "density", "oracle"])
def test_smoke_untraced(name):
    result, record = run.run_benchmark(name, 3, 0.01, 0, setup_repeats=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * workloads.WORKLOADS[name].batch_items
    assert set(result["metrics"]) == {
        "throughput_norm", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["provenance"]["kernel"] in ("pure", "compiled")
    assert record["lane_parity"]


@pytest.mark.parametrize("name", ["sweep", "density", "oracle"])
def test_smoke_traced(name):
    first, _ = run.run_benchmark(name, 3, 0.01, 1, setup_repeats=0)
    second, _ = run.run_benchmark(name, 3, 0.01, 1, setup_repeats=0)
    assert first["correct"] and second["correct"]
    metrics = first["metrics"]
    for layer, _, _ in tracer.TRACED:
        assert f"{layer}.calls" in metrics and f"{layer}.share" in metrics
    calls = {k: v["value"] for k, v in metrics.items() if k.endswith(".calls")}
    if name == "density":
        assert calls["kernel.fold_multiply.calls"] == 0
        assert calls["folding.characteristic_vectors.calls"] > 0
    else:
        assert calls["kernel.fold_multiply.calls"] > 0
        assert calls["folding.characteristic_vectors.calls"] == 0
    for field in tracer.LEDGER_FIELDS:
        key = f"folding.{field}"
        assert metrics[key]["value"] == second["metrics"][key]["value"]
