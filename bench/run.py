"""opfold benchmark: closed-loop, single-thread runs of three workloads.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is built in place from `src/`
(the optional compiled kernel lane, when setup.py can build one), then
imported from there. After set-up and one warm-up batch the run alternates
a fixed pure-Python reference loop with one timed batch until `--seconds`
have passed. Every batch is checked with host ints outside the timed
region.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
batches with batches run under span wrappers and reports the per-layer
metrics. The last line of standard output is one JSON object; the full
record (provenance, batch and reference timings, spans) goes to
bench/out/.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("sweep", "density", "oracle")
SETUP_REPEATS = 9
MASK32 = 0xFFFFFFFF


def _add_into(dst, src):
    carry = 0
    for i, limb in enumerate(src):
        s = dst[i] + limb + carry
        dst[i] = s & MASK32
        carry = s >> 32
    dst[len(src)] += carry


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def reference_loop(limb_adds, limb_width, calls, tables):
    """Fixed pure-Python work, timed on both sides of every batch.

    Three kinds of interpreted work: limb adds with carry into a bank of
    64 cells, `limb_width` limbs each; small objects and calls; and tuple,
    list and dict churn. Each
    workload runs them in the mix of its own work (`Workload.reference`),
    because contention on a shared host slows each kind by a different
    amount. A batch's rate times this loop's time then cancels most of the
    host's drift in speed; the loop never changes with the program, so the
    product still moves when the program gets faster.
    """
    cells = [[0] * (limb_width + 1) for _ in range(64)]
    addend = [(i * 0x9E3779B1) & MASK32 for i in range(limb_width)]
    for i in range(limb_adds):
        _add_into(cells[(i * 2654435761 >> 7) & 63], addend)
        addend[i % limb_width] ^= i
    acc = 0
    for i in range(calls):
        pair = _Pair(i, acc)
        acc = (pair.a + pair.b) & MASK32
    table = {}
    for i in range(tables):
        row = tuple(range(i % 40))
        table[i % 97] = [_Pair(x, i) for x in row[:8]]
        table.get(i * 7 % 97)
    return acc, len(table), cells[1][0]


def build():
    """Build the compiled lane in place if setup.py can; never fatal.

    setup.py skips the extension when its build tools are missing and the
    program then runs the pure lane, which provenance records.
    """
    cmd = [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
           "--build-temp", os.path.join(".bench_build", "temp")]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    return {"returncode": proc.returncode,
            "stderr_tail": proc.stderr.strip().splitlines()[-3:]}


def import_workloads():
    """Import opfold from this checkout's src/ and the workload module."""
    sys.path[:0] = [p for p in (SRC, BENCH_DIR) if p not in sys.path]
    import opfold
    import workloads
    if not os.path.abspath(opfold.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported opfold from {opfold.__file__}, "
                         f"not from {SRC}")
    return workloads


def probe_setup(workload, seed):
    """Time import + input generation in this fresh interpreter."""
    start = time.perf_counter()
    workloads = import_workloads()
    workloads.WORKLOADS[workload].setup(int(seed))
    print(time.perf_counter() - start)


def fresh_setup_times(workload, seed, repeats):
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "run.probe_setup(sys.argv[2], sys.argv[3])")
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", code, BENCH_DIR, workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=120)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed, build_result):
    import numpy
    from opfold import KERNEL_NAME
    try:
        import opfold._corefast  # noqa: F401
        corefast = "ok"
    except ImportError as exc:
        corefast = f"{type(exc).__name__}: {exc}"
    return {
        "kernel": KERNEL_NAME,
        "corefast_import": corefast,
        "opfold_pure_set": bool(os.environ.get("OPFOLD_PURE")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "build": build_result,
    }


def check_lane_parity(count=6):
    """Compiled lane only: fold and classical multiply must match _corepy."""
    import numpy
    from opfold import _corepy, _kernel
    if _kernel.KERNEL_NAME == _corepy.KERNEL_NAME:
        return "skipped: pure lane selected"
    rng = numpy.random.default_rng(20110406)
    for i in range(count):
        m = 1024 if i < count // 2 else int(rng.integers(8, 257))
        a, b = (_corepy.from_int(int.from_bytes(rng.bytes((m + 7) // 8),
                                                "little") & ((1 << m) - 1))
                for _ in range(2))
        for k in ((5,) if m == 1024 else range(1, 9)):
            if _kernel.fold_multiply(a, b, m, k) != \
                    _corepy.fold_multiply(a, b, m, k):
                raise SystemExit(
                    f"lane parity: fold_multiply mismatch at m={m}, k={k}")
        if _kernel.classical_multiply(a, b) != _corepy.classical_multiply(a, b):
            raise SystemExit(f"lane parity: classical_multiply mismatch, m={m}")
    return f"identical on {count} operand pairs"


class Run:
    """One benchmark run: set-up, then alternating reference and batches."""

    def __init__(self, workload, state, seconds):
        self.workload = workload
        self.state = state
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.next_index = 0

    def batch(self, context=contextlib.nullcontext):
        """Run the next batch inside `context`, then check it outside.

        Returns (seconds, items)."""
        index = self.next_index
        self.next_index += 1
        items = self.workload.batch_items
        error = None
        with context():
            start = time.perf_counter()
            try:
                result = self.workload.run_batch(self.state, index)
            except Exception:
                error = traceback.format_exc()
            elapsed = time.perf_counter() - start
        if error:
            print(error, file=sys.stderr)
            failed = items
        else:
            failed = self.workload.count_failed(self.state, index, result)
        self.attempted += items
        self.failed += failed
        return elapsed, items

    def timed_batches(self, contexts):
        """After one warm-up batch, cycle through `contexts` until the time
        is up. A reference loop runs before each batch and after the last.

        Returns one list per context of (batch s, items, reference s), the
        reference time being the mean of the loops on either side."""
        self.batch()
        rows = []
        mix = self.workload.reference
        before = timed_reference(mix)
        deadline = time.perf_counter() + self.seconds
        while time.perf_counter() < deadline:
            for i, context in enumerate(contexts):
                elapsed, items = self.batch(context)
                after = timed_reference(mix)
                rows.append((i, elapsed, items, (before + after) / 2))
                before = after
        return [[row[1:] for row in rows if row[0] == i]
                for i in range(len(contexts))]


def timed_reference(mix):
    start = time.perf_counter()
    reference_loop(*mix)
    return time.perf_counter() - start


def rates(records):
    return [items / elapsed for elapsed, items, _ in records]


def end_to_end_metrics(records, setup_times):
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "throughput_norm": {
            "value": statistics.median(
                items / elapsed * ref for elapsed, items, ref in records),
            "unit": "items/ref"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }


def per_layer_metrics(tracer, traced, untraced, first_ledger):
    """Calls and self time per traced item, share of traced wall time."""
    wall_ns = sum(elapsed for elapsed, _, _ in traced) * 1e9
    items = sum(n for _, n, _ in traced)
    metrics = {}
    totals = tracer.layer_totals()
    for name, (calls, self_ns) in totals.items():
        metrics[f"{name}.calls"] = {"value": calls / items,
                                    "unit": "calls/item"}
        metrics[f"{name}.self_s"] = {"value": self_ns / 1e9 / items,
                                     "unit": "s/item"}
        metrics[f"{name}.share"] = {"value": self_ns / wall_ns,
                                    "unit": "fraction"}
    for field, value in first_ledger.items():
        metrics[f"folding.{field}"] = {"value": value, "unit": "count"}
    adds = sum(tracer.ledger.values())
    kernel_ns = totals["kernel.fold_multiply"][1]
    metrics["kernel.ns_per_add"] = {
        "value": kernel_ns / adds if adds else 0.0, "unit": "ns"}
    untraced_rate = statistics.median(rates(untraced))
    metrics["untraced_throughput"] = {"value": untraced_rate,
                                      "unit": "items/s"}
    metrics["tracing_overhead"] = {
        "value": untraced_rate / statistics.median(rates(traced)),
        "unit": "ratio"}
    return metrics


def run_benchmark(workload_name, seed, seconds, trace,
                  setup_repeats=SETUP_REPEATS, build_result=None):
    """One run; returns (result printed as the last line, full record)."""
    start = time.perf_counter()
    workloads = import_workloads()
    workload = workloads.WORKLOADS[workload_name]
    state = workload.setup(seed)
    setup_s = time.perf_counter() - start
    record = {"workload": workload_name, "trace": trace,
              "provenance": provenance(seed, build_result),
              "lane_parity": check_lane_parity(), "setup_in_run_s": setup_s}

    run = Run(workload, state, seconds)
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        first_ledger = {}

        @contextlib.contextmanager
        def traced():
            with tracer.installed():
                yield
            if not first_ledger:
                first_ledger.update(tracer.ledger)

        records = run.timed_batches((contextlib.nullcontext, traced))
        if not tracer.originals_restored():
            raise SystemExit("tracer left a wrapper installed")
        metrics = per_layer_metrics(tracer, records[1], records[0],
                                    first_ledger)
        record["spans"] = {"names": tracer.names, "spans": tracer.spans}
    else:
        setup_times = (fresh_setup_times(workload_name, seed, setup_repeats)
                       if setup_repeats else [setup_s])
        record["setup_fresh_s"] = setup_times
        records = run.timed_batches((contextlib.nullcontext,))
        metrics = end_to_end_metrics(records[0], setup_times)
    record["batches"] = records
    record["throughput"] = statistics.median(
        rate for rows in records for rate in rates(rows))
    record["failed_frac"] = run.failed / run.attempted
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record["result"] = result
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "opfold", "__init__.py")):
        parser.exit(2, f"no opfold sources under {SRC}\n")
    result, record = run_benchmark(args.workload, args.seed, args.seconds,
                                   args.trace, build_result=build())
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    summary = {k: record[k] for k in ("provenance", "lane_parity",
                                      "throughput", "failed_frac")}
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
