"""End-to-end benchmark of the CAT toolkit: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stagnation --seed 1 --seconds 30 --trace 0

``--trace 0`` runs operations for ``--seconds`` of measured time and
prints the end-to-end metrics; ``--trace 1`` runs the same operations
untraced for half the budget, replays them with the layer wrappers of
``layers.py`` installed, and prints the per-layer metrics plus the
tracing overhead.  Every item's generated input, output and check is
echoed as one JSON line; the last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``.

The end-to-end times are contention-normalised by ``pace.Pacer``: each
item's wall time is scaled to the speed of an uncontended core, measured
by a calibration kernel timed while the item runs (see pace.py).  The
raw wall times are echoed next to them.

``--record N`` runs N operations untraced and stores their outputs in
``reference.json`` as the oracle for that seed.  See README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up repetitions per run; setup_s reports their median.
SETUP_REPS = 3
#: No-op sandbox round trips timed by the stagnation traced run.
PROBE_REPS = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", type=int, default=0, metavar="N",
                   help="record the outputs of N operations as the "
                        "reference for this seed")
    return p.parse_args(argv)


def _echo(record: dict) -> None:
    print(json.dumps(record, sort_keys=True), flush=True)


class Pass:
    """Outcome of running a sequence of operations."""

    def __init__(self):
        self.ops: list[list[dict]] = []
        self.records: list[tuple[dict, dict | None]] = []
        self.latencies: list[float] = []  # normalised when paced
        self.op_rates: list[float] = []   # throughput units/s of each op
        self.statuses: dict[str, int] = {}
        self.units = 0.0
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0


def run_pass(wl, oracle, *, budget=None, replay=None, label="measure",
             pacer=None):
    """Run operations until ``budget`` seconds of operation time are
    spent (never starting one the mean so far says would overrun; at
    least one), or replay the operations of ``replay`` exactly.  With a
    running ``pacer`` the latencies and rates are normalised."""
    out = Pass()
    index = 0
    while True:
        items = replay[index] if replay is not None else wl.op_inputs(index)
        t0 = time.perf_counter()
        try:
            results = wl.run_op(items)
        # catlint: disable=CAT012 -- run boundary: the failure is printed
        # and counted as failed items, and the run goes on
        except Exception as err:
            traceback.print_exc()
            results = [{"output": None, "t0": t0, "latency_s": 0.0,
                        "units": 0.0,
                        "error": f"{type(err).__name__}: {err}"}
                       for _ in items]
        dt = time.perf_counter() - t0
        out.wall += dt
        latencies = [r["latency_s"] for r in results]
        op_time = dt
        if pacer is not None:
            pacer.collect()
            latencies = [pacer.normalise(r["t0"], r["t0"] + r["latency_s"])
                         for r in results]
            # batch bookkeeping between the items stays as measured
            op_time = sum(latencies) + max(
                dt - sum(r["latency_s"] for r in results), 0.0)
        out.op_rates.append(sum(r["units"] for r in results) / op_time)
        for item, res, latency in zip(items, results, latencies):
            output = res["output"]
            if output is None:
                mode, problems = "none", [res["error"]]
            else:
                mode, problems = oracle.check(item, output)
            out.attempted += 1
            out.failed += bool(problems)
            out.units += res["units"]
            out.latencies.append(latency)
            status = res.get("status")
            if status:
                out.statuses[status] = out.statuses.get(status, 0) + 1
            out.records.append((item, output))
            _echo({"workload": wl.name, "pass": label, "op": index,
                   "input": item, "output": output, "check": mode,
                   "ok": not problems, "problems": problems,
                   "latency_s": res["latency_s"],
                   "latency_normalised_s": latency})
        out.ops.append(items)
        index += 1
        if replay is not None:
            if index == len(replay):
                break
        elif out.wall + out.wall / index > budget:
            break
    return out


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _sandbox_probe() -> tuple[float, float]:
    """Median no-op ``IsolatedRunner.run_callable`` round trip [s] and
    the children's peak RSS [MB]."""
    from repro.resilience.isolation import IsolatedRunner, IsolationPolicy
    pol = IsolationPolicy(deadline=30.0, stall_timeout=None,
                          max_restarts=0, poll_interval=0.02,
                          term_grace=0.5)
    times = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        IsolatedRunner(pol, label="perfbench-probe").run_callable(int)
        times.append(time.perf_counter() - t0)
    return (statistics.median(times),
            _peak_rss_mb(resource.RUSAGE_CHILDREN))


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def measure(wl, oracle, args, setup_s, spec, pacer):
    p = run_pass(wl, oracle, budget=args.seconds, pacer=pacer)
    values = {"throughput_per_s": statistics.median(p.op_rates),
              "latency_p50_s": statistics.median(p.latencies),
              "setup_s": setup_s,
              "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF)}
    _echo({"workload": wl.name, "throughput_unit": wl.item_label,
           "ops": len(p.ops), "items": p.attempted, "units": p.units,
           "wall_s": p.wall})
    metrics = {m["name"]: _metric(values[m["name"]], m["unit"])
               for m in spec["end_to_end"]}
    return [p], metrics


def trace(wl, oracle, args, spec):
    from layers import SPANS
    from tracer import Tracer
    plain = run_pass(wl, oracle, budget=args.seconds / 2.0,
                     label="untraced")
    tracer = Tracer(SPANS)
    with tracer:
        t0 = time.perf_counter()
        wl.setup()
        setup_wall = time.perf_counter() - t0
        traced = run_pass(wl, oracle, replay=plain.ops, label="traced")
    values = dict(tracer.metrics)
    for status, n in traced.statuses.items():
        values[f"service.envelopes.{status}"] = n
    values.update({
        "trace.ops": len(traced.ops),
        "trace.setup_s": setup_wall,
        "trace.wall_s": traced.wall,
        "trace.untraced_wall_s": plain.wall,
        "trace.overhead_s": traced.wall - plain.wall,
        "trace.spans": tracer.n_spans,
        "trace.unattributed_s": setup_wall + traced.wall - tracer.traced_s,
    })
    if wl.name == "stagnation":
        (values["resilience.isolation.roundtrip_s"],
         values["resilience.isolation.child_peak_rss_mb"]) = \
            _sandbox_probe()
    metrics = {m["name"]: _metric(values.get(m["name"], 0.0), m["unit"])
               for m in spec["per_layer"]}
    return [plain, traced], metrics


def record(wl, args):
    import fcntl

    import oracle as oracle_mod
    blank = oracle_mod.Oracle(wl, {})
    p = run_pass(wl, blank, replay=[wl.op_inputs(i)
                                    for i in range(args.record)],
                 label="record")
    if p.failed:
        print("refusing to record: fallback checks failed",
              file=sys.stderr)
        return 1
    lock = os.open(HERE, os.O_RDONLY)   # serialises concurrent recorders
    try:
        fcntl.flock(lock, fcntl.LOCK_EX)
        refs = oracle_mod.load_reference()
        table = refs.setdefault(wl.name, {})
        for item, output in p.records:
            table[oracle_mod.item_key(item)] = output
        oracle_mod.save_reference(refs)
    finally:
        os.close(lock)
    print(f"recorded {len(p.records)} items for {wl.name} seed "
          f"{args.seed}", file=sys.stderr)
    return 0


def _run(args, workdir, pacer):
    sys.path.insert(0, SRC)
    from oracle import Oracle, load_reference
    from workloads import WORKLOADS
    t_imported = time.perf_counter()
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; options: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "interaction_map.json")) as f:
        mapped = set(json.load(f)["per_layer"])
    if mapped != {m["name"] for m in spec["per_layer"]}:
        print("interaction_map.json and BENCHMARK.json per_layer differ",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, workdir,
                                  isolate="never" if args.trace else "auto")
    setup_windows = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup()
        setup_windows.append((t0, time.perf_counter()))
    if args.record:
        return record(wl, args)
    oracle = Oracle(wl, load_reference())
    if args.trace:
        passes, metrics = trace(wl, oracle, args, spec)
    else:
        setup_s = (pacer.normalise(T_START, t_imported)
                   + statistics.median(pacer.normalise(*w)
                                       for w in setup_windows))
        passes, metrics = measure(wl, oracle, args, setup_s, spec, pacer)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


def main(argv=None):
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    # sandbox children and snapshot stores write under the checkout
    tempfile.tempdir = workdir
    os.environ["TMPDIR"] = workdir
    from pace import Pacer
    pacer = Pacer(workdir)
    if not (args.trace or args.record):
        pacer.start()
    try:
        return _run(args, workdir, pacer)
    finally:
        pacer.stop()
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
