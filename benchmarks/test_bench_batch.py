"""Benchmark: batch front-door throughput and per-request latency.

Two perf trajectories for the "millions of users" service layer, the
same numbers the CI ``batch-smoke`` job records to ``BENCH_batch.json``
(requests/sec plus p50/p99 per-request latency):

* **serial throughput** — a mixed batch of light requests (correlation
  points + equilibrium compositions) measures the envelope/validation/
  breaker overhead per request on top of the raw physics;
* **farm overhead** — the same workload sharded through the solve farm
  (``evaluate_batch_farm``) quantifies what the durable queue, sandbox
  spawn and exactly-once commit cost per chunk;
* **stagnation requests** — four full-VSL ``stagnation`` requests (6 to
  12 km/s, 55 to 80 km) through the default sandboxed front door: the
  heavy method users actually wait on.
"""

import os

from repro.resilience.farm import write_bench_json
from repro.service import (BatchPolicy, batch_bench_record,
                           evaluate_batch, evaluate_batch_farm)

BENCH_PATH = os.environ.get("BENCH_BATCH_JSON", "BENCH_batch.json")


def _requests(n):
    reqs = []
    for i in range(n):
        pick = i % 3
        if pick == 0:
            reqs.append({"method": "heat_point", "V": 5000.0 + i,
                         "h": 45e3 + 10.0 * i, "nose_radius": 1.0})
        elif pick == 1:
            reqs.append({"method": "stagnation_correlation",
                         "V": 6000.0 + i, "h": 55e3,
                         "nose_radius": 1.3})
        else:
            reqs.append({"method": "equilibrium_composition",
                         "T": 3000.0 + 5.0 * i, "p": 1.0e4})
    return reqs


def test_bench_batch_serial_throughput(once):
    """Requests/sec of the serial front door on a mixed light batch."""
    n = 300
    result = once(lambda: evaluate_batch(_requests(n)))
    led = result.ledger
    assert led["counts"] == {"ok": n}
    lat = led["latency_s"]
    print(f"\nbatch serial: {n} requests in {led['wall_s']:.3f} s -> "
          f"{led['requests_per_s']:.1f} req/s "
          f"(p50 {lat['p50'] * 1e3:.2f} ms, "
          f"p99 {lat['p99'] * 1e3:.2f} ms)")
    assert led["requests_per_s"] > 20
    write_bench_json(BENCH_PATH, batch_bench_record(result,
                                                    mode="serial"))


#: Full-VSL stagnation points: (V [m/s], h [m], nose radius [m]).
STAGNATION_POINTS = ((6000.0, 55000.0, 1.0), (9000.0, 80000.0, 0.4),
                     (12000.0, 67000.0, 2.0), (7500.0, 80000.0, 0.6))


def test_bench_batch_stagnation_requests(once):
    """Requests/sec and latency of full-VSL stagnation requests."""
    reqs = [{"method": "stagnation", "V": V, "h": h, "nose_radius": rn}
            for V, h, rn in STAGNATION_POINTS]
    result = once(lambda: evaluate_batch(
        reqs, BatchPolicy(request_deadline=120.0)))
    led = result.ledger
    assert led["counts"] == {"ok": len(reqs)}
    assert all(env.rung == "vsl" for env in result.envelopes)
    lat = led["latency_s"]
    print(f"\nbatch stagnation: {len(reqs)} requests in "
          f"{led['wall_s']:.2f} s -> {led['requests_per_s']:.2f} req/s "
          f"(p50 {lat['p50']:.2f} s, p99 {lat['p99']:.2f} s)")


def test_bench_batch_farm_overhead(once, tmp_path):
    """Chunked farm path vs serial on the same workload."""
    n = 60
    serial = evaluate_batch(_requests(n))
    farm = once(lambda: evaluate_batch_farm(
        _requests(n), BatchPolicy(),
        queue_dir=str(tmp_path / "q"), n_workers=2, chunk_size=15))
    assert farm.ledger["ok"], farm.ledger
    assert farm.ledger["audit"]["ok"]
    assert farm.counts == serial.counts
    print(f"\nbatch farm -j 2 (4 chunks of 15): "
          f"{farm.ledger['requests_per_s']:.1f} req/s vs serial "
          f"{serial.ledger['requests_per_s']:.1f} req/s "
          f"(farm wall {farm.ledger['wall_s']:.2f} s)")
    assert farm.ledger["n_requests"] == n
