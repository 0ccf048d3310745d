#!/usr/bin/env python3
"""Wire-level end-to-end benchmark of ``repro.server`` (see ``README.md``).

    python3 benchmarks/e2e/run.py --seed 7                 # all four workloads
    python3 benchmarks/e2e/run.py --smoke                  # the same, in <30 s
    python3 benchmarks/e2e/run.py --workload point_hot --seed 7 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --compare A.json B.json

A *unit* is one workload measured once, untraced (end-to-end metrics) or
traced (per-layer metrics).  Each unit starts the real ``QueryServer`` in a
child process, passes the correctness gate, warms up, drives the timed window
over TCP from two threads, and prints its metrics by name with their units;
the last line of standard output is the unit's result as one JSON object.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
from compare import compare, quartile_spread  # noqa: E402
from repro.language.session import Session  # noqa: E402
from workloads import (  # noqa: E402
    CONNECTIONS,
    LATENCY_LIMIT_MS,
    RATE_OPS_PER_S,
    WORKLOADS,
    Dataset,
    Workload,
    write_requests,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    metric["name"]: metric["unit"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]
}
RESULTS = HERE / "results"

#: A unit measures this many fresh server *instances*, each set up from
#: nothing and driven for ``--seconds``/INSTANCES; every end-to-end metric is
#: the median over the instances' own values.  One Python process differs
#: from the next by ±5% (memory layout, where the hypervisor put it): on the
#: seed, five same-seed runs of one 20 s instance spread over 13%, five
#: medians over five 4 s instances over 4%.
INSTANCES = 5


def percentile(values: Sequence[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


# -- one set-up --------------------------------------------------------------


class Bench:
    """A running server, two warmed connections, and the oracle's copy."""

    def __init__(self, name: str, seed: int, instance: int, smoke: bool) -> None:
        began = time.perf_counter()
        self.data = Dataset(seed, smoke)
        self.workload: Workload = WORKLOADS[name](self.data, seed, instance)
        self.oracle = self.data.database()
        self.connections: List[harness.Connection] = []
        self.server = harness.ServerProcess(self.data.relations())
        try:
            self.connections = [
                harness.Connection(self.server.address) for _ in range(CONNECTIONS)
            ]
            harness.verify(
                self.connections[0].client, self.workload.verification(), self.oracle
            )
            for index, connection in enumerate(self.connections):
                for op in self.workload.warmup(index):
                    if connection.perform(op) != "ok":
                        raise harness.WrongAnswer(
                            "warm-up failed: " + "; ".join(connection.complaints)
                        )
                connection.reset()
        except BaseException:
            self.close()
            raise
        #: Data generation + child start + verification + warm-up.
        self.setup_seconds = time.perf_counter() - began

    def close(self) -> None:
        for connection in self.connections:
            try:
                connection.close()
            except OSError:
                pass
        self.server.close()


# -- the timed window --------------------------------------------------------


def run_window(bench: Bench, seconds: float, trace: bool) -> Dict[str, float]:
    """Drive the workload for ``seconds``; returns what the window cost."""
    workload = bench.workload
    sample_every = seconds * CONNECTIONS * INSTANCES / workload.sample if trace else None
    stop = threading.Event()
    # The generator holds the oracle's copy of the database; keep the cycle
    # collector from walking it in the middle of a timed op.
    gc.collect()
    gc.freeze()
    start = time.perf_counter() + 0.05
    threads = [
        threading.Thread(
            target=connection.drive,
            args=(workload.stream(index, seconds), start, start + seconds, sample_every, stop),
            name=f"generator-{index}",
            daemon=True,
        )
        for index, connection in enumerate(bench.connections)
    ]
    server_cpu, client_cpu = bench.server.cpu_seconds(), time.process_time()
    for thread in threads:
        thread.start()
    try:
        # Closed loops end at the deadline, the open loop after its last due
        # op: either way within one op of ``start + seconds``.
        for thread in threads:
            thread.join(seconds + 90.0)
    finally:
        stop.set()  # only matters when this thread is unwinding early
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a generator thread did not finish")
    for connection in bench.connections:
        if connection.error is not None:
            raise connection.error
    return {
        "start": start,
        "server_cpu": bench.server.cpu_seconds() - server_cpu,
        "client_cpu": time.process_time() - client_cpu,
        "peak_rss_mb": bench.server.peak_rss_mb(),
    }


def final_state_problem(bench: Bench) -> Optional[str]:
    """After writes: the server's ``beer`` against a serial replay.

    Every acknowledged write is replayed, connection by connection, through
    a reference-evaluator ``Session`` on the oracle's copy.  Keys are
    partitioned by connection, so acknowledged ops commute and any serial
    order must give the state the server holds.
    """
    (over_the_wire,) = bench.connections[0].client.xra("? beer;")
    session = Session(bench.oracle, use_physical_engine=False, use_optimizer=False)
    for connection in bench.connections:
        for request in write_requests(connection.acknowledged):
            session.run(harness.parse_request(request, bench.oracle.schema))
    replayed = bench.oracle.get("beer")
    if harness.bag_equal(over_the_wire, replayed):
        return None
    return "final state of beer differs from the serial replay\n" + harness.difference(
        over_the_wire, replayed
    )


# -- metrics -----------------------------------------------------------------


def end_to_end(bench: Bench, window: Dict[str, float]) -> Dict[str, float]:
    """One instance's own end-to-end values."""
    records = [record for c in bench.connections for record in c.records]
    latencies = [(r.done - r.origin) * 1e3 for r in records if r.outcome == "ok"]
    if not latencies:
        raise RuntimeError("no op was answered ok inside the window")
    elapsed = max(record.done for record in records) - window["start"]
    return {
        "setup_s": bench.setup_seconds,
        "throughput_rps": len(latencies) / elapsed,
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p95_ms": percentile(latencies, 0.95),
        "server_cpu_ms_per_op": window["server_cpu"] * 1e3 / len(records),
        "server_peak_rss_mb": window["peak_rss_mb"],
        "client_cpu_ms_per_op": window["client_cpu"] * 1e3 / len(records),
    }


def per_layer(connections: List[harness.Connection], tracer: layers.Tracer,
              response_bytes: int) -> Dict[str, float]:
    """Per-layer values over every instance's connections, pooled."""
    records = [record for c in connections for record in c.records]
    ops = tracer.sampled
    sampled = len(ops)
    if not sampled:
        raise RuntimeError("the traced run sampled no op")
    latency = {
        kind: [(r.done - r.origin) * 1e3 for r in records if r.kind == kind]
        for kind in ("read", "write", "txn")
    }

    def p50(values: List[float]) -> float:
        return percentile(values, 0.50) if values else 0.0

    def total(name: str) -> float:
        return sum(getattr(connection, name) for connection in connections)

    def counted(name: str) -> float:
        return sum(connection.resources[name] for connection in connections)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    per_op_ms = {
        name: seconds * 1e3 / sampled for name, seconds in tracer.self_seconds().items()
    }

    def ms(name: str) -> float:
        return per_op_ms.get(name, 0.0)

    service_ms = sum(op[-1].decoded - op[0].sent for op in ops) * 1e3 / sampled
    request_ms = [x.response["seconds"] * 1e3 for op in ops for x in op]
    chain_ms = sum(ms(name) for name in layers.CHAIN)
    inside_ms = sum(ms(name) for name in layers.INSIDE_REQUEST)
    missed = sum(
        1 for r in records
        if r.outcome == "failed" or (r.done - r.origin) * 1e3 > LATENCY_LIMIT_MS
    )
    return {
        "server.client.decode_ms": (
            ms("server.client.decode") + ms("server.client.json_loads")
        ),
        "server.client.wire_residual_ms": (
            ms("server.client.request") - sum(request_ms) / sampled
            - ms("server.client.json_loads")
        ),
        "server.protocol.encode_ms": (
            ms("server.protocol.relation_to_wire") + ms("server.protocol.encode_message")
        ),
        "server.protocol.response_bytes": response_bytes / sampled,
        "server.core.request_ms": p50(request_ms),
        "server.core.overhead_ms": sum(request_ms) / sampled - inside_ms,
        "server.core.refused": total("refused"),
        "server.sessions.commit_ms": ratio(total("commit_seconds") * 1e3, total("commits")),
        "server.sessions.conflict_abort_ratio": ratio(total("conflicts"), total("commits")),
        "xra.parse_ms": ms("xra.parse"),
        "sql.parse_translate_ms": ms("sql.parse_translate"),
        "optimizer.optimize_ms": ms("optimizer.optimize"),
        "engine.planner.plan_ms": ms("engine.planner.plan"),
        "engine.vector.execute_ms": ms("engine.vector.execute"),
        "engine.vector.rows_scanned": ratio(counted("rows_scanned"), len(records)),
        "engine.vector.rows_emitted": ratio(counted("rows_emitted"), len(records)),
        "engine.vector.fallback_batch_ratio": ratio(
            counted("batches_fallback"),
            counted("batches_fallback") + counted("batches_vectorized"),
        ),
        "engine.vector.dedup_ratio": ratio(
            counted("dedup_rows_in"), counted("dedup_rows_out")
        ),
        "relation.materialize_ms": ms("relation.materialize"),
        "cache.result_hit_ratio": ratio(
            counted("cache_hits"), counted("cache_hits") + counted("cache_misses")
        ),
        "cache.hit_path_ms": ms("cache.hit_path"),
        "language.write_execute_ms": ms("language.write_execute"),
        "database.snapshot_ms": ms("database.snapshot"),
        "database.install_ms": ms("database.install"),
        "client.latency_p99_ms": percentile([v for vs in latency.values() for v in vs], 0.99),
        "client.read_p50_ms": p50(latency["read"]),
        "client.write_p50_ms": p50(latency["write"]),
        "client.txn_p50_ms": p50(latency["txn"]),
        "client.sched_lag_p95_ms": percentile([r.lag * 1e3 for r in records], 0.95),
        "client.limit_miss_ratio": ratio(missed, len(records)),
        "trace.coverage_ratio": chain_ms / service_ms,
    }


def replay_sample(bench: Bench, tracer: layers.Tracer) -> int:
    """Live client-side spans of one instance's sampled ops, then their
    replay; returns the bytes the replayed replies took on the wire."""

    def service(exchanges: Sequence[harness.Exchange]) -> float:
        return exchanges[-1].decoded - exchanges[0].sent

    ops = sorted(
        (op for connection in bench.connections for op in connection.sampled),
        key=lambda exchanges: exchanges[0].sent,
    )
    # The per-layer numbers are means, and this VM now and then stops for
    # half a second: one such op would outweigh the other 299.
    stall = 10 * statistics.median(map(service, ops))
    ops = [op for op in ops if service(op) <= stall]
    first_op_id = len(tracer.sampled)
    tracer.sampled += ops
    for op_id, exchanges in enumerate(ops, first_op_id):
        root = tracer.add("client.op", op_id, exchanges[0].sent, exchanges[-1].decoded)
        for x in exchanges:
            tracer.add("server.client.request", op_id, x.sent, x.replied, root)
            tracer.add("server.client.decode", op_id, x.replied, x.decoded, root)
    replay = layers.Replay(bench.data.database(), tracer, compare=not bench.workload.writes)
    for op_id, exchanges in enumerate(ops, first_op_id):
        replay.op(op_id, exchanges)
    return replay.response_bytes


# -- one unit ----------------------------------------------------------------


def run_unit(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Dict[str, Any]:
    """Measure one workload once; returns the unit's result document."""
    unit: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": False, "attempted": 0, "failed": 0, "metrics": {},
    }
    instances = 1 if smoke else INSTANCES
    connections: List[harness.Connection] = []
    complaints: List[str] = []
    own: List[Dict[str, float]] = []
    tracer = layers.Tracer()
    response_bytes = 0
    for instance in range(instances):
        bench: Optional[Bench] = None
        try:
            bench = Bench(name, seed, instance, smoke)
            window = run_window(bench, seconds / instances, trace)
            connections += bench.connections
            complaints += [line for c in bench.connections for line in c.complaints]
            if bench.workload.writes and not complaints:
                problem = final_state_problem(bench)
                if problem:
                    complaints.append(problem)
            if not complaints:
                own.append(end_to_end(bench, window))
                if trace:
                    response_bytes += replay_sample(bench, tracer)
        except harness.WrongAnswer as error:
            complaints.append(str(error))
        finally:
            if bench is not None:
                bench.close()
        if complaints:
            break
    outcomes = [record.outcome for c in connections for record in c.records]
    unit.update(
        attempted=len(outcomes),
        ok=outcomes.count("ok"),
        failed=outcomes.count("failed"),
        aborted=outcomes.count("aborted"),
    )
    if complaints:
        # A failed check prints the difference and no metrics.
        print(f"{name}: INCORRECT\n" + "\n".join(complaints[:20]), file=sys.stderr)
        return unit
    if trace:
        values = per_layer(connections, tracer, response_bytes)
        unit["sampled_ops"] = len(tracer.sampled)
        write_spans(name, tracer)
    else:
        values = {metric: statistics.median(v[metric] for v in own) for metric in own[0]}
        unit["instances"] = own
    unit["correct"] = True
    unit["metrics"] = {
        metric: {"value": value, "unit": UNITS[metric]} for metric, value in values.items()
    }
    return unit


def write_spans(name: str, tracer: layers.Tracer) -> None:
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"trace_{name}.jsonl", "w", encoding="utf-8") as sink:
        for span in tracer.spans:
            sink.write(json.dumps(span) + "\n")


def print_unit(unit: Dict[str, Any]) -> None:
    kind = "per-layer (traced run)" if unit["trace"] else "end-to-end (untraced run)"
    loop = WORKLOADS[unit["workload"]].loop
    print(
        f"\n== {unit['workload']} · {loop} loop · {kind} · "
        f"seed {unit['seed']} · {unit['seconds']:g} s"
    )
    if not unit["correct"]:
        print("   INCORRECT: no metrics (see standard error)")
        return
    print(
        f"   ops_attempted {unit['attempted']}  ops_ok {unit['ok']}  "
        f"ops_failed {unit['failed']}  ops_aborted {unit['aborted']}"
    )
    for metric, entry in unit["metrics"].items():
        print(f"   {metric:<38} {entry['value']:>14.4f} {entry['unit']}")


# -- the result file ---------------------------------------------------------


def stamp(smoke: bool) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "server_config": harness.SERVER_CONFIG,
        "connections": CONNECTIONS,
        "server_cpu": harness.SERVER_CPU,
        "generator_cpu": harness.GENERATOR_CPU,
        "oltp_open_rate_ops_per_s": RATE_OPS_PER_S,
        "latency_limit_ms": LATENCY_LIMIT_MS,
        "smoke": smoke,
        "started_utc": time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()),
    }


def save(path: Path, header: Dict[str, Any], units: List[Dict[str, Any]]) -> None:
    """(Re)write this invocation's own file: never anybody else's."""
    RESULTS.mkdir(exist_ok=True)
    scratch = path.with_suffix(".tmp")
    scratch.write_text(json.dumps({"stamp": header, "units": units}, indent=1))
    scratch.replace(path)


# -- command line ------------------------------------------------------------


def _interrupted(signum: int, _frame: Any) -> None:
    # Unwind through the ``finally`` blocks that own the child.
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1994)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seconds", type=float, help="timed window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: 0, then 1")
    parser.add_argument("--runs", type=int, default=1, help="repeat with seed, seed+1, ...")
    parser.add_argument("--smoke", action="store_true", help="1/10 data, 2 s windows")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(Path(args.compare[0]), Path(args.compare[1]), SPEC["end_to_end"])

    signal.signal(signal.SIGINT, _interrupted)
    signal.signal(signal.SIGTERM, _interrupted)
    atexit.register(harness.reap)
    if harness.GENERATOR_CPU is not None:
        os.sched_setaffinity(0, {harness.GENERATOR_CPU})

    seconds = args.seconds or (2.0 if args.smoke else float(SPEC["run_seconds"]))
    names = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]
    traces = [bool(args.trace)] if args.trace is not None else [False, True]
    header = stamp(args.smoke)
    path = RESULTS / f"{header['started_utc']}_{os.getpid()}.json"
    units: List[Dict[str, Any]] = []
    try:
        for run in range(args.runs):
            for name in names:
                for trace in traces:
                    unit = run_unit(name, args.seed + run, seconds, trace, args.smoke)
                    units.append(unit)
                    save(path, header, units)
                    print_unit(unit)
        status = 0 if all(unit["correct"] for unit in units) else 1
    except SystemExit as stop:  # raised by the signal handlers above
        status = stop.code
    finally:
        harness.reap()
    # The last step, however the run ended: nothing this process started lives.
    leaked = [pid for pid in harness.started_pids if harness.alive(pid)]
    if leaked:
        print(f"run.py: child process(es) still alive: {leaked}", file=sys.stderr)
        return 3
    if units:
        print(f"\nresults: {path.relative_to(ROOT)}")
        if args.runs > 1:
            print("\n".join(quartile_spread(units, SPEC["end_to_end"])))
        last = units[-1]
        print(json.dumps({key: last[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return status


if __name__ == "__main__":
    sys.exit(main())
