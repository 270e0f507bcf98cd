"""Cross-process proxy-call benchmark for refbus.

Usage:
    python3 bench/run.py --workload <name>[,<name>...|all] --seed <n>
                         --seconds <s> --trace <0|1>

The load generator (this process) is itself a refbus Node, so it can
serve callbacks. It spawns a server Node in a separate process
(``server.py``) and calls it through the public proxy API over loopback
(127.0.0.1): a closed loop with one client thread, because a refbus caller
blocks on each reply. Each run makes a fixed number of calls, ``rate *
--seconds``, after an untimed warm-up, and checks every reply. The calls
are cut into windows of a fixed size; each timing, rate and CPU metric is
the median of its per-window values, so a short stall of the host moves
one window, not the result.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` makes an
untraced pass and then a traced pass over the same server, and reports
the per-layer metrics of the traced pass (see ``tracer.py``) plus the
tracing overhead. For each workload the last line printed is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. DESIGN.md
records the workloads, metrics, the layer-to-end-to-end mapping and the
baseline.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Spawns timed per run for setup_s; the median of several damps the
# interpreter start-up jitter that dominates one spawn.
SETUP_SAMPLES = 9
# A call that raised or returned a wrong value counts as one that took
# the whole default call timeout: it misses every latency limit instead of
# dropping out of the sample.
FAILED_LATENCY_S = 30.0
# Samples that must lie beyond the reported tail percentile.
TAIL_SAMPLES = 10
HOST = "127.0.0.1"
I64_MIN, I64_MAX = -(2**63), 2**63 - 1


def timed(proxy, method: str, *args, **kwargs):
    """Call a proxy method as a user would; returns (seconds, result)."""
    t0 = time.perf_counter()
    result = getattr(proxy, method)(*args, **kwargs)
    return time.perf_counter() - t0, result


class SmallCalls:
    """incr / setName / getName on a named Counter; transport dominates."""

    rate = 1200  # calls per second of --seconds
    window = 100  # calls per measuring window
    warmup = 300
    cycle = 1

    def __init__(self, rng: random.Random, proxy, total: int):
        self.proxy = proxy
        self.ops = []
        for _ in range(total):
            r = rng.random()
            if r < 0.6:
                self.ops.append(("incr", rng.randint(1, 1000)))
            elif r < 0.8:
                name = "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(1, 16)))
                self.ops.append(("setName", name))
            else:
                self.ops.append(("getName",))
        self.value = 0
        self.name = ""

    def step(self, i: int):
        op = self.ops[i]
        elapsed, got = timed(self.proxy, *op)
        if op[0] == "incr":
            self.value += op[1]
            return elapsed, got == self.value
        if op[0] == "setName":
            self.name = op[1]
            return elapsed, got is None
        return elapsed, got == self.name


class BulkList:
    """echo(list<i64>) of 10k values over the full i64 range; the codec dominates."""

    rate = 7
    window = 200
    warmup = 5
    cycle = 1
    length = 10_000
    distinct = 4

    def __init__(self, rng: random.Random, proxy, total: int):
        self.proxy = proxy
        self.lists = [
            [rng.randint(I64_MIN, I64_MAX) for _ in range(self.length)]
            for _ in range(self.distinct)
        ]

    def step(self, i: int):
        values = self.lists[i % self.distinct]
        elapsed, got = timed(self.proxy, "echo", values)
        return elapsed, got == values


class Figure2Refs:
    """The README's Person example as traffic, in a four-call cycle:

    1. hold(person) by reference: a just-in-time deploy on this node;
    2. held() returns it by reference: it must unproxy to the same object;
    3. heldAge(): the server calls back into this node (two hops);
    4. hold(person) with a per-call BY_VALUE override: a snapshot, after
       which the caller's instance must be untouched.
    """

    rate = 800
    window = 200
    warmup = 200
    cycle = 4

    def __init__(self, rng: random.Random, proxy, total: int):
        from refbus import BY_VALUE, CallOptions, CallOverride

        from model import Person

        self.proxy = proxy
        self.people = [
            Person("".join(rng.choices("ABCDEFGHIJKLMNOPQRSTUVWXYZ", k=8)), rng.randint(0, 120))
            for _ in range(total // self.cycle + 1)
        ]
        self.by_value = CallOptions(override=CallOverride(whole_call=BY_VALUE))

    def step(self, i: int):
        person = self.people[i // self.cycle]
        phase = i % self.cycle
        if phase == 0:
            elapsed, got = timed(self.proxy, "hold", person)
            return elapsed, got is None
        if phase == 1:
            elapsed, got = timed(self.proxy, "held")
            return elapsed, got is person
        if phase == 2:
            elapsed, got = timed(self.proxy, "heldAge")
            return elapsed, got == person.age
        before = (person.name, person.age, person.spouse)
        elapsed, got = timed(self.proxy, "hold", person, _opts=self.by_value)
        return elapsed, got is None and (person.name, person.age, person.spouse) == before


WORKLOADS = {"small_calls": SmallCalls, "bulk_list": BulkList, "figure2_refs": Figure2Refs}

END_TO_END_UNITS = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "client_cpu_us_per_call": "us",
    "server_cpu_us_per_call": "us",
    "server_maxrss_mb": "MB",
}

PER_LAYER_UNITS = {
    "client.marshal_us": "us",
    "client.encode_us": "us",
    "client.wait_us": "us",
    "client.decode_us": "us",
    "client.type_check_us": "us",
    "client.materialize_us": "us",
    "client.connects_per_call": "count",
    "client.gc_us_per_call": "us",
    "node.handle_request_us": "us",
    "node.http_us": "us",
    "node.decode_us": "us",
    "node.type_check_us": "us",
    "node.materialize_us": "us",
    "node.marshal_us": "us",
    "node.encode_us": "us",
    "node.accepts_per_call": "count",
    "node.gc_us_per_call": "us",
    "wire.request_bytes": "B",
    "wire.reply_bytes": "B",
    "component.invoke_us": "us",
    "component.snapshot_us": "us",
    "registry.exports_per_call": "count",
    "registry.export_us": "us",
    "registry.resolve_us": "us",
    "registry.intern_new_ratio": "ratio",
    "registry.deployments_end": "count",
    "policy.resolves_per_call": "count",
    "policy.resolve_us": "us",
    "interfaces.method_lookups_per_call": "count",
    "interfaces.method_lookup_us": "us",
    "trace.overhead_ms": "ms",
}

# Exactly 0 on the workloads that never reach these functions, and a time
# that reads the same on every run is not accepted as a measurement: they
# are printed in the table but left out of the JSON result.
TABLE_ONLY = {"component.snapshot_us", "registry.export_us", "policy.resolve_us"}

# Spans whose self time is codec work (marshal, encode, decode, check, materialize).
CLIENT_CODEC = ("marshal", "encode_call", "decode_reply", "type_check", "materialize")
NODE_CODEC = ("decode_call", "type_check", "materialize", "marshal", "encode_reply")


class ServerProcess:
    """The server Node in its own interpreter, driven over stdin/stdout."""

    def __init__(self, workload: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "server.py"), workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "ready":
            self.close()
            raise RuntimeError(f"server for {workload} did not start")
        self.port = int(line[1])

    def command(self, name: str) -> dict:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def start_server(client, workload: str):
    """Spawn a server and get the first proxy; returns (server, proxy, seconds)."""
    from model import DEPLOYMENTS

    t0 = time.perf_counter()
    server = ServerProcess(workload)
    try:
        proxy = client.get_component_by_name(DEPLOYMENTS[workload][0], HOST, server.port)
    except BaseException:
        server.close()
        raise
    return server, proxy, time.perf_counter() - t0


def run_calls(load, start: int, n: int):
    """Make calls start..start+n-1; returns (latencies in s, failed, wall s)."""
    from refbus import RefbusError

    latencies = []
    failed = 0
    t0 = time.perf_counter()
    for i in range(start, start + n):
        try:
            elapsed, ok = load.step(i)
        except RefbusError:
            elapsed, ok = FAILED_LATENCY_S, False
        if not ok:
            failed += 1
            elapsed = FAILED_LATENCY_S
        latencies.append(elapsed)
    return latencies, failed, time.perf_counter() - t0


def tail(latencies: list[float]) -> float:
    """Highest sample with TAIL_SAMPLES samples beyond it; the maximum if too few."""
    ordered = sorted(latencies)
    index = len(ordered) - 1 - TAIL_SAMPLES
    return ordered[index] if index >= 0 else ordered[-1]


def tail_percentile(n: int) -> float:
    return 100.0 * (n - TAIL_SAMPLES) / n if n > TAIL_SAMPLES else 100.0


def call_count(cls, seconds: float, share: float = 1.0) -> int:
    n = max(cls.cycle, round(cls.rate * seconds * share))
    return n - n % cls.cycle


def measure_end_to_end(client, name: str, seed: int, seconds: float):
    cls = WORKLOADS[name]
    n = call_count(cls, seconds)
    window = min(cls.window, n)
    n -= n % window
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        server, _proxy, elapsed = start_server(client, name)
        server.close()
        setups.append(elapsed)
    server, proxy, elapsed = start_server(client, name)
    setups.append(elapsed)
    windows = []
    failed = 0
    try:
        load = cls(random.Random(seed), proxy, cls.warmup + n)
        _, warm_failed, _ = run_calls(load, 0, cls.warmup)
        for start in range(cls.warmup, cls.warmup + n, window):
            server_cpu0 = server.command("cpu")["cpu_s"]
            client_cpu0 = time.process_time()
            latencies, window_failed, wall = run_calls(load, start, window)
            client_cpu = time.process_time() - client_cpu0
            server_cpu = server.command("cpu")["cpu_s"] - server_cpu0
            failed += window_failed
            windows.append({
                "calls_per_s": window / wall,
                "call_p50_ms": statistics.median(latencies) * 1e3,
                "call_tail_ms": tail(latencies) * 1e3,
                "client_cpu_us_per_call": client_cpu / window * 1e6,
                "server_cpu_us_per_call": server_cpu / window * 1e6,
            })
        report = server.command("report")
    finally:
        server.close()
    values = {"setup_s": statistics.median(setups)}
    for key in windows[0]:
        values[key] = statistics.median(w[key] for w in windows)
    values["server_maxrss_mb"] = report["maxrss_kb"] / 1024
    attempted, failed = cls.warmup + n, failed + warm_failed
    info = {
        "calls": n,
        "windows": len(windows),
        "tail_percentile": tail_percentile(window),
        "fail_ratio": failed / attempted,
    }
    return attempted, failed, values, END_TO_END_UNITS, info


def layer_metrics(client_trace: dict, server_trace: dict, n: int, deployments: int) -> dict:
    def self_us(trace, name):
        return self_total(trace, (name,)) / n * 1e6

    def both_self_us(name):
        return self_us(client_trace, name) + self_us(server_trace, name)

    def both_n(name):
        return sum(t["spans"].get(name, {}).get("n", 0) for t in (client_trace, server_trace))

    def both_count(name):
        return client_trace["counts"].get(name, 0) + server_trace["counts"].get(name, 0)

    handle = server_trace["spans"].get("handle_request", {}).get("total_s", 0.0)
    interns = both_n("intern")
    return {
        "client.marshal_us": self_us(client_trace, "marshal"),
        "client.encode_us": self_us(client_trace, "encode_call"),
        "client.wait_us": self_us(client_trace, "post_call"),
        "client.decode_us": self_us(client_trace, "decode_reply"),
        "client.type_check_us": self_us(client_trace, "type_check"),
        "client.materialize_us": self_us(client_trace, "materialize"),
        "client.connects_per_call": client_trace["counts"].get("connect", 0) / n,
        "client.gc_us_per_call": client_trace["gc_s"] / n * 1e6,
        "node.handle_request_us": handle / n * 1e6,
        "node.http_us": self_us(server_trace, "http"),
        "node.decode_us": self_us(server_trace, "decode_call"),
        "node.type_check_us": self_us(server_trace, "type_check"),
        "node.materialize_us": self_us(server_trace, "materialize"),
        "node.marshal_us": self_us(server_trace, "marshal"),
        "node.encode_us": self_us(server_trace, "encode_reply"),
        "node.accepts_per_call": server_trace["counts"].get("accept", 0) / n,
        "node.gc_us_per_call": server_trace["gc_s"] / n * 1e6,
        "wire.request_bytes": both_count("request_bytes") / n,
        "wire.reply_bytes": both_count("reply_bytes") / n,
        "component.invoke_us": both_self_us("invoke"),
        "component.snapshot_us": both_self_us("snapshot"),
        "registry.exports_per_call": both_n("export") / n,
        "registry.export_us": both_self_us("export"),
        "registry.resolve_us": both_self_us("resolve"),
        "registry.intern_new_ratio": both_count("intern_new") / interns if interns else 0.0,
        "registry.deployments_end": float(deployments),
        "policy.resolves_per_call": both_n("policy_resolve") / n,
        "policy.resolve_us": both_self_us("policy_resolve"),
        "interfaces.method_lookups_per_call": both_n("method_lookup") / n,
        "interfaces.method_lookup_us": both_self_us("method_lookup"),
    }


def measure_layers(client, name: str, seed: int, seconds: float):
    from tracer import Tracer

    cls = WORKLOADS[name]
    n = call_count(cls, seconds, 0.5)
    server, proxy, _ = start_server(client, name)
    tracer = Tracer()
    try:
        load = cls(random.Random(seed), proxy, cls.warmup + 2 * n)
        _, warm_failed, _ = run_calls(load, 0, cls.warmup)
        plain, plain_failed, _ = run_calls(load, cls.warmup, n)
        server.command("trace")
        tracer.install()
        try:
            traced, traced_failed, _ = run_calls(load, cls.warmup + n, n)
            report = server.command("report")
        finally:
            tracer.uninstall()
    finally:
        server.close()
    client_trace = tracer.summary()
    server_trace = report["trace"]
    values = layer_metrics(client_trace, server_trace, n,
                           len(client.table.deployments()) + report["deployments"])
    traced_p50_ms = statistics.median(traced) * 1e3
    values["trace.overhead_ms"] = traced_p50_ms - statistics.median(plain) * 1e3
    # Collections run inside the codec spans, so their time is already in
    # the spans' self time. Span times are means, hence the mean call.
    codec_us = (self_total(client_trace, CLIENT_CODEC) + self_total(server_trace, NODE_CODEC)) / n * 1e6
    traced_mean_ms = statistics.fmean(traced) * 1e3
    info = {
        "calls": 2 * n,
        "traced_p50_ms": traced_p50_ms,
        "traced_mean_ms": traced_mean_ms,
        "handle_request_share_of_p50": values["node.handle_request_us"] / (traced_p50_ms * 1e3),
        "codec_share_of_mean": codec_us / (traced_mean_ms * 1e3),
    }
    return (cls.warmup + 2 * n, warm_failed + plain_failed + traced_failed, values,
            PER_LAYER_UNITS, info)


def self_total(trace: dict, names) -> float:
    return sum(trace["spans"].get(s, {}).get("self_s", 0.0) for s in names)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="comma-separated names from %s, or all" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [w for w in names if w not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "refbus" / "__init__.py").is_file():
        print(f"refbus sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from refbus import BY_REFERENCE, Node

    from model import register_types

    client = Node(HOST, 0)
    register_types(client)
    client.policies.set_method_policy("IHolder", "hold", BY_REFERENCE)
    client.start()
    try:
        for name in names:
            measure = measure_layers if args.trace else measure_end_to_end
            attempted, failed, values, units, info = measure(client, name, args.seed, args.seconds)
            print(f"# {name}: seed {args.seed}, loopback {HOST}, "
                  + ", ".join(f"{k} {v:.6g}" for k, v in info.items()))
            for key, value in values.items():
                print(f"{name:>14} {key:<36} {value:>14.6f} {units[key]}")
            if not args.trace:
                print(f"{name:>14} {'fail_ratio':<36} {info['fail_ratio']:>14.6f} ratio")
            print(json.dumps({
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]}
                            for k, v in values.items() if k not in TABLE_ONLY},
            }), flush=True)
    finally:
        client.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
