"""Server process of the benchmark: one refbus Node on 127.0.0.1.

Usage: python3 bench/server.py <workload>

Deploys the workload's component, prints ``ready <port>`` and then
answers commands read from stdin, one JSON line each, so that measuring
never adds refbus traffic:

    cpu     CPU seconds this process has used
    trace   start tracing (wraps refbus functions, see tracer.py)
    report  CPU seconds, peak RSS, deployments, and the trace summary
    quit    stop the node and exit (end of stdin does the same)
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from refbus import Node  # noqa: E402

from model import deploy_server, register_types  # noqa: E402

# Lets handler threads that already sent their reply close their spans.
SETTLE_S = 0.1


def cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(workload: str) -> int:
    node = Node("127.0.0.1", 0)
    register_types(node)
    node.start()
    tracer = None
    try:
        deploy_server(node, workload)
        print(f"ready {node.port}", flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "quit":
                break
            if command == "cpu":
                reply = {"cpu_s": cpu_s()}
            elif command == "trace":
                from tracer import Tracer

                tracer = Tracer()
                tracer.install()
                reply = {"ok": True}
            elif command == "report":
                time.sleep(SETTLE_S)
                reply = {
                    "cpu_s": cpu_s(),
                    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    "deployments": len(node.table.deployments()),
                    "trace": tracer.summary() if tracer is not None else None,
                }
            else:
                reply = {"error": f"unknown command {command!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        if tracer is not None:
            tracer.uninstall()
        node.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
