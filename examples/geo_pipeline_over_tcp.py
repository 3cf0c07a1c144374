"""The entire Chariots deployment over real sockets.

Unlike ``examples/tcp_deployment.py`` (which serves FLStore components over
TCP), this runs the *whole geo-replicated pipeline* — batchers, filters, the
queue token, log maintainers, replication senders/receivers, head-of-log
gossip — with every single message serialised through the binary codec
and routed across a localhost TCP connection, in real time.

Run:  python examples/geo_pipeline_over_tcp.py
"""

from repro.chariots import ChariotsDeployment
from repro.net.aio_runtime import AioRuntime


def main() -> None:
    runtime = AioRuntime()
    deployment = ChariotsDeployment(runtime, ["tokyo", "dublin"], batch_size=50)
    try:
        tokyo = deployment.client("tokyo")
        dublin = deployment.client("dublin")

        acks = []
        for i in range(5):
            tokyo.append(f"order-{i} placed", tags={"order": i}, on_done=acks.append)
        dublin.append("inventory sync", on_done=acks.append)

        runtime.run_until(lambda: len(acks) == 6, timeout=15)
        ok = deployment.settle(max_seconds=15)
        print(f"converged over TCP: {ok}")
        print(f"frames routed through the socket: {runtime.messages_routed} "
              f"({runtime.bytes_routed} bytes)")
        print()
        for dc in ("tokyo", "dublin"):
            pipe = deployment[dc]
            print(f"{dc}: {pipe.total_records()} records, "
                  f"head of log {pipe.head_of_log()}, frontier {pipe.frontier()}")
        print()
        print("dublin's log (every record travelled through batcher → filter")
        print("→ queue token → store, then sender → receiver, all over TCP):")
        for entry in deployment["dublin"].all_entries():
            print(f"  [{entry.lid}] {entry.rid} {entry.record.body!r}")
    finally:
        runtime.stop()


if __name__ == "__main__":
    main()
