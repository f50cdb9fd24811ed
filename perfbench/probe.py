"""One fresh-interpreter set-up, for ``setup_s``.

Usage: ``python3 probe.py <workload> <store-dir>`` with the program's
``src`` on ``PYTHONPATH``.  Does what a user's process does before its
first op can be issued: import the CLI and the workload's modules, open
the result store and, for ``replay-serve``, start the sweep service and
its HTTP listener.  It then prints one JSON line with its own phase
times and shuts down; the parent times spawn-to-line from outside.
"""

import json
import sys
import time


def main() -> int:
    workload, directory = sys.argv[1], sys.argv[2]
    started = time.perf_counter()
    import repro.cli  # noqa: F401 - the user's entry point

    cli_done = time.perf_counter()
    from repro.exp import ResultStore

    if workload == "hunt-epoch":
        import repro.attacks.hunt  # noqa: F401
    service = server = thread = None
    if workload == "replay-serve":
        import threading

        from repro.serve import client  # noqa: F401
        from repro.serve.http import SweepHTTPServer
        from repro.serve.service import SweepService
    imports_done = time.perf_counter()
    store = ResultStore(directory)
    opened = time.perf_counter()
    if workload == "replay-serve":
        service = SweepService(cache_dir=directory, workers=1)
        server = SweepHTTPServer(("127.0.0.1", 0), service)
        service.start()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
    ready = time.perf_counter()
    print(json.dumps({
        "cli_import_s": cli_done - started,
        "import_s": imports_done - started,
        "store_open_s": opened - imports_done,
        "store_rows": len(store),
        "service_start_s": ready - opened,
    }), flush=True)
    if service is not None:
        service.stop(timeout=30)
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
    return 0


if __name__ == "__main__":
    sys.exit(main())
