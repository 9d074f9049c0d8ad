"""Traced daemon bootstrap: install the span wrappers, then serve.

    python -m e2ebench.traced_serve --trace-out spans.json --party broker \
        --dir D --name broker --state-dir S --store-backend sqlite

Everything after ``--party`` is handed to the program's own CLI as
``repro serve ...``, which calls :func:`repro.daemon.service.serve`; the
traced daemon thus loads the same modules as an untraced one. The
process's spans are written to ``--trace-out`` after ``admin/shutdown``.
"""

from __future__ import annotations

import argparse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="traced_serve")
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--party", required=True)
    args, serve_args = parser.parse_known_args(argv)

    from e2ebench.tracing import Recorder, install_server

    recorder = Recorder(args.party)
    install_server(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        recorder.dump(args.trace_out)


if __name__ == "__main__":
    raise SystemExit(main())
