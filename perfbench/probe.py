"""Entry point of the benchmark's child interpreters.

    probe.py setup WORKLOAD SCRATCH_DIR
        import vodgame and run the workload's set-up operation
    probe.py cli SPANS_PATH OP_ID ARGS...
        run ``vodgame.cli.main(ARGS)`` with spans recorded, and write
        them to SPANS_PATH when the command ends

Both expect ``src`` on PYTHONPATH, as the parent sets it.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 3:
        from workloads import setup_operation

        setup_operation(argv[1], argv[2])
        return 0
    if argv[:1] == ["cli"] and len(argv) >= 3:
        import vodgame.cli

        import tracer

        spans_path, op_id, args = argv[1], int(argv[2]), argv[3:]
        t = tracer.Tracer()
        t.op_id = op_id
        t.install()
        try:
            return vodgame.cli.main(args)
        finally:
            t.uninstall()
            tracer.save(spans_path, t.arrays())
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
