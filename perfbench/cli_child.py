"""One ``afcsim`` command-line run in a fresh process.

    python3 perfbench/cli_child.py -- ARGS...                 # as the afcsim script
    python3 perfbench/cli_child.py --trace-out FILE -- ARGS...  # traced
    python3 perfbench/cli_child.py --import-only              # time the import

Untraced, this does exactly what the installed ``afcsim`` console
script does.  Traced, it wraps the package with :class:`tracer.Tracer`
and writes the spans to ``FILE`` on exit.  ``--import-only`` prints the
seconds a fresh ``import afcsim.cli`` takes.
"""

from __future__ import annotations

import sys
import time


def main(argv: list[str]) -> int:
    if argv == ["--import-only"]:
        start = time.perf_counter()
        import afcsim.cli  # noqa: F401

        print(repr(time.perf_counter() - start))
        return 0
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if trace_out is None:
        from afcsim.cli import main as cli_main

        return cli_main(argv)

    import afcsim.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return afcsim.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
