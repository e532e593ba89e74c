"""`python -m weldnet ARGS` between two timings of the host-speed kernel.

    python3 perfbench/cli_child.py REPORT_JSON ROWS,WIDTH,DEPTH,ITERATIONS ARGS...

Runs the weldnet module as __main__ in this process, as `python -m weldnet`
does, and exits with its exit code; the kernel's timings go to REPORT_JSON
(see hostspeed.run_between).
"""

import runpy
import sys

import hostspeed


def command(args) -> int:
    sys.argv = ["weldnet", *args]
    try:
        runpy.run_module("weldnet", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return exc.code
    return 0


if __name__ == "__main__":
    report, spec, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    kernel = hostspeed.Kernel(*(int(v) for v in spec.split(",")))
    sys.exit(hostspeed.run_between(kernel, lambda: command(args), report))
