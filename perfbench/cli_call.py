"""``python3 -m hyperseq ARGV``, then the process's peak RSS and speed.

    python3 perfbench/cli_call.py ARGV...

Same stdout and exit code as ``python3 -m hyperseq ARGV``.  After the
command, it measures the host speed (``reference.py``).  Its last stderr
line is ``peak_rss_kb N speed F spent_s T``.  N is the kernel's VmHWM for
this process.  ``ru_maxrss`` would not do: after vfork and exec it still
counts the parent's pages, so it would report the benchmark's own size.
The parent takes the T seconds spent measuring the speed out of the
call's wall time, and scales the rest by F.
"""

import runpy
import sys

from reference import speed


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    try:
        runpy.run_module("hyperseq", run_name="__main__", alter_sys=True)
    finally:
        rss = peak_rss_kb()
        factor, spent = speed()
        sys.stderr.write(f"\npeak_rss_kb {rss} speed {factor!r} spent_s {spent!r}\n")
