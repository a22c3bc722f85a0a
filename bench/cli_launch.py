"""Run one dimwalk command the way the ``cli`` workload does.

    python3 bench/cli_launch.py PEAK_FILE SPAN_FILE|- COMMAND [ARGS ...]

Calls ``dimwalk.cli.main`` and then writes the process's own peak resident
memory (VmHWM, in kB) to PEAK_FILE. The rusage of a child started with vfork
also counts the parent's pages, so it cannot give a command's own peak.
With a SPAN_FILE, the same wrappers as in the in-process traced runs are
installed first and the spans are written there when the command returns.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _peak_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    peak_file, span_file, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    rec = None
    if span_file != "-":
        import spans

        rec = spans.Recorder()
        spans.install(rec)
    from dimwalk import cli

    try:
        return cli.main(argv)
    finally:
        if rec is not None:
            rec.dump(span_file)
        Path(peak_file).write_text(str(_peak_kb()), encoding="ascii")


if __name__ == "__main__":
    raise SystemExit(main())
