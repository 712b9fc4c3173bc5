"""Run one fednaslab stage in this fresh interpreter and record it.

Usage: python3 perfbench/stage.py RECORD.json TRACE -- <fednaslab arguments>

The launcher notes the clock just before it starts this process. Here the
clock is read on entry into `fednaslab.cli.main` and on its return, so the
launcher can split the process into set-up (interpreter start and imports)
and stage time. Optimizer steps are always counted; with TRACE 1 every
layer boundary in `spans.TRACE_TARGETS` records a span as well. Spans stay
in memory; when the stage has returned, their per-layer summary is written
to RECORD.json with the timings.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv: list[str]) -> int:
    record_path, trace = argv[0], argv[1] == "1"
    cli_args = argv[argv.index("--") + 1:]
    import click

    import fednaslab.cli
    import spans

    recorder = spans.Recorder()
    recorder.install(spans.TRACE_TARGETS if trace else spans.STEP_TARGETS)
    stage = cli_args[0]

    def call_main():
        return fednaslab.cli.main.main(args=cli_args, prog_name="fednaslab",
                                       standalone_mode=False)

    exit_code = 0
    cpu_enter = time.process_time()
    t_enter = time.monotonic()
    try:
        if trace:
            recorder.wrap(f"cli.{stage}", call_main)()
        else:
            call_main()
    except SystemExit as exc:
        # sys.exit() and sys.exit(None) mean success, like the interpreter
        exit_code = (0 if exc.code is None
                     else exc.code if isinstance(exc.code, int) else 1)
    except click.ClickException as exc:
        exc.show()
        exit_code = exc.exit_code
    t_exit = time.monotonic()
    cpu_exit = time.process_time()
    names = [s[0] for s in recorder.spans]
    record = {
        "exit_code": exit_code,
        "t_enter": t_enter,
        "t_exit": t_exit,
        "cpu_s": cpu_exit - cpu_enter,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "optimizer_steps": (names.count("nn.model.apply_update")
                            + names.count("nn.model.Adam.step")),
        "missing_targets": recorder.missing,
        "summary": spans.summarize(recorder.spans) if trace else None,
    }
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
