"""One workload process.

Usage: ``python3 benchmark/child.py SPEC.json`` (run.py writes the spec).
The process times the import of ``qcausal`` and its CLI module, then does
the spec's work in-process, as the ``qcausal`` console script would:

* ``cli``: one ``qcausal.cli.main(argv)`` call; the exit code is its result;
* ``docs``: ``main(["classify", path, "--out", out, ...])`` over a corpus,
  recording each call's exit code, its standard error and any exception;
* ``probe``: nothing after the import (a set-up time sample).

It writes its timings to ``spec["timing_out"]`` and, when ``spec["trace"]``
is set, the spans of every call into the program to ``spec["spans_out"]``.
"""

import contextlib
import io
import json
import sys
import time


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    import qcausal
    import qcausal.cli

    setup_s = time.perf_counter() - t0
    import spans  # after the timed import, so that it does not shift setup_s

    if not qcausal.__file__.startswith(spec["package_dir"]):
        print(f"qcausal was imported from {qcausal.__file__}, not the checkout", file=sys.stderr)
        return 90
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        tracer.install()
    code, docs = 0, []
    w0 = time.perf_counter()
    if spec["mode"] == "cli":
        code = qcausal.cli.main(spec["argv"])
    elif spec["mode"] == "docs":
        for path, out in spec["docs"]:
            err = io.StringIO()
            crash = None
            with contextlib.redirect_stderr(err):
                try:
                    rc = qcausal.cli.main(["classify", path, "--out", out, *spec["extra"]])
                except Exception as exc:  # a crash is an operation's outcome, recorded
                    rc, crash = None, f"{type(exc).__name__}: {exc}"
            docs.append({"exit": rc, "stderr": err.getvalue(), "crash": crash})
    work_s = time.perf_counter() - w0
    timing = {"setup_s": setup_s, "work_s": work_s, "docs": docs, "vm_hwm_kb": spans.vm_hwm_kb()}
    with open(spec["timing_out"], "w", encoding="utf-8") as fh:
        json.dump(timing, fh)
    if tracer is not None:
        tracer.dump(spec["spans_out"])
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
