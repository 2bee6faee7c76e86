"""Child processes of the benchmark, started by run.py with src/ on PYTHONPATH.

    python3 perfbench/child.py import
        Time `import kooplift` in this fresh interpreter; print {"import_s": ...}.
    python3 perfbench/child.py cli SPANS_JSON ARGV...
        Run `kooplift ARGV...` with the tracing wrappers installed and write
        the spans to SPANS_JSON; exits with the command's exit code.
"""

import json
import sys
import time


def main():
    if sys.argv[1] == "import":
        t0 = time.perf_counter()
        import kooplift  # noqa: F401

        print(json.dumps({"import_s": time.perf_counter() - t0}))
        return 0

    from tracing import Tracer

    spans_path, argv = sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    idx = tracer.open("cli.import")
    import kooplift.cli

    tracer.close(idx)
    tracer.install()
    tracer.enabled = True
    idx = tracer.open("cli.main")
    try:
        return kooplift.cli.main(argv)
    finally:
        tracer.close(idx)
        tracer.enabled = False
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
