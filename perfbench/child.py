"""One measured process of the benchmark, started fresh by run.py.

    child.py setup REPORT CONFIG       time `import execfees.cli` + load_config
    child.py cli   REPORT -- ARGV...   execfees.cli.main(ARGV), untraced
    child.py trace REPORT -- ARGV...   the same, with spans (tracer.py)
    child.py probe REPORT              kernel microbenchmarks (probes.py)

Every mode writes a JSON report to REPORT when it ends, including the peak
resident memory of this process, and exits with the CLI's exit code.
"""
import json
import os
import resource
import sys
import time
import warnings
from collections import Counter


def _count_warnings(counts: Counter):
    """Count every warning by module, category and text instead of printing it."""
    def show(message, category, filename, lineno, file=None, line=None):
        module = os.path.splitext(os.path.basename(filename))[0]
        counts[f"{module}:{category.__name__}:{message}"] += 1
    warnings.simplefilter("always")
    warnings.showwarning = show


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv) -> int:
    mode, report_path = argv[0], argv[1]
    report, rc = {}, 0
    if mode == "setup":
        t0 = time.perf_counter()
        import execfees.cli  # noqa: F401
        from execfees.config import load_config
        load_config(argv[2])
        report["setup_s"] = time.perf_counter() - t0
        report["versions"] = _versions()
    elif mode in ("cli", "trace"):
        cli_argv = argv[argv.index("--") + 1:]
        counts = Counter()
        with warnings.catch_warnings():
            _count_warnings(counts)
            tracer = None
            if mode == "trace":
                from tracer import Tracer
                tracer = Tracer()
                tracer.install()
            import execfees.cli
            rc = execfees.cli.main(cli_argv)
        report["warnings"] = dict(counts)
        if tracer is not None:
            report["spans"] = tracer.spans
            report["not_traced"] = tracer.absent
    elif mode == "probe":
        import probes
        report["probes"], report["absent"] = probes.run()
        report["versions"] = _versions()
    else:
        raise SystemExit(f"child.py: unknown mode {mode!r}")
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
