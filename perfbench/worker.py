"""Runs one workload's items through branchinv and records what it saw.

    python3 -I -S -X pycache_prefix=DIR worker.py MANIFEST RESULTS SECONDS TRACE_PATH STARTS

This process is the one whose memory is reported: it does nothing but load
the program, run the items and write their raw outputs, which `run.py`
checks afterwards.  With an empty TRACE_PATH it makes whole passes over the
corpus until the next one would end past SECONDS (at least one).  Otherwise
it makes one plain pass and one traced pass, and writes the spans to
TRACE_PATH.

Before each pass and after the last it times STARTS fresh interpreters that
import branchinv, so that the set-up samples spread over the whole run
rather than over one moment of a machine whose speed drifts.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import branchinv  # noqa: E402
import branchinv.cli  # noqa: E402
from branchinv.errors import BranchInvError  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402


def run_item(item: dict) -> tuple[int, str]:
    """(exit code, output): the CLI's code and stdout, or 0/1 and a ring summary."""
    if item["path"] == "cli":
        argv = ["analyze", item["branch_file"], "--json"]
        if item["ideal_file"]:
            argv += ["--ideal", item["ideal_file"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = branchinv.cli.main(argv)
        return code, out.getvalue() if code == 0 else err.getvalue()
    try:
        ring = branchinv.analyze(branchinv.BranchSpec.from_strings(item["strings"]),
                                 verify_stability=False)
    except BranchInvError as exc:
        return 1, f"{type(exc).__name__}: {exc}"
    return 0, json.dumps({"gaps": list(ring.gaps), "conductor": ring.conductor_c,
                          "delta": ring.delta, "n": ring.embdim_n, "s": ring.order_s,
                          "gorenstein": ring.gorenstein, "truncation": ring.truncation})


def sample_setup(count: int) -> list[float]:
    """Seconds from spawning an interpreter, started the way this one was,
    until `import branchinv` has returned in it.  The child reads
    CLOCK_MONOTONIC, the clock behind time.perf_counter, which every process
    on the machine shares."""
    cmd = [sys.executable, "-I", "-S", "-X", f"pycache_prefix={sys.pycache_prefix}", "-c",
           f"import sys,time;sys.path.insert(0,{str(HERE.parent / 'src')!r});"
           "import branchinv;print(time.perf_counter())"]
    samples = []
    for _ in range(count):
        t0 = perf_counter()
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=60).stdout
        samples.append(float(out) - t0)
    return samples


def run_pass(items: list[dict], tracer: Tracer | None = None):
    times, outputs = [], []
    start = perf_counter()
    for item in items:
        if tracer is not None:
            tracer.item = item["id"]
        t0 = perf_counter()
        outputs.append(run_item(item))
        times.append(perf_counter() - t0)
    return perf_counter() - start, times, outputs


def main(manifest: str, results: str, seconds: float, trace_path: str, starts: int) -> int:
    items = json.loads(Path(manifest).read_text(encoding="utf-8"))
    setup, runs, layers = [], [], None
    elapsed = 0.0
    while True:
        setup += sample_setup(starts)
        runs.append(run_pass(items))
        wall = runs[-1][0]
        elapsed += wall
        if trace_path or elapsed + wall > seconds:
            break
    setup += sample_setup(starts)
    if trace_path:
        tracer = Tracer()
        tracer.install()
        try:
            runs.append(run_pass(items, tracer))
        finally:
            tracer.uninstall()
        tracer.write_jsonl(trace_path)
        layers = layer_metrics(tracer.spans)
        layers["trace.overhead_s"] = runs[1][0] - runs[0][0]
    first = runs[0][2]
    Path(results).write_text(json.dumps({
        "passes": [{"wall": wall, "times": times, "failed": sum(code != 0 for code, _ in outputs)}
                   for wall, times, outputs in runs],
        "setup": setup,
        "outputs": first,
        "mismatched": sum(a != b for _, _, outputs in runs[1:] for a, b in zip(first, outputs)),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layers,
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4], int(sys.argv[5])))
