"""gscomm benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload {train,link_clean,link_noisy} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root. `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer metrics of a separate traced run (and writes its
spans to `.bench_out/`). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Messages about failed checks go to standard error.
"""

from __future__ import annotations

import os

# One closed-loop caller on one BLAS thread: the models' matrices are tiny, and
# a single thread keeps run-to-run spread low.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_program():
    """Import gscomm from this checkout's sources, and from nowhere else."""
    if not (SRC / "gscomm" / "__init__.py").is_file():
        sys.exit(f"gscomm sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import gscomm

    if Path(gscomm.__file__).resolve().parent != SRC / "gscomm":
        sys.exit(f"imported gscomm from {gscomm.__file__}, not from {SRC}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "link_clean", "link_noisy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the smoke test; figures are not comparable")
    args = parser.parse_args(argv)
    _import_program()
    import harness

    sizes = harness.TINY if args.tiny else harness.FULL
    fail = harness.Failures()
    bench, setup_s = harness.timed_set_up(args.workload, args.seed, sizes, fail)
    harness.verify(bench, args.seed, fail)
    if args.trace:
        trace, attempted, failed = harness.traced_run(bench, args.seed, args.seconds, sizes, fail)
        metrics = harness.per_layer(trace)
        if not args.tiny:
            for name in harness.metric_names()[1]:
                fail.check(name in metrics, f"the traced run took no sample of {name}")
        _write_spans(trace, args.workload, args.seed)
    else:
        durations, attempted, failed = harness.measure(bench, args.seconds, fail)
        metrics = harness.end_to_end(durations, len(bench.batches or bench.ops), setup_s)
    for note in bench.screened:
        print("redrawn after a receiver fault in set-up:", note, file=sys.stderr)
    for message in fail:
        print("CHECK FAILED:", message, file=sys.stderr)
    print(json.dumps({
        "correct": not fail,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def _write_spans(trace, workload, seed):
    out = HERE.parent / ".bench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{workload}-{seed}.jsonl", "w") as fh:
        for op, name, start, end in trace.spans:
            fh.write(json.dumps({"op": op, "name": name, "start_ns": start, "end_ns": end})
                     + "\n")


if __name__ == "__main__":
    main()
