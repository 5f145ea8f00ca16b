"""Benchmark entry point: one workload, one seed, timed episodes, checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sudoku-batch --seed 1 --seconds 10 --trace 0

Episodes of the workload run back to back until ``--seconds`` have
passed (at least :data:`MIN_EPISODES`); every figure is the median over
episodes.  A fixed calibration kernel runs after every episode, and the
end-to-end timings are restated at the reference host speed by the
median calibration score of the run (``host.rescale``): the shared host
changes speed by tens of percent over seconds to minutes, and the
program's timings follow it.  With ``--trace 1`` every other episode runs traced and the
run reports the per-layer metrics of the traced episodes plus the trace
overhead instead of the end-to-end metrics.  Human-readable lines come
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, TextIO

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

#: Fewest episodes a run measures, whatever ``--seconds`` says.
MIN_EPISODES = 3
#: Cold imports timed per run for ``setup_s``.
IMPORT_REPEATS = 3


def cold_import_s(modules: Sequence[str]) -> float:
    """Median wall time of a fresh interpreter importing ``modules``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import " + ", ".join(modules)
    timings = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=ROOT)
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def median_of(samples: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def run_benchmark(
    workload: Any, seed: int, seconds: float, trace: bool, workdir: Path
) -> Dict[str, Any]:
    """Run one benchmark; returns the result record (see :func:`main`)."""
    from perfbench.host import (
        REFERENCE_CALIBRATION,
        calibration_score,
        host_info,
        peak_rss_mb,
        rescale,
    )
    from perfbench.trace import Tracer
    from perfbench.workloads import E2E_UNITS, EXTRA_UNITS, LAYER_UNITS, cleanup, digest

    host = host_info()
    inputs = workload.prepare(seed)
    import_s = cold_import_s(workload.modules)
    spill = workdir / "spans"
    spill.mkdir(parents=True, exist_ok=True)

    setups: List[float] = []
    walls: List[float] = []
    traced_walls: List[float] = []
    calibrations: List[float] = []
    samples: List[Dict[str, float]] = []
    layer_samples: List[Dict[str, float]] = []
    failures: List[str] = []
    attempted = 0
    first: Optional[Any] = None
    last_spans: list = []
    minimum = 2 * MIN_EPISODES if trace else MIN_EPISODES
    deadline = time.perf_counter() + seconds
    episode_index = 0
    while episode_index < minimum or time.perf_counter() < deadline:
        traced = trace and episode_index % 2 == 1
        tracer = Tracer(spill) if traced else None
        episode_dir = workdir / f"episode-{episode_index}"
        episode_dir.mkdir(parents=True, exist_ok=True)
        with tracer.installed() if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            ctx = workload.setup(inputs, episode_dir)
            setup = time.perf_counter() - start
            episode = workload.run(ctx, tracer)
        attempted += int(episode.figures["ops"])
        failures.extend(f"episode {episode_index}: {message}" for message in episode.refused)
        fingerprint = digest(episode.outputs)
        if first is None:
            first = (fingerprint, episode)
        elif fingerprint != first[0]:
            failures.append(f"episode {episode_index} outputs differ from episode 0")
        if tracer is not None:
            tracer.collect_worker_spans()
            traced_walls.append(episode.wall)
            layer_samples.append(workload.layer_metrics(episode, tracer.spans))
            last_spans = tracer.spans
        else:
            setups.append(setup)
            walls.append(episode.wall)
            samples.append(workload.metrics(episode))
        del episode, ctx, tracer
        cleanup(episode_dir)
        calibrations.append(calibration_score(repeats=1))
        episode_index += 1

    rss = peak_rss_mb()
    # Episode 0 against independent references, after the timed loop.
    assert first is not None
    checked, problems = workload.check(inputs, first[1])
    attempted += checked
    failures.extend(problems)
    notes = workload.notes(first[1])

    figures = median_of(samples)
    raw = {
        "setup_s": import_s + statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": rss,
        "neuron_updates_per_s": figures.pop("neuron_updates_per_s"),
    }
    speed = statistics.median(calibrations) / REFERENCE_CALIBRATION
    e2e = {k: rescale(v, E2E_UNITS[k], speed) for k, v in raw.items()}
    extra = {"error_rate": len(failures) / attempted}
    extra.update({k: rescale(v, EXTRA_UNITS[k], speed) for k, v in figures.items()})
    layers: Dict[str, float] = {}
    if trace:
        # Layers this workload never enters read 0: every name is emitted.
        measured = median_of(layer_samples)
        measured["trace.overhead"] = statistics.median(traced_walls) / statistics.median(walls)
        layers = {name: measured.get(name, 0.0) for name in LAYER_UNITS}
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "episodes": episode_index,
        "host": host,
        "import_s": import_s,
        "episode_walls": walls,
        "episode_setups": setups,
        "episode_calibrations": calibrations,
        "host_speed": speed,
        "raw_end_to_end": raw,
        "end_to_end": e2e,
        "extra": extra,
        "per_layer": layers,
        "attempted": attempted,
        "failures": failures,
        "notes": notes,
        "spans": last_spans,
    }


def report(record: Dict[str, Any], out: Optional[TextIO] = None) -> Dict[str, Any]:
    """Print the human-readable lines; return the final JSON object."""
    from perfbench.workloads import E2E_UNITS, EXTRA_UNITS, LAYER_UNITS

    out = out if out is not None else sys.stdout
    print(
        f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"episodes={record['episodes']}",
        file=out,
    )
    print("host " + json.dumps(record["host"], sort_keys=True), file=out)
    drift = record["episode_calibrations"]
    print(
        f"host calibration during the run: min {min(drift):.3f} median "
        f"{statistics.median(drift):.3f} max {max(drift):.3f} per s; timings below are "
        f"restated at the reference speed (x{record['host_speed']:.4f})",
        file=out,
    )
    if not record["trace"]:
        print("raw " + json.dumps(record["raw_end_to_end"], sort_keys=True), file=out)
    if record["trace"]:
        shown = [(k, v, LAYER_UNITS[k]) for k, v in record["per_layer"].items()]
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in record["per_layer"].items()}
    else:
        shown = [(k, v, E2E_UNITS[k]) for k, v in record["end_to_end"].items()]
        shown += [(k, v, EXTRA_UNITS[k]) for k, v in record["extra"].items()]
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in record["end_to_end"].items()}
    for name, value, unit in shown:
        print(f"  {name:28s} {value:16.6g} {unit}", file=out)
    for line in record["notes"]:
        print(line, file=out)
    for message in record["failures"]:
        print(f"FAILED: {message}", file=out)
    failed = len(record["failures"])
    return {
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def write_record(record: Dict[str, Any], workdir: Path) -> None:
    """Keep the result (with host and spans) under ``.perfbench/``."""
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans")
    with open(workdir.parent / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if spans:
        with open(workdir.parent / f"{stem}.spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS, cleanup

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    workdir = WORKDIR / f"run-{os.getpid()}"
    try:
        record = run_benchmark(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        cleanup(workdir)
    result = report(record)
    write_record(record, workdir)
    for message in record["failures"]:
        print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
