"""Command-line interface.

Usage (installed as ``python -m repro``)::

    python -m repro features                 # list the 69 characteristics
    python -m repro suites                   # list the 77 benchmarks
    python -m repro characterize out.npz     # run the pipeline, save it
    python -m repro compare out.npz          # Figures 4/5/6 analyses
    python -m repro phases out.npz SPECint2006 astar   # section 4.2 view
    python -m repro render out.npz figdir/   # Figures 2/3 SVG pages
    python -m repro simulate out.npz SPECint2006 astar # section 5.3 CPI
    python -m repro report run.json          # render a --run-report file
    python -m repro watch events.jsonl       # follow a live event log
    python -m repro runs list                # browse the run-history store
    python -m repro serve state/             # characterization-as-a-service
    python -m repro work state/              # drain the service job queue

Every command prints plain text; figure pages are SVG files.
``--verbose`` raises the library log level (INFO on stderr) instead of
threading print callbacks through the pipeline; ``characterize
--run-report PATH`` additionally records the whole run — span tree,
metrics, config digest — as one JSON document (see
docs/observability.md).

Live telemetry: ``characterize --telemetry PATH|-`` streams ordered
JSONL events (spans, progress/ETA, heartbeats, stage checkpoints,
metric deltas) to a sink while the run executes; ``repro watch PATH``
follows the log and ``repro report --from-events PATH`` reconstructs a
(partial) run report from one — including after a SIGKILL.
``--history-dir DIR`` appends the completed run report to the
run-history store, which ``repro runs list|show|diff`` queries for
cross-run regression detection.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from . import obs
from .config import AnalysisConfig
from .core import characterize_to_file, load_characterization
from .io import ArtifactError, LockTimeout, format_table
from .mica import FEATURES
from .suites import SUITE_ORDER, all_benchmarks, all_suites, get_suite


def _preset(name: str) -> AnalysisConfig:
    presets = {
        "paper": AnalysisConfig.paper,
        "small": AnalysisConfig.small,
        "tiny": AnalysisConfig.tiny,
    }
    if name not in presets:
        raise SystemExit(f"unknown preset {name!r} (choose from {sorted(presets)})")
    return presets[name]()


def _cmd_features(args: argparse.Namespace) -> int:
    rows = [[i + 1, f.name, f.category, f.description] for i, f in enumerate(FEATURES)]
    print(format_table(["#", "name", "category", "description"], rows))
    return 0


def _cmd_suites(args: argparse.Namespace) -> int:
    rows = [
        [b.suite, b.name, b.n_intervals] for b in all_benchmarks()
    ]
    print(format_table(["suite", "benchmark", "intervals"], rows))
    print(f"\n{len(all_suites())} suites, {len(rows)} benchmarks")
    return 0


def _select_benchmarks(suite_names: Optional[List[str]]):
    if not suite_names:
        return all_benchmarks()
    benches = []
    for name in suite_names:
        benches.extend(get_suite(name).benchmarks)
    return benches


def _suite_tag(suite_names: Optional[List[str]]) -> str:
    """A filesystem-safe tag for the benchmark selection."""
    if not suite_names:
        return "all"
    joined = "+".join(sorted(set(suite_names)))
    return re.sub(r"[^A-Za-z0-9._+-]", "_", joined)


def _cmd_characterize(args: argparse.Namespace) -> int:
    config = _preset(args.preset)
    try:
        if args.n_jobs is not None:
            config = config.replace(n_jobs=args.n_jobs)
        if args.parallel_backend is not None:
            config = config.replace(parallel_backend=args.parallel_backend)
        if args.streaming:
            config = config.replace(streaming=True)
        if args.batch_intervals is not None:
            config = config.replace(batch_intervals=args.batch_intervals)
    except ValueError as exc:
        raise SystemExit(f"repro characterize: error: {exc}")
    benches = _select_benchmarks(args.suite)
    feature_cache = None
    if args.feature_cache:
        from .io import FeatureBlockCache

        feature_cache = FeatureBlockCache(args.feature_cache)
    run_id = obs.new_run_id()
    obs.configure_logging(
        level="info" if args.verbose else "warning",
        json_format=args.log_json,
        run_id=run_id,
    )
    if config.streaming:
        return _characterize_streaming(args, config, benches, feature_cache, run_id)
    # Crash safety lives in characterize_to_file: each benchmark's rows
    # land in feature blocks as it finishes, and the analysis and GA
    # stages land atomically in <output>.stages/.  A re-run of a killed
    # invocation featurizes only what is missing; with --resume (the
    # default) it also loads the finished stages, while --no-resume
    # recomputes them but still writes checkpoints, so the *next* run
    # can resume.  Service workers share this exact path.
    print(f"characterizing {len(benches)} benchmarks at preset {args.preset!r}...")
    with _recorded_run(args, config, run_id, len(benches)) as run:
        with run.observing():
            result = characterize_to_file(
                benches,
                config,
                args.output,
                suite_tag=_suite_tag(args.suite),
                resume=args.resume,
                select_key=not args.no_ga,
                feature_cache=feature_cache,
                span_attrs={"preset": args.preset},
            )
        _finish_telemetry(args, run.observation)
    dataset = result.dataset
    print(
        f"saved {args.output}: {len(dataset)} intervals, "
        f"{result.n_components} components "
        f"({100 * result.explained_variance:.1f}% variance), "
        f"{result.clustering.k} clusters, "
        f"{len(result.prominent)} prominent phases "
        f"({100 * result.prominent.coverage:.1f}% coverage)"
    )
    if result.key_characteristics:
        print("key characteristics: " + ", ".join(result.key_characteristics))
    return 0


def _characterize_streaming(
    args: argparse.Namespace, config, benches, feature_cache, run_id: str
) -> int:
    """The ``--streaming`` branch: bounded-memory engine, own artifact.

    Streaming never holds the matrix and writes no stage checkpoints.
    The engine featurizes exactly once and replays every
    later pass from its memory-mapped spool, a per-run temporary
    directory; ``--feature-cache`` carries rows across runs.
    """
    from .analysis import StreamingDriftMonitor
    from .streaming import run_streaming_characterization, save_streaming_result

    print(
        f"characterizing {len(benches)} benchmarks at preset {args.preset!r} "
        f"(streaming, {config.batch_intervals} intervals/batch)..."
    )
    monitor = StreamingDriftMonitor()
    with _recorded_run(args, config, run_id, len(benches)) as run:
        with run.observing():
            with obs.span(
                "characterize.streaming", preset=args.preset, benchmarks=len(benches)
            ):
                result = run_streaming_characterization(
                    benches, config, feature_cache=feature_cache, monitor=monitor
                )
            save_streaming_result(result, args.output)
        _finish_telemetry(args, run.observation)
    print(
        f"saved {args.output}: {len(result)} intervals (streamed), "
        f"{result.n_components} components "
        f"({100 * result.explained_variance:.1f}% variance), "
        f"{result.clustering.k} clusters, "
        f"{len(result.prominent)} prominent phases "
        f"({100 * result.prominent.coverage:.1f}% coverage)"
    )
    print(
        f"sweeps: {result.featurize_sweeps} featurized, "
        f"{result.replay_sweeps} replayed "
        f"({result.spool_bytes / 1e6:.1f} MB spooled)"
    )
    drifts = {k: v for k, v in monitor.drift().items() if v is not None}
    for key, value in sorted(drifts.items()):
        print(f"generation drift {key}: {value:.2f}")
    return 0


def _recorded_run(
    args: argparse.Namespace, config, run_id: str, n_benchmarks: int
) -> "obs.recorded_run":
    """The recording of one ``characterize`` run.

    Observation turns on for any of ``--run-report``, ``--telemetry``
    or ``--history-dir`` (with none, the obs layer stays a no-op; the
    results are bit-identical either way); only ``--telemetry`` writes
    the event log.
    """
    return obs.recorded_run(
        run_id,
        command="characterize",
        config=config,
        events=args.telemetry,
        observe=bool(args.run_report or args.history_dir),
        preset=args.preset,
        benchmarks=n_benchmarks,
    )


def _finish_telemetry(args: argparse.Namespace, observation) -> None:
    """Write the run report and/or append it to the history store."""
    if observation is None or not (args.run_report or args.history_dir):
        return
    doc = obs.build_report(observation)
    if args.run_report:
        path = obs.write_report(args.run_report, doc)
        print(f"run report written to {path}")
    if args.history_dir:
        record = obs.HistoryStore(args.history_dir).append_run(doc)
        print(f"run recorded in history: {record}")


def _cmd_report(args: argparse.Namespace) -> int:
    if args.from_events:
        events, truncated = obs.read_events(args.report)
        if not events:
            print(f"no parseable events in {args.report}", file=sys.stderr)
            return 1
        doc = obs.report_from_events(events, truncated=truncated)
    else:
        doc = obs.load_report(args.report)
    problems = obs.validate_report(doc)
    if problems:
        for problem in problems:
            print(f"invalid run report: {problem}", file=sys.stderr)
        return 1
    if doc.get("dropped_events"):
        print(f"note: partial report: {doc['dropped_events']} worker events were dropped")
    elif doc.get("partial"):
        print("note: partial report reconstructed from an incomplete event log")
    print(obs.render_report(doc, max_children=args.max_spans), end="")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    return obs.watch(args.events, once=args.once, interval=args.interval)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import serve

    obs.configure_logging(
        level="info" if args.verbose else "warning",
        json_format=args.log_json,
    )
    return serve(
        args.root,
        host=args.host,
        port=args.port,
        workers=args.workers,
        default_preset=args.preset,
        poll_interval=args.poll_interval,
    )


def _cmd_work(args: argparse.Namespace) -> int:
    from .service import run_worker

    obs.configure_logging(
        level="info" if args.verbose else "warning",
        json_format=args.log_json,
    )
    return run_worker(
        args.root,
        name=args.name,
        once=args.once,
        poll_interval=args.poll_interval,
        lease_timeout=args.lease_timeout,
    )


def _iso(ts) -> str:
    try:
        return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(float(ts)))
    except (TypeError, ValueError):
        return "-"


def _cmd_runs_list(args: argparse.Namespace) -> int:
    store = obs.HistoryStore(args.history_dir)
    rows = []
    for envelope in store.records():
        wall = ((envelope.get("record") or {}).get("spans") or {}).get("wall_s")
        rows.append(
            [
                envelope.get("seq"),
                envelope.get("run_id") or "-",
                _iso(envelope.get("created")),
                (envelope.get("git_sha") or "-")[:12],
                f"{wall:.2f}s" if isinstance(wall, (int, float)) else "-",
            ]
        )
    if not rows:
        print(f"no records in {store.root}")
        return 0
    print(format_table(["seq", "run", "created", "git", "wall"], rows))
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    store = obs.HistoryStore(args.history_dir)
    envelope = store.get(args.ref)
    if envelope is None:
        print(f"no run record matching {args.ref!r}", file=sys.stderr)
        return 1
    print(
        f"record #{envelope.get('seq')}  {envelope.get('schema')}  "
        f"git {envelope.get('git_sha') or '-'}  {_iso(envelope.get('created'))}"
    )
    print(obs.render_report(envelope["record"]), end="")
    return 0


def _cmd_runs_diff(args: argparse.Namespace) -> int:
    store = obs.HistoryStore(args.history_dir)
    if args.ref_a is None or args.ref_b is None:
        records = store.records()
        if len(records) < 2:
            print(
                f"need two run records to diff ({len(records)} in {store.root})",
                file=sys.stderr,
            )
            return 1
        a, b = records[-2], records[-1]
    else:
        a, b = store.get(args.ref_a), store.get(args.ref_b)
        if a is None or b is None:
            missing = args.ref_a if a is None else args.ref_b
            print(f"no run record matching {missing!r}", file=sys.stderr)
            return 1
    diff = obs.diff_records(
        obs.ledger_row(a["record"]), obs.ledger_row(b["record"]), tolerance=args.tolerance
    )
    print(
        f"history diff: #{a.get('seq')} ({a.get('git_sha') or '-'}) -> "
        f"#{b.get('seq')} ({b.get('git_sha') or '-'})"
    )
    print(obs.render_diff(diff), end="")
    if args.fail_on_regression and diff["flagged"]:
        return 1
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .analysis import (
        clusters_to_cover,
        cumulative_coverage,
        suite_coverage,
        suite_uniqueness,
    )

    result = load_characterization(args.characterization)
    dataset = result.dataset
    suites = [s for s in SUITE_ORDER if s in set(dataset.suite_names())]
    coverage = suite_coverage(dataset, result.clustering, suites=suites)
    uniqueness = suite_uniqueness(dataset, result.clustering, suites=suites)
    curves = cumulative_coverage(dataset, result.clustering, suites=suites)
    rows = [
        [
            s,
            coverage[s],
            clusters_to_cover(curves[s], 0.9),
            f"{100 * uniqueness[s]:.0f}%",
        ]
        for s in suites
    ]
    print(
        format_table(
            ["suite", "clusters touched", "clusters for 90%", "unique"], rows
        )
    )
    return 0


def _cmd_phases(args: argparse.Namespace) -> int:
    from .analysis import benchmark_profile, unique_fraction_of_benchmark

    result = load_characterization(args.characterization)
    profile = benchmark_profile(result, args.suite, args.benchmark)
    rows = [
        [cluster, f"{100 * frac:.1f}%"]
        for cluster, frac in profile.cluster_fractions[: args.top]
    ]
    print(format_table(["cluster", "fraction of benchmark"], rows))
    unique = unique_fraction_of_benchmark(result, args.suite, args.benchmark)
    print(f"\nunique (suite-exclusive) fraction: {100 * unique:.1f}%")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from .viz import render_prominent_phase_pages

    result = load_characterization(args.characterization)
    if not result.key_characteristics:
        raise SystemExit("characterization was built with --no-ga; cannot render kiviats")
    pages = render_prominent_phase_pages(result, Path(args.output_dir))
    for p in pages:
        print(p)
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    from .viz import write_workload_space_map

    result = load_characterization(args.characterization)
    path = write_workload_space_map(result, args.output)
    print(path)
    return 0


def _cmd_subset(args: argparse.Namespace) -> int:
    from .analysis import select_representative_benchmarks

    result = load_characterization(args.characterization)
    selection = select_representative_benchmarks(
        result.dataset, result.clustering, args.count
    )
    rows = [
        [i + 1, key, f"{100 * cov:.1f}%"]
        for i, (key, cov) in enumerate(
            zip(selection.benchmarks, selection.coverage)
        )
    ]
    print(format_table(["pick", "benchmark", "cumulative coverage"], rows))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .analysis import PhaseBasedSimulation
    from .uarch import MachineConfig

    result = load_characterization(args.characterization)
    config = _preset(args.preset)
    machine = MachineConfig(predictor=args.predictor)
    sim = PhaseBasedSimulation(result, config, machine)
    est = sim.benchmark_cpi(args.suite, args.benchmark)
    print(f"phase-based CPI estimate: {est:.3f}")
    if args.full:
        true = sim.true_benchmark_cpi(args.suite, args.benchmark)
        err = abs(est - true) / true
        print(f"full-simulation CPI:      {true:.3f}  (estimate error {100 * err:.1f}%)")
    print(
        f"simulated {sim.simulated_representatives} representatives "
        f"(reduction ~{sim.reduction_factor():.0f}x over the sampled set)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Phase-level microarchitecture-independent workload "
        "characterization (ISPASS 2008 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("features", help="list the 69 characteristics").set_defaults(
        func=_cmd_features
    )
    sub.add_parser("suites", help="list the 77 benchmarks").set_defaults(
        func=_cmd_suites
    )

    p = sub.add_parser("characterize", help="run the pipeline and save it")
    p.add_argument("output", help="output .npz path")
    p.add_argument("--preset", default="small", help="paper | small | tiny")
    p.add_argument(
        "--suite",
        action="append",
        help="restrict to a suite (repeatable); default: all 77 benchmarks",
    )
    p.add_argument("--no-ga", action="store_true", help="skip key-characteristic GA")
    p.add_argument(
        "--verbose",
        action="store_true",
        help="INFO-level progress on stderr (per-benchmark characterization, "
        "per-generation GA lines)",
    )
    p.add_argument(
        "--log-json",
        action="store_true",
        help="emit log lines as run-id-stamped JSON instead of console text",
    )
    p.add_argument(
        "--run-report",
        default=None,
        metavar="PATH",
        help="collect spans/metrics for the run and write the JSON run "
        "report here (render it with 'repro report PATH')",
    )
    p.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="stream ordered JSONL telemetry events (spans, progress/ETA, "
        "heartbeats, stage checkpoints, metric deltas) to PATH while the "
        "run executes ('-' for stdout); follow it live with "
        "'repro watch PATH', reconstruct a report from it with "
        "'repro report --from-events PATH'",
    )
    p.add_argument(
        "--history-dir",
        default=None,
        metavar="DIR",
        help="append the completed run report to the run-history store in "
        "DIR (checksummed, git-SHA-stamped records; query with "
        "'repro runs list|show|diff')",
    )
    p.add_argument(
        "--n-jobs",
        type=int,
        default=None,
        metavar="N",
        help="parallel workers for dataset build and k-means restarts "
        "(-1 = every CPU this process may run on; default: preset value, "
        "serial)",
    )
    p.add_argument(
        "--parallel-backend",
        default=None,
        metavar="{auto,serial,process}",
        help="executor backend for --n-jobs > 1: auto and process fan out "
        "through the fork pool, serial runs in-process (default: auto)",
    )
    p.add_argument(
        "--feature-cache",
        default=None,
        metavar="DIR",
        help="per-benchmark feature-block cache directory, the one "
        "store that carries featurized rows across runs (batch and "
        "--streaming alike); reruns only characterize intervals no "
        "earlier run has touched.  Without it a batch run keeps its "
        "rows in <output>.stages/feature_blocks/, which only a rerun "
        "into the same output reads",
    )
    p.add_argument(
        "--streaming",
        action="store_true",
        help="bounded-memory engine: featurize in batches, incremental "
        "PCA, exact streaming Lloyd.  Approximate (see docs/methodology.md); "
        "the default exact path pins correctness.  Stage checkpoints do "
        "not apply; a per-run feature spool under TMPDIR makes every "
        "pass after the first a zero-copy replay, and --feature-cache "
        "lets a rerun skip featurization",
    )
    p.add_argument(
        "--batch-intervals",
        type=int,
        default=None,
        metavar="N",
        help="intervals per streamed batch (peak working set is O(N); "
        "default: preset value, 256)",
    )
    p.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="resume the analysis and GA stages from the checkpoints in "
        "<output>.stages/ left by a killed or completed run with the "
        "same configuration (--no-resume recomputes them; checkpoints "
        "are still written either way).  Featurized rows always come "
        "from the feature blocks, resume or not.  Results are "
        "bit-identical with or without resume.",
    )
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("compare", help="coverage/diversity/uniqueness per suite")
    p.add_argument("characterization", help="saved .npz from 'characterize'")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("phases", help="one benchmark's cluster distribution")
    p.add_argument("characterization")
    p.add_argument("suite")
    p.add_argument("benchmark")
    p.add_argument("--top", type=int, default=8, help="clusters to show")
    p.set_defaults(func=_cmd_phases)

    p = sub.add_parser("render", help="write the kiviat figure pages (SVG)")
    p.add_argument("characterization")
    p.add_argument("output_dir")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("map", help="write the workload-space scatter map (SVG)")
    p.add_argument("characterization")
    p.add_argument("output", help="output .svg path")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("subset", help="greedy representative-benchmark subset")
    p.add_argument("characterization")
    p.add_argument("--count", type=int, default=10, help="benchmarks to select")
    p.set_defaults(func=_cmd_subset)

    p = sub.add_parser("simulate", help="phase-based CPI of one benchmark")
    p.add_argument("characterization")
    p.add_argument("suite")
    p.add_argument("benchmark")
    p.add_argument("--preset", default="small", help="must match the characterization")
    p.add_argument("--predictor", default="gshare", choices=("gshare", "bimodal"))
    p.add_argument("--full", action="store_true", help="also run full simulation")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="render a characterize --run-report file")
    p.add_argument("report", help="run-report JSON path (or an event log)")
    p.add_argument(
        "--max-spans",
        type=int,
        default=12,
        metavar="N",
        help="sibling spans shown per tree level before eliding",
    )
    p.add_argument(
        "--from-events",
        action="store_true",
        help="treat PATH as a --telemetry event log and fold it into a run "
        "report — the same fold that builds --run-report, so a complete log "
        "gives the same span tree; the truncated log a SIGKILL'd run leaves "
        "behind gives a partial one",
    )
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("watch", help="follow a live --telemetry event log")
    p.add_argument("events", help="event-log path written by --telemetry")
    p.add_argument(
        "--once", action="store_true", help="print one snapshot and exit"
    )
    p.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="refresh period (default 1s)",
    )
    p.set_defaults(func=_cmd_watch)

    p = sub.add_parser(
        "serve", help="run the characterization service (HTTP API + workers)"
    )
    p.add_argument("root", help="service state directory (queue, jobs, artifacts)")
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8760, help="bind port (0 = ephemeral)"
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes to spawn alongside the API (0 = API only; "
        "run workers elsewhere with 'repro work ROOT')",
    )
    p.add_argument(
        "--preset",
        default="tiny",
        help="default preset for submissions that omit one (paper | small | tiny)",
    )
    p.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="worker queue poll period when idle",
    )
    p.add_argument("--verbose", action="store_true", help="INFO-level logs on stderr")
    p.add_argument(
        "--log-json", action="store_true", help="JSON log lines instead of console text"
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("work", help="drain the service job queue in this process")
    p.add_argument("root", help="service state directory (same as 'repro serve')")
    p.add_argument("--name", default=None, help="worker name (default: w<pid>)")
    p.add_argument(
        "--once",
        action="store_true",
        help="drain until the queue is empty, then exit (instead of polling forever)",
    )
    p.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="queue poll period when idle",
    )
    p.add_argument(
        "--lease-timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="age after which a running job with an unverifiable owner "
        "is reclaimed",
    )
    p.add_argument("--verbose", action="store_true", help="INFO-level logs on stderr")
    p.add_argument(
        "--log-json", action="store_true", help="JSON log lines instead of console text"
    )
    p.set_defaults(func=_cmd_work)

    p = sub.add_parser("runs", help="query the run-history store")
    runs_sub = p.add_subparsers(dest="runs_command", required=True)
    for sub_name, sub_help, sub_func in (
        ("list", "list recorded runs", _cmd_runs_list),
        ("show", "render one recorded run", _cmd_runs_show),
        ("diff", "compare two runs and flag regressions and changed values", _cmd_runs_diff),
    ):
        sp = runs_sub.add_parser(sub_name, help=sub_help)
        sp.add_argument(
            "--history-dir",
            default=None,
            metavar="DIR",
            help="history store root (default: $REPRO_HISTORY_DIR or "
            "~/.repro/history)",
        )
        sp.set_defaults(func=sub_func)
        if sub_name == "show":
            sp.add_argument("ref", help="'latest', a sequence number, or a run-id prefix")
        elif sub_name == "diff":
            sp.add_argument(
                "ref_a",
                nargs="?",
                default=None,
                help="older record (default: second-latest)",
            )
            sp.add_argument(
                "ref_b", nargs="?", default=None, help="newer record (default: latest)"
            )
            sp.add_argument(
                "--tolerance",
                type=float,
                default=0.10,
                metavar="FRACTION",
                help="relative growth beyond which a timing or memory value "
                "is flagged as a regression (default 0.10); every other value "
                "is flagged as changed when it differs at all",
            )
            sp.add_argument(
                "--fail-on-regression",
                action="store_true",
                help="exit 1 when any value is flagged (regression or changed)",
            )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArtifactError as exc:
        # A damaged or foreign input file is the user's to replace, not
        # a crash: one line naming it, no traceback.
        hint = "" if isinstance(exc, LockTimeout) else " (regenerate it)"
        print(f"repro: {exc}{hint}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
