"""Command-line interface: regenerate the paper's experiments.

Examples
--------
Every figure at paper scale (3000 jobs), with the verdict of each §5
claim; the exit status is 1 iff a claim fails::

    python -m repro figures --processes 2

Figure 1 only, with a smaller workload, as ASCII charts::

    python -m repro figures --only 1 --jobs 600 --format chart

EXPERIMENTS.md, and the same run saved as a JSON record::

    python -m repro figures --processes 2 --format markdown > EXPERIMENTS.md
    python -m repro figures --processes 2 --format json > record.json

Single scenario, trace estimates, CSV of the headline metrics::

    python -m repro run --policy librarisk --estimate-mode trace

Workload statistics the paper reports in §4::

    python -m repro trace-stats
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from repro.obs.log import LOG_LEVELS, configure_logging
from repro.scheduling.registry import available_policies

if TYPE_CHECKING:
    from repro.experiments.config import ScenarioConfig
    from repro.obs.session import RunSink


def _package_version() -> str:
    """Installed distribution version, falling back to the source tree's."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # PackageNotFoundError or exotic environments
        from repro import __version__

        return __version__


class _VersionAction(argparse.Action):
    """``--version``, looking the version up only when the flag is given."""

    def __init__(self, option_strings: Sequence[str], dest: str) -> None:
        super().__init__(option_strings, dest, nargs=0, default=argparse.SUPPRESS,
                         help="show program's version number and exit")

    def __call__(self, parser: argparse.ArgumentParser, namespace: argparse.Namespace,
                 values: object, option_string: Optional[str] = None) -> None:
        print(f"{parser.prog} {_package_version()}")
        parser.exit()


def _base_config(args: argparse.Namespace) -> ScenarioConfig:
    from repro.experiments.config import ScenarioConfig

    return ScenarioConfig(
        num_jobs=args.jobs,
        num_nodes=args.nodes,
        seed=args.seed,
        trace_path=args.trace,
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=3000, help="number of jobs (default 3000)")
    parser.add_argument("--nodes", type=int, default=128, help="cluster size (default 128)")
    parser.add_argument("--seed", type=int, default=42, help="root random seed")
    parser.add_argument(
        "--trace", type=str, default=None,
        help="path to a real SWF trace (default: calibrated synthetic workload)",
    )


def _progress_printer(verbose: bool):
    if not verbose:
        return None

    def emit(msg: str) -> None:
        print(f"  [run] {msg}", file=sys.stderr)

    return emit


def _add_obs(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by the simulation-running commands."""
    parser.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="write a JSON-lines metrics/decision log for every run to PATH",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="collect wall-time profiling (events/sec, admission-test time, "
             "heap depth); appends a profile record to the metrics log",
    )
    # Also accepted after the subcommand for convenience; SUPPRESS keeps the
    # subparser from clobbering a value parsed at the top level.
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )


def _obs_sink(args: argparse.Namespace) -> RunSink:
    """A RunSink for multi-run commands (inactive when no flag was given)."""
    metrics_out = getattr(args, "metrics_out", None)
    profile = getattr(args, "profile", False)
    if metrics_out is None and not profile:
        # A pathless, profile-less sink still observes runs; avoid that
        # overhead (and record retention) when nothing was asked for.
        class _NullSink:
            runs = 0
            records: list = []

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

        return _NullSink()  # type: ignore[return-value]
    from repro.obs.session import RunSink

    if getattr(args, "processes", 1) > 1:
        print(
            "warning: --metrics-out/--profile only capture in-process runs; "
            "ignoring --processes and running sequentially",
            file=sys.stderr,
        )
        args.processes = 1
    return RunSink(path=metrics_out, profile=profile)


def _report_sink(args: argparse.Namespace, sink, file=None) -> None:
    """Tell the user what a multi-run sink captured (if anything)."""
    if getattr(args, "metrics_out", None) and sink.runs:
        print(f"\nwrote metrics for {sink.runs} runs to {args.metrics_out}", file=file)
    if getattr(args, "profile", False) and getattr(sink, "sessions", None):
        wall = sum(
            s.profiler.phase_wall.get("run", 0.0)
            for s in sink.sessions if s.profiler is not None
        )
        events = sum(
            s.profiler.run_events for s in sink.sessions if s.profiler is not None
        )
        rate = events / wall if wall > 0 else 0.0
        print(
            f"profile: {sink.runs} runs, {events} kernel events in "
            f"{wall:.2f}s simulation wall time ({rate:,.0f} events/s)",
            file=file,
        )


def build_parser() -> argparse.ArgumentParser:
    from repro.analysis.lint import cli as lint_cli

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Yeo & Buyya (ICPP 2006): EDF vs Libra vs LibraRisk",
        epilog=(
            "Static analysis: `repro lint src/` runs the determinism & "
            "concurrency analyzer (`repro lint --list-rules` prints its "
            "rules); see docs/STATIC_ANALYSIS.md for the catalog."
        ),
    )
    parser.add_argument("--version", action=_VersionAction)
    parser.add_argument(
        "--log-level", default="warning", choices=LOG_LEVELS,
        help="logging threshold for the repro.* loggers (default: warning)",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser(
        "figures",
        help="regenerate the paper's figures and check its §5 claims "
             "(exit 1 iff a claim fails)",
    )
    _add_common(p)
    _add_obs(p)
    p.add_argument("--only", nargs="+", default=["1", "2", "3", "4"],
                   choices=["1", "2", "3", "4"], help="figures to regenerate")
    p.add_argument("--format", default="table",
                   choices=("table", "csv", "chart", "json", "markdown"),
                   help="table: series tables (default); csv; chart: ASCII "
                        "charts; json: the canonical record; markdown: "
                        "EXPERIMENTS.md")
    p.add_argument("--verbose", action="store_true", help="print per-run progress")
    p.add_argument("--processes", type=int, default=1,
                   help="worker processes for the sweeps (1 = sequential)")

    p = sub.add_parser("run", help="run a single scenario")
    _add_common(p)
    _add_obs(p)
    p.add_argument("--policy", default="librarisk", choices=available_policies())
    p.add_argument("--estimate-mode", default="trace",
                   choices=("accurate", "trace", "inaccuracy"))
    p.add_argument("--inaccuracy", type=float, default=100.0)
    p.add_argument("--arrival-delay-factor", type=float, default=1.0)
    p.add_argument("--high-urgency", type=float, default=20.0,
                   help="%% of high urgency jobs")
    p.add_argument("--deadline-ratio", type=float, default=4.0)
    p.add_argument(
        "--prom-out", type=str, default=None, metavar="PATH",
        help="write the final metrics registry in Prometheus text format",
    )

    p = sub.add_parser("compare", help="all policies on one scenario")
    _add_common(p)
    _add_obs(p)
    p.add_argument("--estimate-mode", default="trace",
                   choices=("accurate", "trace", "inaccuracy"))

    p = sub.add_parser(
        "inspect", help="replay a JSON-lines metrics log written by --metrics-out",
    )
    p.add_argument("log", type=str, help="path to the .jsonl metrics log")
    p.add_argument(
        "--mode", default="report",
        choices=("report", "prom", "decisions", "transitions", "cache", "windows"),
        help="report: human summary; prom: Prometheus text of the final "
             "registry; decisions/transitions: dump those records; "
             "cache: admission fast-path counters from profile records; "
             "windows: trailing-window loss ratio and rejection reasons "
             "per policy at the last decision instant",
    )
    p.add_argument("--policy", type=str, default=None,
                   help="filter decision output to one policy")
    p.add_argument("--window", type=float, default=3600.0, metavar="SECONDS",
                   help="trailing-window size for --mode windows "
                        "(simulated seconds, default 3600)")
    p.add_argument(
        "--cache-stats", action="store_true",
        help="shorthand for --mode cache: admission fast-path counters "
             "(nodes refused without a ledger sync, exact projections "
             "run, tombstones)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit decisions/transitions as canonical JSON lines "
             "instead of aligned text",
    )

    p = sub.add_parser("trace-stats", help="workload statistics (paper §4)")
    _add_common(p)

    p = sub.add_parser("ablations", help="run the design-choice ablations")
    _add_common(p)

    p = sub.add_parser("replicate", help="multi-seed comparison with confidence intervals")
    _add_common(p)
    p.add_argument("--estimate-mode", default="trace",
                   choices=("accurate", "trace", "inaccuracy"))
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    p.add_argument("--policies", nargs="+", default=["edf", "libra", "librarisk"],
                   choices=available_policies())
    p.add_argument("--metric", default="pct_deadlines_fulfilled")

    p = sub.add_parser("sensitivity", help="one-factor-at-a-time sensitivity analysis")
    _add_common(p)
    p.add_argument("--policy", default="librarisk", choices=available_policies())
    p.add_argument("--metric", default="pct_deadlines_fulfilled")

    p = sub.add_parser("robustness", help="deadline fulfilment under node failures")
    _add_common(p)

    p = sub.add_parser(
        "serve", help="run the online admission-control HTTP service",
    )
    p.add_argument("--policy", default="librarisk", choices=available_policies())
    p.add_argument("--nodes", type=int, default=128, help="cluster size (default 128)")
    p.add_argument("--rating", type=float, default=168.0,
                   help="per-node MIPS rating (default 168, SDSC SP2)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8331,
                   help="listen port (0 = pick an ephemeral port)")
    p.add_argument("--max-request-bytes", type=int, default=64 * 1024,
                   help="reject request bodies larger than this (413)")
    p.add_argument("--max-inflight", type=int, default=64,
                   help="shed requests beyond this many in flight (503)")
    p.add_argument("--live", action="store_true",
                   help="wall-clock mode: simulated time tracks real time "
                        "(default: virtual, workload-driven time)")
    p.add_argument("--speedup", type=float, default=1.0,
                   help="simulated seconds per wall second in --live mode")
    p.add_argument("--restore", type=str, default=None, metavar="PATH",
                   help="resume from an engine checkpoint written by "
                        "`repro serve --checkpoint-on-exit` or the "
                        "checkpoint RPC")
    p.add_argument("--checkpoint-on-exit", type=str, default=None, metavar="PATH",
                   help="snapshot engine state to PATH on graceful shutdown")
    p.add_argument("--metrics-out", type=str, default=None, metavar="PATH",
                   help="write the engine's decision/metrics records to PATH "
                        "on shutdown")
    p.add_argument("--wal", type=str, default=None, metavar="PATH",
                   help="write-ahead log: durably append every mutating "
                        "request to PATH before applying it; if PATH already "
                        "exists its records are replayed first (crash "
                        "recovery), on top of --restore when given")
    p.add_argument("--wal-fsync", default="always",
                   choices=("always", "batch", "none"),
                   help="WAL durability: fsync every append (default), every "
                        "few appends, or never (tests only)")
    p.add_argument("--wal-compact-every", type=int, default=0, metavar="N",
                   help="auto-compact the WAL whenever it retains N records "
                        "past the last compaction point: snapshot the engine "
                        "and truncate the log into an archive segment "
                        "(default 0: never compact)")
    p.add_argument("--faults", type=str, default=None, metavar="SPEC",
                   help="inject faults, e.g. 'drop=0.1,error=0.05,seed=7' or "
                        "'crash=wal.after_append:3,mode=exit' (chaos testing)")
    p.add_argument("--retry-after", type=float, default=1.0,
                   help="backoff hint (seconds) attached to overloaded/"
                        "shutting-down responses (default 1.0)")
    p.add_argument("--shards", type=int, default=1, metavar="N",
                   help="partition the cluster across N worker processes "
                        "behind a routing front-end (default 1: a single "
                        "in-process engine); workers bind --port+1..+N")
    p.add_argument("--park", type=int, default=0, metavar="N",
                   help="with --shards: park up to N submits per down shard "
                        "in the router and flush them in arrival order when "
                        "the shard recovers (default 0: refuse with 503)")
    p.add_argument("--shard-id", type=int, default=0, metavar="K",
                   help="worker mode: serve shard K of --shard-count "
                        "(normally set by the --shards supervisor, not by hand)")
    p.add_argument("--shard-count", type=int, default=1, metavar="N",
                   help="worker mode: total shard count this worker belongs to")
    p.add_argument("--window", type=float, default=None, metavar="SECONDS",
                   help="trailing window for the windowed telemetry block "
                        "in /v1/stats and /metrics (simulated seconds, "
                        "default 3600)")
    p.add_argument("--no-telemetry", action="store_true",
                   help="disable deterministic trace-id minting and "
                        "windowed telemetry (micro-benchmarks only)")

    p = sub.add_parser(
        "recover",
        help="replay a write-ahead log (on top of an optional checkpoint) "
             "and report/compact the recovered engine state",
    )
    p.add_argument("wal", type=str, help="path to the write-ahead log")
    p.add_argument("--checkpoint", type=str, default=None, metavar="PATH",
                   help="start from this engine checkpoint and replay only "
                        "the WAL records after it")
    p.add_argument("--out", type=str, default=None, metavar="PATH",
                   help="write the recovered state as a compacted checkpoint "
                        "to PATH (atomic, checksummed)")

    p = sub.add_parser(
        "scrub",
        help="verify WAL frame checksums, LSN chain continuity and "
             "checkpoint integrity across a (possibly sharded) fleet",
    )
    p.add_argument("wal", type=str,
                   help="WAL path (the base path with --shards > 1)")
    p.add_argument("--shards", type=int, default=1, metavar="N",
                   help="scrub the N shard-namespaced WALs derived from the "
                        "base path (default 1: scrub the path as-is)")
    p.add_argument("--checkpoint", type=str, action="append", default=None,
                   metavar="PATH",
                   help="also verify this checkpoint's content checksum "
                        "(repeatable; segment-referenced checkpoints are "
                        "always verified)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report as canonical JSON")

    p = sub.add_parser(
        "replay",
        help="stream a scenario's job trace through the online engine "
             "(in-process, or against a running server with --url)",
    )
    _add_common(p)
    _add_obs(p)
    p.add_argument("--policy", default="librarisk", choices=available_policies(),
                   help="policy for the in-process engine (ignored with --url)")
    p.add_argument("--estimate-mode", default="trace",
                   choices=("accurate", "trace", "inaccuracy"))
    p.add_argument("--url", type=str, default=None, metavar="URL",
                   help="replay over HTTP against a running `repro serve` "
                        "instead of in-process")
    p.add_argument("--speedup", type=float, default=None,
                   help="trace seconds per wall second in --url mode "
                        "(default: as fast as possible)")
    p.add_argument("--workers", type=int, default=1,
                   help="concurrent senders in --url mode (1 = ordered, "
                        "safe for virtual-clock servers)")
    p.add_argument("--drain", action="store_true",
                   help="in --url mode, send a drain request after the "
                        "stream and print the final metrics")
    p.add_argument("--batch", type=int, default=1, metavar="N",
                   help="jobs per request with --url: N > 1 packs consecutive "
                        "jobs into batch-submit frames (N=1: plain submits, "
                        "the pre-batch wire format)")
    p.add_argument("--retries", type=int, default=1,
                   help="in --url mode, attempts per request (>1 enables the "
                        "retrying client with exponential backoff)")
    p.add_argument("--latency-buckets", type=float, nargs="+", default=None,
                   metavar="S",
                   help="in --url mode, latency histogram bucket bounds in "
                        "seconds (strictly ascending; default 1ms..10s)")

    p = sub.add_parser(
        "trace",
        help="reconstruct one job's end-to-end lifecycle trace "
             "(deterministic span tree with per-stage latency)",
    )
    p.add_argument("job_id", type=int, help="job id to trace")
    p.add_argument("--url", type=str, default=None, metavar="URL",
                   help="query a running `repro serve` over HTTP")
    p.add_argument("--wal", type=str, default=None, metavar="PATH",
                   help="offline: rebuild the engine by replaying this "
                        "write-ahead log")
    p.add_argument("--checkpoint", type=str, default=None, metavar="PATH",
                   help="offline: engine checkpoint to restore "
                        "(alone, or replayed on top of with --wal)")
    p.add_argument("--json", action="store_true",
                   help="canonical JSON instead of the ASCII span tree")

    p = sub.add_parser(
        "top",
        help="live operator console: polls /healthz, /v1/stats and /metrics",
    )
    p.add_argument("--url", type=str, default="http://127.0.0.1:8331",
                   metavar="URL",
                   help="service base URL (default: the `repro serve` "
                        "default port)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between polls (default 2)")
    p.add_argument("--once", action="store_true",
                   help="poll once and exit (no clear-screen redraw)")
    p.add_argument("--json", action="store_true",
                   help="print the deterministic snapshot subset as one "
                        "canonical JSON line per poll")
    p.add_argument("--no-color", action="store_true",
                   help="disable ANSI colors")

    sub.add_parser("policies", help="list available admission controls")

    p = sub.add_parser(
        "lint",
        help="determinism & concurrency static analysis (per-file and "
             "whole-program rules)",
        description=lint_cli.DESCRIPTION,
        epilog=lint_cli.EPILOG,
    )
    lint_cli.add_arguments(p)
    return parser


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: boot the admission service and block until signalled."""
    import signal
    import threading

    from repro.service import checkpoint as checkpoint_mod
    from repro.service import wal as wal_mod
    from repro.service.clock import WallClock
    from repro.service.engine import AdmissionEngine, EngineConfig
    from repro.service.faults import FaultInjector, FaultSpec
    from repro.service.server import AdmissionService, ServiceServer

    if args.shards < 1 or args.shard_count < 1:
        print("repro serve: --shards/--shard-count must be >= 1", file=sys.stderr)
        return 2
    if args.shards > 1 and args.shard_count > 1:
        print("repro serve: --shards (supervisor mode) and --shard-count "
              "(worker mode) are mutually exclusive", file=sys.stderr)
        return 2
    if args.shards > 1:
        return _cmd_serve_sharded(args)
    if not 0 <= args.shard_id < args.shard_count:
        print("repro serve: --shard-id must be in [0, --shard-count)",
              file=sys.stderr)
        return 2

    faults = None
    if args.faults is not None:
        try:
            faults = FaultInjector(FaultSpec.parse(args.faults))
        except ValueError as exc:
            print(f"repro serve: bad --faults spec: {exc}", file=sys.stderr)
            return 2

    session = None
    if args.metrics_out is not None:
        from repro.obs.session import ObsSession

        session = ObsSession()
    recovery = None
    if args.wal is not None:
        # A crash during the very first header write leaves a torn
        # header-only file nothing was ever acked from; reset it here
        # so neither recovery nor the appender trips over it.
        try:
            wal_mod.discard_torn_header(args.wal)
        except (OSError, wal_mod.WalError) as exc:
            print(f"repro serve: cannot read WAL {args.wal}: {exc}",
                  file=sys.stderr)
            return 1
    wal_has_records = (
        args.wal is not None
        and os.path.exists(args.wal)
        and os.path.getsize(args.wal) > 0
    )
    if wal_has_records:
        # Crash recovery: replay the existing log (on top of --restore,
        # when given) before accepting traffic against it again.
        try:
            engine, recovery = wal_mod.recover(
                args.wal, checkpoint_path=args.restore, obs=session,
            )
        except (OSError, wal_mod.WalError, checkpoint_mod.CheckpointError) as exc:
            print(f"repro serve: cannot recover from {args.wal}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"recovered from {args.wal}: {recovery}")
    elif args.restore is not None:
        try:
            engine = checkpoint_mod.load(args.restore, obs=session)
        except (OSError, checkpoint_mod.CheckpointError) as exc:
            print(f"repro serve: cannot restore {args.restore}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"restored engine from {args.restore}: policy={engine.policy.name} "
              f"t={engine.now:.6g}s, {len(engine.rms.jobs)} jobs known")
    else:
        config = EngineConfig(policy=args.policy, num_nodes=args.nodes,
                              rating=args.rating)
        if args.shard_count > 1:
            # Worker mode: --nodes names the *whole* cluster; this process
            # serves only its deterministic slice of it.
            from repro.service.sharding.partition import plan_shards

            config = plan_shards(config, args.shard_count)[args.shard_id]
        engine = AdmissionEngine(config, obs=session)
    if args.live:
        # The wall clock starts from the engine's (possibly restored)
        # simulated time, so live mode resumes where the checkpoint left off.
        engine.clock = WallClock(speedup=args.speedup, start_time=engine.now)
    if args.no_telemetry:
        engine.telemetry = False
        engine.window = None
    elif args.window is not None:
        try:
            engine.set_window(args.window)
        except ValueError as exc:
            print(f"repro serve: bad --window: {exc}", file=sys.stderr)
            return 2

    wal = None
    if args.wal is not None:
        try:
            wal = wal_mod.WriteAheadLog.open(
                args.wal, config=engine.config.as_dict(), fsync=args.wal_fsync,
            )
        except (OSError, wal_mod.WalError) as exc:
            print(f"repro serve: cannot open WAL {args.wal}: {exc}",
                  file=sys.stderr)
            return 1

    if args.wal_compact_every < 0:
        print("repro serve: --wal-compact-every must be >= 0", file=sys.stderr)
        return 2
    if args.wal_compact_every and wal is None:
        print("repro serve: --wal-compact-every requires --wal", file=sys.stderr)
        return 2
    service = AdmissionService(
        engine,
        max_request_bytes=args.max_request_bytes,
        max_inflight=args.max_inflight,
        wal=wal,
        faults=faults,
        retry_after=args.retry_after,
        wal_compact_every=args.wal_compact_every,
    )
    if recovery is not None:
        service.note_recovery(recovery)
    server = ServiceServer(
        service, host=args.host, port=args.port,
        checkpoint_on_exit=args.checkpoint_on_exit,
    )

    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())

    server.start()
    mode = f"live (speedup {args.speedup:g})" if args.live else "virtual clock"
    shard_note = ""
    if engine.config.shard_count > 1:
        shard_note = (f", shard {engine.config.shard_id} of "
                      f"{engine.config.shard_count}")
    print(f"serving {engine.policy.name} on {server.url} "
          f"({len(engine.cluster)} nodes, {mode}{shard_note}); Ctrl-C to stop",
          flush=True)
    stop.wait()
    print("\nshutting down...", flush=True)
    clean = server.stop()
    if wal is not None:
        print(f"WAL {args.wal}: {wal.appended} records appended "
              f"({wal.bytes_written} bytes, {wal.syncs} fsyncs)")
    if session is not None:
        from repro.obs.exporters import write_jsonl

        session.finalize(metrics=engine.metrics(), sim=engine.sim)
        lines = write_jsonl(args.metrics_out, session.records)
        print(f"wrote {lines} records to {args.metrics_out}")
    if args.checkpoint_on_exit is not None:
        print(f"checkpoint written to {args.checkpoint_on_exit}")
    if not clean:
        print("repro serve: worker thread failed to stop within its grace "
              "period; state may not be fully flushed", file=sys.stderr)
        return 1
    return 0


def shard_worker_command(args: argparse.Namespace, shard_id: int,
                         port: int) -> list:
    """The ``repro serve`` worker command line for one shard.

    Derived entirely from the supervisor's own flags, so a dead worker
    can be respawned with the identical command — including the shard's
    namespaced WAL, which is what makes the respawn *recover* rather
    than restart fresh.
    """
    from repro.service.sharding.paths import shard_path

    n = args.shards
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--policy", args.policy, "--nodes", str(args.nodes),
        "--rating", str(args.rating), "--host", args.host,
        "--port", str(port),
        "--shard-id", str(shard_id), "--shard-count", str(n),
        "--max-request-bytes", str(args.max_request_bytes),
        "--max-inflight", str(args.max_inflight),
        "--retry-after", str(args.retry_after),
        "--wal-fsync", args.wal_fsync,
    ]
    if args.live:
        cmd += ["--live", "--speedup", str(args.speedup)]
    if args.wal is not None:
        cmd += ["--wal", shard_path(args.wal, shard_id, n)]
        if args.wal_compact_every:
            cmd += ["--wal-compact-every", str(args.wal_compact_every)]
    if args.restore is not None:
        cmd += ["--restore", shard_path(args.restore, shard_id, n)]
    if args.checkpoint_on_exit is not None:
        cmd += ["--checkpoint-on-exit",
                shard_path(args.checkpoint_on_exit, shard_id, n)]
    if args.no_telemetry:
        cmd += ["--no-telemetry"]
    elif args.window is not None:
        cmd += ["--window", str(args.window)]
    if args.faults is not None:
        cmd += ["--faults", args.faults]
    return cmd


def _cmd_serve_sharded(args: argparse.Namespace) -> int:
    """``repro serve --shards N``: supervisor + router over N workers."""
    import signal
    import threading

    from repro.service.engine import EngineConfig
    from repro.service.sharding.paths import shard_port
    from repro.service.sharding.router import RouterServer, ShardRouter
    from repro.service.sharding.supervisor import (
        ShardSupervisor,
        WorkerSpec,
        free_ports,
    )

    base = EngineConfig(policy=args.policy, num_nodes=args.nodes,
                        rating=args.rating)
    if args.nodes < args.shards:
        print(f"repro serve: cannot split {args.nodes} nodes into "
              f"{args.shards} shards", file=sys.stderr)
        return 2
    if args.port == 0:
        ports = free_ports(args.shards)
    else:
        ports = [shard_port(args.port, i) for i in range(args.shards)]
    specs = [
        WorkerSpec(
            shard_id=i,
            cmd=shard_worker_command(args, i, ports[i]),
            url=f"http://{args.host}:{ports[i]}",
        )
        for i in range(args.shards)
    ]
    if args.park < 0:
        print("repro serve: --park must be >= 0", file=sys.stderr)
        return 2
    router = ShardRouter(
        base, [spec.url for spec in specs],
        max_request_bytes=args.max_request_bytes,
        max_parked=args.park,
    )
    supervisor = ShardSupervisor(specs)
    supervisor.router = router
    try:
        supervisor.start(wait_healthy=True)
    except (TimeoutError, RuntimeError, OSError) as exc:
        print(f"repro serve: shard workers failed to start: {exc}",
              file=sys.stderr)
        supervisor.stop()
        return 1
    server = RouterServer(router, host=args.host, port=args.port)

    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())

    server.start()
    pids = supervisor.pids()
    print(f"routing {args.policy} on {server.url} across {args.shards} "
          f"shard workers ({args.nodes} nodes total); worker pids "
          + ", ".join(f"{i}:{pids.get(i, '?')}" for i in range(args.shards))
          + "; Ctrl-C to stop", flush=True)
    stop.wait()
    print("\nshutting down router and shard workers...", flush=True)
    clean = server.stop()
    supervisor.stop()
    restarts = supervisor.restart_counts()
    total_restarts = sum(restarts.values())
    if total_restarts:
        print("worker restarts: " + ", ".join(
            f"shard {i}: {n}" for i, n in sorted(restarts.items()) if n
        ))
    return 0 if clean else 1


def _cmd_recover(args: argparse.Namespace) -> int:
    """``repro recover``: offline WAL replay, report, optional compaction."""
    from repro.service import checkpoint as checkpoint_mod
    from repro.service import wal as wal_mod

    try:
        engine, report = wal_mod.recover(args.wal, checkpoint_path=args.checkpoint)
    except (OSError, wal_mod.WalError, checkpoint_mod.CheckpointError) as exc:
        print(f"repro recover: {exc}", file=sys.stderr)
        return 1
    print(report)
    print(f"engine: policy={engine.policy.name} t={engine.now:.6g}s "
          f"wal_lsn={engine.wal_lsn}")
    for key, value in sorted(engine.stats().items()):
        print(f"  {key:<24s} {value}")
    if args.out is not None:
        checkpoint_mod.save(engine, args.out)
        print(f"wrote compacted checkpoint to {args.out} "
              f"(restart with: repro serve --restore {args.out} --wal {args.wal})")
    return 0


def _cmd_scrub(args: argparse.Namespace) -> int:
    """``repro scrub``: offline fleet integrity check, exit code = verdict."""
    import json

    from repro.service import scrub as scrub_mod

    if args.shards < 1:
        print("repro scrub: --shards must be >= 1", file=sys.stderr)
        return scrub_mod.EXIT_IO
    report = scrub_mod.scrub_fleet(
        args.wal, shards=args.shards, checkpoints=args.checkpoint,
    )
    if args.json:
        print(json.dumps(report.as_dict(), sort_keys=True,
                         separators=(",", ":"), ensure_ascii=False))
    else:
        print(report)
        for finding in report.findings:
            print(f"  [{finding.kind}] {finding.path}: {finding.detail}")
    return report.exit_code


def _cmd_replay(args: argparse.Namespace) -> int:
    """``repro replay``: stream a trace through an engine or a server."""
    from repro.experiments.reporting import render_table
    from repro.experiments.runner import build_scenario_jobs

    config = _base_config(args).replace(
        policy=args.policy, estimate_mode=args.estimate_mode,
    )
    jobs = build_scenario_jobs(config)

    if args.url is not None:
        from repro.service.client import RetryPolicy, RetryingClient
        from repro.service.loadgen import LoadGenerator, ServiceClient

        if args.retries > 1:
            client: ServiceClient = RetryingClient(
                args.url,
                policy=RetryPolicy(max_attempts=args.retries),
                seed=args.seed,
            )
        else:
            client = ServiceClient(args.url)
        if not client.healthy():
            print(f"repro replay: no healthy service at {args.url}", file=sys.stderr)
            return 1
        speedup = args.speedup if args.speedup is not None else 1e12
        try:
            generator = LoadGenerator(
                client, jobs, speedup=speedup, workers=args.workers,
                latency_buckets=args.latency_buckets, batch=args.batch,
            )
        except ValueError as exc:
            print(f"repro replay: bad --latency-buckets/--batch: {exc}",
                  file=sys.stderr)
            return 2
        report = generator.run()
        print(report)
        for outcome, count in sorted(report.outcomes.items()):
            print(f"  {outcome:<12s} {count}")
        if isinstance(client, RetryingClient):
            print("client: " + ", ".join(
                f"{k}={v}" for k, v in sorted(client.client_stats.items())
            ))
        status, stats = client.stats()
        if status != 200:
            print(f"repro replay: stats request failed with HTTP {status}",
                  file=sys.stderr)
            return 1
        print("server stats: " + ", ".join(
            f"{k}={v}" for k, v in sorted(stats["stats"].items())
        ))
        if args.drain:
            status, drained = client.drain()
            if status != 200:
                print(f"repro replay: drain failed with HTTP {status}",
                      file=sys.stderr)
                return 1
            rows = sorted(drained["metrics"].items())
            print(render_table(["metric", "value"], rows))
        return 0

    from repro.service.replay import replay_scenario

    session = None
    if args.metrics_out is not None or args.profile:
        from repro.obs.session import ObsSession

        session = ObsSession(scenario=config, profile=args.profile)
    engine, report = replay_scenario(config, obs=session, jobs=jobs)
    print(report)
    rows = sorted(report.metrics.as_dict().items())
    print(render_table(["metric", "value"], rows))
    if session is not None and args.metrics_out is not None:
        from repro.obs.exporters import write_jsonl

        lines = write_jsonl(args.metrics_out, session.records)
        print(f"wrote {lines} records to {args.metrics_out}")
    if session is not None and session.profiler is not None:
        print()
        print(session.profiler.render())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: one job's deterministic lifecycle span tree.

    Three sources, one byte-identical answer: a live server (``--url``),
    a replayed write-ahead log (``--wal``), or a restored checkpoint
    (``--checkpoint``) — the trace ids are minted from the engine
    config and submit sequence, not from wall clocks or process state.
    """
    from repro.obs.tracing import render_trace
    from repro.service import checkpoint as checkpoint_mod
    from repro.service import wal as wal_mod

    given = [s for s in (args.url, args.wal, args.checkpoint) if s is not None]
    if not given:
        print("repro trace: pass --url URL (live), --wal PATH and/or "
              "--checkpoint PATH (offline)", file=sys.stderr)
        return 2
    if args.url is not None:
        if args.wal is not None or args.checkpoint is not None:
            print("repro trace: --url cannot be combined with --wal/"
                  "--checkpoint", file=sys.stderr)
            return 2
        from repro.service.loadgen import ServiceClient

        status, payload = ServiceClient(args.url).trace(args.job_id)
        if status != 200:
            error = payload.get("error", {}) if isinstance(payload, dict) else {}
            detail = error.get("message") or f"HTTP {status}"
            print(f"repro trace: {detail}", file=sys.stderr)
            return 1
        trace = payload["trace"]
    else:
        try:
            if args.wal is not None:
                engine, _ = wal_mod.recover(
                    args.wal, checkpoint_path=args.checkpoint
                )
            else:
                engine = checkpoint_mod.load(args.checkpoint)
        except (OSError, wal_mod.WalError, checkpoint_mod.CheckpointError) as exc:
            print(f"repro trace: {exc}", file=sys.stderr)
            return 1
        try:
            trace = engine.trace(args.job_id)
        except KeyError:
            print(f"repro trace: no decided job with id {args.job_id}",
                  file=sys.stderr)
            return 1
    print(render_trace(trace, json_out=args.json))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """``repro top``: poll the service and render the operator console."""
    from repro.obs.console import run_top

    color = not args.no_color and not args.json and sys.stdout.isatty()
    return run_top(
        args.url, interval=args.interval, once=args.once,
        json_out=args.json, color=color,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # A downstream reader closed the pipe (`repro inspect ... | head`).
        # Point stdout at devnull so the interpreter's shutdown flush does
        # not raise again, and exit with the conventional SIGPIPE status.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _dispatch(argv: Optional[Sequence[str]]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command is None:
        # `repro` with no subcommand: print usage rather than erroring out.
        parser.print_help()
        return 2

    configure_logging(args.log_level)

    if args.command == "policies":
        for name in available_policies():
            print(name)
        return 0

    if args.command == "lint":
        from repro.analysis.lint import cli as lint_cli

        return lint_cli.run(args, parser)

    if args.command == "inspect":
        from repro.obs.inspect import inspect_log

        mode = "cache" if args.cache_stats else args.mode
        try:
            print(inspect_log(args.log, mode=mode, policy=args.policy,
                              json_output=args.json, window=args.window))
        except BrokenPipeError:
            raise  # downstream reader closed the pipe; handled in main()
        except OSError as exc:
            print(f"repro inspect: cannot read {args.log}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"repro inspect: {exc}", file=sys.stderr)
            return 1
        return 0

    if args.command == "serve":
        return _cmd_serve(args)

    if args.command == "scrub":
        return _cmd_scrub(args)

    if args.command == "recover":
        return _cmd_recover(args)

    if args.command == "replay":
        return _cmd_replay(args)

    if args.command == "trace":
        return _cmd_trace(args)

    if args.command == "top":
        return _cmd_top(args)

    if args.command == "figures":
        from repro.experiments.record import FORMATS, build_record, claims_hold

        with _obs_sink(args) as sink:
            record = build_record(
                _base_config(args), only=args.only,
                progress=_progress_printer(args.verbose), processes=args.processes,
            )
        sys.stdout.write(FORMATS[args.format](record))
        # Capture notes go to stderr unless the output is the table, so
        # json, csv and markdown piped to a file stay clean.
        _report_sink(args, sink, file=sys.stdout if args.format == "table" else sys.stderr)
        return 0 if claims_hold(record) else 1

    if args.command == "run":
        from repro.experiments.reporting import render_table
        from repro.experiments.runner import run_scenario

        config = _base_config(args).replace(
            policy=args.policy,
            estimate_mode=args.estimate_mode,
            inaccuracy_pct=args.inaccuracy,
            arrival_delay_factor=args.arrival_delay_factor,
            high_urgency_fraction=args.high_urgency / 100.0,
            deadline_ratio=args.deadline_ratio,
        )
        session = None
        if args.metrics_out is not None or args.profile or args.prom_out is not None:
            from repro.obs.session import ObsSession

            session = ObsSession(scenario=config, profile=args.profile)
        result = run_scenario(config, obs=session)
        rows = sorted(result.metrics.as_dict().items())
        print(render_table(["metric", "value"], rows))
        print(f"\nsimulated horizon: {result.horizon / 86400.0:.1f} days, "
              f"{result.events} events in {result.elapsed:.2f}s wall-clock")
        if session is not None:
            from repro.obs.exporters import prometheus_text, write_jsonl

            if args.metrics_out is not None:
                lines = write_jsonl(args.metrics_out, session.records)
                print(f"wrote {lines} metric records to {args.metrics_out}")
            if args.prom_out is not None:
                with open(args.prom_out, "w", encoding="utf-8") as fp:
                    fp.write(prometheus_text(session.registry))
                print(f"wrote Prometheus metrics to {args.prom_out}")
            if session.profiler is not None:
                print()
                print(session.profiler.render())
        return 0

    if args.command == "compare":
        from repro.experiments.reporting import metrics_table
        from repro.experiments.runner import run_policies

        base = _base_config(args).replace(estimate_mode=args.estimate_mode)
        with _obs_sink(args) as sink:
            results = run_policies(base, available_policies())
        print(metrics_table(
            results,
            ("pct_deadlines_fulfilled", "avg_slowdown", "acceptance_pct", "completed_late"),
        ))
        _report_sink(args, sink)
        return 0

    if args.command == "trace-stats":
        from repro.experiments.record import stats_table
        from repro.experiments.runner import load_base_records
        from repro.workload.traces import describe_records

        source = args.trace or f"synthetic SDSC-SP2-like (seed={args.seed})"
        print(f"workload: {source}")
        print(stats_table(describe_records(load_base_records(_base_config(args)))))
        return 0

    if args.command == "ablations":
        from repro.experiments.ablations import all_ablations

        for ab in all_ablations(_base_config(args)).values():
            print(ab.render())
            print()
        return 0

    if args.command == "replicate":
        from repro.experiments.replication import compare_replicated, replicate_policies
        from repro.experiments.reporting import render_table

        base = _base_config(args).replace(estimate_mode=args.estimate_mode)
        reps = replicate_policies(base, args.policies, args.seeds)
        rows = []
        for name, rep in reps.items():
            rows.append([name, str(rep.summary(args.metric))])
        print(render_table([f"policy ({args.metric})", "mean ± 95% CI"], rows))
        if "librarisk" in reps and "libra" in reps:
            diff = compare_replicated(reps["librarisk"], reps["libra"], args.metric)
            verdict = "significant" if diff.low > 0 else "not significant"
            print(f"\npaired librarisk − libra: {diff} ({verdict} at 95%)")
        return 0

    if args.command == "sensitivity":
        from repro.experiments.sensitivity import sensitivity

        result = sensitivity(_base_config(args), policy=args.policy, metric=args.metric)
        print(result.render())
        print(f"\nmost sensitive knob: {result.most_sensitive()}")
        return 0

    if args.command == "robustness":
        from repro.experiments.robustness import robustness_grid

        grid = robustness_grid(_base_config(args))
        print(grid.render())
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
