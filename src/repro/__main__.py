"""Command-line entry point: ``python -m repro [command] [options]``.

  (no command)   overview and quick sanity numbers
  figures        regenerate every paper figure
  stagnation     stagnation environment at (V [m/s], h [m], R_n [m])
  degrade-smoke  degradation-cascade smoke run
  chaos          randomized fault campaign under process isolation
  batch          batch evaluation service (JSON-lines requests in,
                 envelopes out)
  campaign       run a job campaign on the solve farm to completion
  serve          long-running farm worker pool on a durable queue
  jobs           asynchronous jobs: submit returns an id immediately;
                 status/watch/result/cancel/gc/ledger later

``python -m repro <command> --help`` is the flag reference of one
command (``jobs <action> --help`` of one job action);
``python -m repro --help`` prints every command's flags.

Exit codes: 0 success, 1 solver/invariant failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

_PROG = "python -m repro"


class _UsageError(Exception):
    """Bad command line; :func:`main` prints the message plus the usage
    of ``parser`` (default: the command being run) and returns 2."""

    def __init__(self, message: str, parser=None):
        super().__init__(message)
        self.parser = parser


class _HelpShown(Exception):
    """``--help`` was printed; :func:`main` returns 0."""


def _usage_error(prefix: str, msg: str) -> None:
    """Route every usage problem through one door so each misuse prints
    a ``command: reason`` line plus the usage text and exits 2."""
    raise _UsageError(f"{prefix}: {msg}")


class _Parser(argparse.ArgumentParser):
    """Strict argparse (no abbreviated flags, no leftovers) that raises
    instead of exiting, so :func:`main` owns the exit codes.  A parser
    with subcommands appends each one's help to its own."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self.subcommands: dict = {}

    def parse_known_args(self, args=None, namespace=None):
        # the innermost parser rejects leftovers, so the error carries
        # that (sub)command's usage rather than the top level's
        ns, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return ns, extras

    def error(self, message):
        name = self.prog.removeprefix(_PROG).strip() or "repro"
        raise _UsageError(f"{name}: {message}", self)

    def exit(self, status=0, message=None):
        raise _HelpShown

    def format_help(self):
        return "\n".join([super().format_help()]
                         + [p.format_help()
                            for p in self.subcommands.values()])


def _number(cast, *, zero_ok: bool = False):
    """argparse ``type=``: a positive (``zero_ok``: non-negative) number."""
    def parse(text: str):
        value = cast(text)  # ValueError: argparse's "invalid int value"
        if value < 0 or (value == 0 and not zero_ok):
            raise argparse.ArgumentTypeError(
                f"must be {'>= 0' if zero_ok else 'positive'}, got {text}")
        return value
    parse.__name__ = cast.__name__
    return parse


_pos_int, _pos_float = _number(int), _number(float)
_count = _number(int, zero_ok=True)


def _build_parser() -> _Parser:
    top = _Parser(prog=_PROG, description="CAT toolkit; with no command, "
                  "an overview and quick sanity numbers.",
                  epilog="exit codes: 0 success, 1 solver/invariant "
                         "failure, 2 usage error")
    sub = top.add_subparsers(dest="command", metavar="command",
                             required=True)
    top.subcommands = sub.choices

    def command(name, run, text, parent=sub, **kwargs):
        p = parent.add_parser(name, help=text, description=text, **kwargs)
        p.set_defaults(run=run, cmd_parser=p)
        return p.add_argument

    def workers(arg, text, default=None):
        arg("-j", dest="n_workers", type=_pos_int, default=default,
            metavar="N", help=text)

    def shared_queue(arg):
        arg("--host-id", metavar="H", help="this host's name on a shared "
            "queue")
        arg("--max-skew", type=_pos_float, default=2.0, metavar="S",
            help="cross-host clock-skew bound (default %(default)s)")

    arg = command("figures", _cmd_figures, "regenerate every paper figure")
    arg("--full", action="store_true", help="full-resolution runs")
    arg("--checkpoint-dir", metavar="D", help="done markers + snapshots in D")
    arg("--resume", action="store_true", help="resume from --checkpoint-dir")
    arg("--isolate", action="store_true", help="one sandbox per figure")
    arg("--farm", action="store_true", help="shard the suite across farm "
        "workers (excludes --isolate/--resume/--checkpoint-dir)")
    workers(arg, "farm worker count (default 4)")
    arg("--queue-dir", metavar="D", help="farm queue (reuse D to resume)")
    arg("--deadline", type=_pos_float, metavar="S",
        help="per-figure wall-clock budget (needs --isolate or --farm)")
    arg("--stall-timeout", type=_pos_float, metavar="S",
        help="hang after S s without a heartbeat (ditto)")
    arg("--memory-mb", type=_pos_float, metavar="M",
        help="per-figure RSS budget [MiB] (ditto)")

    arg = command("stagnation", _cmd_stagnation,
                  "stagnation environment at (V, h, R_n)")
    arg("V", type=float, help="flight speed [m/s]")
    arg("h", type=float, help="altitude [m]")
    arg("rn", type=float, metavar="RN", help="nose radius [m]")

    arg = command("degrade-smoke", _degrade_smoke, "fault-injected march "
                  "that must abort without the degradation cascade and "
                  "complete with it")
    arg("--out", default="degradation_ledger.json", metavar="FILE",
        help="degradation ledger JSON (default %(default)s)")

    arg = command("chaos", _cmd_chaos, "randomized fault campaign")
    arg("--rounds", type=_pos_int, default=5, metavar="N",
        help="rounds; solver jobs with --hosts (default %(default)s)")
    arg("--seed", type=int, default=0, metavar="S")
    arg("--out", default="chaos-reports", metavar="D",
        help="report directory (default %(default)s)")
    arg("--deadline", type=_pos_float, metavar="S", help="per round "
        "(30); per campaign with --hosts/--jobs (240), --batch (120)")
    arg("--farm", action="store_true", help="rounds as farm jobs")
    workers(arg, "farm worker count (default 2)")
    arg("--kill-workers", type=_count, metavar="K",
        help="scheduled worker SIGKILLs (default 2; 0 disables)")
    arg("--queue-dir", metavar="D", help="default <out>/farm-queue")
    arg("--hosts", type=_pos_int, metavar="N",
        help="with --farm: N supervisor hosts, one SIGKILLed")
    arg("--skew", type=_pos_float, nargs="?", const=5.0, metavar="S",
        help="+/-S s clock skew per host (bare --skew: 5 s)")
    arg("--partition", action="store_true",
        help="SIGSTOP a host past its lease ttl, then heal it")
    arg("--batch", action="store_true", help="faulted requests in a good "
        "batch (batch-service campaign)")
    arg("--requests", type=_pos_int, metavar="N", help="default 200")
    arg("--faulted", type=_pos_int, metavar="M", help="default 20")
    arg("--jobs", action="store_true", help="kill-and-resume an async "
        "march job (async-job campaign)")
    arg("--steps", type=_pos_int, metavar="N", help="default 40")

    arg = command("batch", _cmd_batch, "batch evaluation service: "
                  "JSON-lines requests in, one envelope per line out")
    arg("infile", nargs="?", metavar="FILE",
        help="requests (absent or '-': stdin)")
    arg("--out", metavar="FILE", help="envelopes (default stdout)")
    arg("--ledger", dest="ledger_file", metavar="FILE")
    arg("--bench", dest="bench_file", metavar="FILE", help="BENCH_batch.json")
    arg("--deadline", type=_pos_float, metavar="S", help="whole-batch budget")
    arg("--request-deadline", type=_pos_float, metavar="S", help="per request")
    arg("--shed-above", type=_pos_int, metavar="N",
        help="reject larger batches (typed overload)")
    arg("--isolate", choices=("auto", "always", "never"), default="auto",
        help="sandboxing (default %(default)s: heavy rungs + faults)")
    arg("--allow-faults", action="store_true",
        help='honor chaos "fault" fields in requests')
    arg("--no-dedup", dest="dedup", action="store_false",
        help="execute duplicate request keys instead of copying")
    arg("--farm", action="store_true", help="shard into farm chunk jobs")
    workers(arg, "farm worker count (default 2)")
    arg("--queue-dir", metavar="D")
    arg("--chunk-size", type=_pos_int, metavar="N")

    arg = command("campaign", _cmd_campaign, "run a job set on the solve "
                  "farm until every job is done or dead-lettered")
    arg("--figures", action="store_true", help="the figure suite as jobs")
    arg("--jobs", dest="jobs_file", metavar="FILE", help="JSON job-spec list")
    arg("--retry-dead-letters", dest="retry_dead", action="store_true",
        help="requeue --queue-dir's dead letters and re-run the farm")
    arg("--merge-ledgers", dest="merge_paths", action="extend",
        type=lambda v: [x for x in v.split(",") if x], default=[],
        metavar="L1,L2", help="merge per-host ledgers; with --queue-dir "
        "also audit exactly-once")
    workers(arg, "worker count (default %(default)s)", default=4)
    arg("--full", action="store_true", help="full-resolution figures")
    arg("--queue-dir", metavar="D", help="default: fresh temp dir")
    arg("--ledger", dest="ledger_file", metavar="FILE")
    arg("--bench", dest="bench_file", metavar="FILE", help="BENCH_farm.json")
    arg("--compare-serial", action="store_true",
        help="also time the suite serially (--figures only)")
    arg("--kill-workers", type=_count, default=0, metavar="K",
        help="chaos: SIGKILL K workers at seeded random times")
    arg("--seed", type=int, default=0, metavar="S")
    arg("--deadline", type=_pos_float, metavar="S", help="per-job budget")
    shared_queue(arg)

    arg = command("serve", _cmd_serve, "long-running farm worker pool on a "
                  "durable queue; SIGTERM drains it")
    arg("--queue-dir", required=True, metavar="D")
    workers(arg, "worker count (default %(default)s)", default=2)
    arg("--lease-ttl", type=_pos_float, default=15.0, metavar="S")
    arg("--poll", type=_pos_float, default=0.25, metavar="S")
    shared_queue(arg)
    arg("--clock-offset", type=float, default=0.0, metavar="S",
        help="inject S s of wall-clock skew (may be negative)")
    arg("--ledger", dest="ledger_file", metavar="FILE",
        help="write this host's ledger after the drain")

    text = "asynchronous jobs on a durable queue a 'serve' farm drains"
    jobs = sub.add_parser("jobs", help=text, description=text)
    actions = jobs.add_subparsers(dest="action", metavar="action",
                                  required=True)
    jobs.subcommands = actions.choices

    def action(name, text, *options, job_id=True):
        # unset flags stay out of the namespace, so the JobManager
        # method receives exactly the flags given, as keywords
        arg = command(name, _cmd_jobs, text, parent=actions,
                      argument_default=argparse.SUPPRESS)
        arg("--queue-dir", required=True, metavar="D")
        if job_id:
            arg("job_id", metavar="ID")
        for flag, cast in options:
            arg(flag, type=cast)
        return arg

    arg = action("submit", "enqueue KIND; prints the job id at once",
                 ("--priority", int), ("--max-attempts", int),
                 ("--deadline", float), ("--memory-mb", float),
                 ("--stall-timeout", float), job_id=False)
    arg("kind", metavar="KIND")
    arg("payload_arg", nargs="?", default=None, metavar="JSON",
        help="payload object, inline or @FILE")
    arg("--id", dest="job_id", default=None,
        help="explicit id (default: content-addressed)")
    action("status", "state, live progress and snapshot generations")
    action("watch", "one JSON line per change until terminal",
           ("--timeout", float), ("--poll", float))
    action("result", "terminal outcome (exit 1 when failed)",
           ("--wait", float), ("--poll", float))
    action("cancel", "cancel flag, then SIGTERM -> SIGKILL",
           ("--reason", str), ("--escalate-after", float),
           ("--wait", float), ("--poll", float))
    arg = action("gc", "remove jobs terminal for more than --ttl s",
                 ("--ttl", float), ("--keep-last", int), job_id=False)
    arg("--include-failed", action="store_true")
    action("ledger", "all jobs + exactly-once and transition audits",
           job_id=False)
    return top


def _overview() -> None:
    import numpy as np

    from repro.core import make_gas
    print(__doc__)
    gas = make_gas("equilibrium-air")
    y, _ = gas.composition_T_p(np.array(8000.0), np.array(101325.0))
    x = gas.db.mass_to_mole(np.atleast_2d(y))[0]
    print("sanity: equilibrium air at 8000 K, 1 atm -> "
          f"x_N = {x[gas.db.index['N']]:.3f}, "
          f"x_O = {x[gas.db.index['O']]:.3f} (mostly dissociated)")


def _cmd_figures(*, full, checkpoint_dir, resume, isolate, farm, n_workers,
                 queue_dir, deadline, stall_timeout, memory_mb) -> int:
    budgets = {k: v for k, v in (("deadline", deadline),
                                 ("stall_timeout", stall_timeout),
                                 ("memory_mb", memory_mb)) if v is not None}
    if farm:
        conflicts = [f for f, on in
                     (("--isolate", isolate), ("--resume", resume),
                      ("--checkpoint-dir", checkpoint_dir is not None))
                     if on]
        if conflicts:
            _usage_error("figures", f"--farm conflicts with "
                         f"{', '.join(conflicts)} (farm workers are "
                         f"already sandboxed; reuse --queue-dir to "
                         f"resume a campaign)")
        from repro.experiments.runner import run_all_farm
        res = run_all_farm(quick=not full, n_workers=n_workers or 4,
                           queue_dir=queue_dir, **budgets)
        return 1 if res["failures"] else 0
    if queue_dir is not None or n_workers is not None:
        _usage_error("figures", "-j/--queue-dir require --farm")
    if resume and checkpoint_dir is None:
        _usage_error("figures", "--resume requires --checkpoint-dir")
    if budgets and not isolate:
        flags = ", ".join("--" + k.replace("_", "-") for k in budgets)
        _usage_error("figures", f"{flags} require(s) --isolate or "
                     f"--farm")
    kwargs = {}
    if isolate:
        from repro.resilience import IsolationPolicy
        kwargs["isolate"] = IsolationPolicy(**budgets)
    from repro.experiments.runner import run_all
    res = run_all(quick=not full, checkpoint_dir=checkpoint_dir,
                  resume=resume, **kwargs)
    return 1 if res["failures"] else 0


def _cmd_stagnation(*, V, h, rn) -> int:
    from repro.core import stagnation_environment
    env = stagnation_environment(V=V, h=h, nose_radius=rn)
    print(f"V = {V:.0f} m/s, h = {h / 1e3:.1f} km, R_n = {rn} m:")
    print(f"  q_conv   = {env['q_conv'] / 1e4:10.2f} W/cm^2")
    print(f"  q_rad    = {env['q_rad'] / 1e4:10.2f} W/cm^2")
    print(f"  standoff = {env['standoff'] * 100:10.2f} cm")
    print(f"  p_stag   = {env['p_stag'] / 1e3:10.2f} kPa")
    print(f"  T_edge   = {env['T_edge']:10.0f} K")
    return 0


def _cmd_chaos(*, rounds, seed, out, deadline, farm, n_workers,
               kill_workers, queue_dir, hosts, skew, partition, batch,
               requests, faulted, jobs, steps) -> int:
    if jobs:
        if batch or farm or hosts is not None:
            _usage_error("chaos", "--jobs excludes --batch/--farm/"
                         "--hosts (it drives its own supervisors)")
        from repro.service.jobs import run_chaos_jobs
        return run_chaos_jobs(n_steps=steps or 40, out=out,
                              queue_dir=queue_dir,
                              deadline=deadline or 240.0)
    if steps is not None:
        _usage_error("chaos", "--steps requires --jobs")
    if batch:
        if farm or hosts is not None or queue_dir is not None:
            _usage_error("chaos", "--batch excludes --farm/--hosts/"
                         "--queue-dir (use 'batch --farm' for the "
                         "farm-sharded service path)")
        requests, faulted = requests or 200, faulted or 20
        if faulted >= requests:
            _usage_error("chaos", f"--faulted {faulted} must be "
                         f"below --requests {requests}")
        from repro.service.chaos import run_chaos_batch
        return run_chaos_batch(requests=requests, faulted=faulted,
                               seed=seed, out=out,
                               deadline=deadline or 120.0)
    if requests is not None or faulted is not None:
        _usage_error("chaos", "--requests/--faulted require --batch")
    if hosts is not None and not farm:
        _usage_error("chaos", "--hosts requires --farm")
    if (skew is not None or partition) and hosts is None:
        _usage_error("chaos", "--skew/--partition require --hosts N")
    if hosts is not None:
        # distributed mode: --rounds counts bitwise-verified solver
        # jobs and --deadline bounds the whole campaign
        from repro.resilience.chaos import run_chaos_hosts
        return run_chaos_hosts(
            hosts=hosts, rounds=rounds, seed=seed, out=out,
            n_workers=n_workers or 2, skew=skew or 0.0,
            partition=partition, deadline=deadline or 240.0,
            queue_dir=queue_dir)
    if farm:
        from repro.resilience.chaos import run_chaos_farm
        return run_chaos_farm(
            rounds=rounds, seed=seed, out=out, deadline=deadline or 30.0,
            n_workers=n_workers or 2,
            kill_workers=2 if kill_workers is None else kill_workers,
            queue_dir=queue_dir)
    if (n_workers is not None or kill_workers is not None
            or queue_dir is not None):
        _usage_error("chaos",
                     "-j/--kill-workers/--queue-dir require --farm")
    from repro.resilience.chaos import run_chaos
    return run_chaos(rounds=rounds, seed=seed, out=out,
                     deadline=deadline or 30.0)


def _degrade_smoke(out: str) -> int:
    """Degradation-cascade smoke: a persistent density fault that kills
    the plain rollback ladder must complete once the cascade is armed.

    The scenario is the acceptance case for
    :mod:`repro.resilience.degradation`: a Mach-10 reacting blunt-body
    march with a persistent single-cell density corruption that
    second-order reconstruction cannot march through (the T(e) Newton
    dies) but a quarantined first-order zone can.
    """
    import json

    import numpy as np

    from repro.errors import CatError
    from repro.geometry import Hemisphere
    from repro.grid import blunt_body_grid
    from repro.resilience import (DegradationPolicy, FaultInjector,
                                  RetryPolicy)
    from repro.solvers.reacting_euler2d import ReactingEulerSolver
    from repro.thermo.species import species_set

    def make_solver():
        grid = blunt_body_grid(Hemisphere(0.05), n_s=9, n_normal=13,
                               density_ratio=0.12, margin=2.5)
        db = species_set("air5")
        s = ReactingEulerSolver(grid, db)
        y = np.zeros(db.n)
        y[db.index["N2"]] = 0.767
        y[db.index["O2"]] = 0.233
        return s.set_freestream(1e-3, 5000.0, 250.0, y)

    def make_faults():
        fi = FaultInjector()
        fi.inject_perturbation(step=10, cell=(4, 6), component=0,
                               factor=1e-4, persistent=True)
        return fi

    policy = RetryPolicy(max_retries=1, cfl_backoff=0.8, cfl_min=0.2)

    print("degrade-smoke: fault-injected march WITHOUT degradation "
          "(must abort) ...")
    try:
        make_solver().run(n_steps=40, cfl=0.4, resilience=policy,
                          faults=make_faults())
    except CatError as err:
        print(f"  aborted as expected: {type(err).__name__}")
    else:
        print("  ERROR: run completed without degradation — the fault "
              "no longer exercises the cascade", file=sys.stderr)
        return 1

    print("degrade-smoke: same march WITH degradation (must complete) "
          "...")
    s = make_solver()
    try:
        s.run(n_steps=40, cfl=0.4, resilience=policy,
              faults=make_faults(), watchdog=True,
              degradation=DegradationPolicy(promote_after=15))
    except CatError as err:
        print(f"  ERROR: degraded run still aborted: {err}",
              file=sys.stderr)
        return 1
    ledger = s.degradation_ledger.to_dict()
    n_q = (0 if s.quarantined_cells is None
           else int(s.quarantined_cells.sum()))
    print(f"  completed {s.steps} steps: "
          f"{ledger['n_demotions']} demotion(s), "
          f"{ledger['n_promotions']} re-promotion(s), "
          f"{n_q} cell(s) quarantined, "
          f"{len(s.watchdog_events)} watchdog event(s)")
    with open(out, "w") as f:
        json.dump({"ledger": ledger,
                   "quarantined_cells": n_q,
                   "n_watchdog_events": len(s.watchdog_events),
                   "steps": int(s.steps)}, f, indent=2)
    print(f"  ledger written to {out}")
    if not ledger["n_demotions"]:
        print("  ERROR: completed without any demotion — the fault no "
              "longer exercises the cascade", file=sys.stderr)
        return 1
    return 0


def _merge_ledgers_cmd(paths: list[str], ledger_file: str | None,
                       queue_dir: str | None) -> int:
    """``campaign --merge-ledgers``: fold per-host campaign ledgers
    into one view; with ``--queue-dir`` also run the exactly-once
    journal audit over the shared queue."""
    import json

    from repro.resilience.farm import audit_exactly_once, merge_ledgers
    ledgers = []
    for path in paths:
        try:
            with open(path) as f:
                ledgers.append(json.load(f))
        except (OSError, ValueError) as exc:
            _usage_error("campaign",
                         f"cannot read ledger {path!r}: {exc}")
    merged = merge_ledgers(ledgers)
    ok = bool(merged.get("ok"))
    if queue_dir is not None:
        from repro.resilience.queue import WorkQueue
        audit = audit_exactly_once(WorkQueue(queue_dir))
        merged["exactly_once_audit"] = audit
        ok = ok and audit["ok"]
        print(f"campaign: exactly-once audit over {queue_dir}: "
              f"{'ok' if audit['ok'] else 'VIOLATED'} "
              f"({audit['jobs_completed']} completion(s), "
              f"{len(audit['double_completions'])} double, "
              f"{len(audit['done_without_complete'])} unaccounted)")
    if ledger_file is not None:
        with open(ledger_file, "w") as f:
            json.dump(merged, f, indent=1, default=str)
        print(f"campaign: merged ledger ({len(ledgers)} host ledger(s))"
              f" written to {ledger_file}")
    else:
        print(json.dumps(merged, indent=1, default=str))
    print(f"campaign: merged view — jobs {merged.get('jobs')}, hosts "
          f"{sorted(merged.get('hosts') or {})}, wall "
          f"{merged.get('wall_time')} s "
          f"({merged.get('host_seconds')} host-seconds)")
    return 0 if ok else 1


def _cmd_campaign(*, figures, jobs_file, retry_dead, merge_paths, n_workers,
                  full, queue_dir, ledger_file, bench_file, compare_serial,
                  kill_workers, seed, deadline, host_id,
                  max_skew) -> int:
    if merge_paths:
        if figures or jobs_file or retry_dead or compare_serial:
            _usage_error("campaign", "--merge-ledgers merges existing "
                         "per-host ledgers; it excludes --figures/"
                         "--jobs/--retry-dead-letters/--compare-serial")
        return _merge_ledgers_cmd(merge_paths, ledger_file, queue_dir)
    if retry_dead:
        if queue_dir is None:
            _usage_error("campaign", "--retry-dead-letters needs "
                         "--queue-dir (the queue holding the dead "
                         "letters)")
        if figures or jobs_file is not None:
            _usage_error("campaign", "--retry-dead-letters re-runs the "
                         "existing queue; it excludes --figures/--jobs")
    elif figures == (jobs_file is not None):
        _usage_error("campaign",
                     "exactly one of --figures / --jobs FILE required")
    if compare_serial and not figures:
        _usage_error("campaign", "--compare-serial requires --figures")

    import io
    import json
    import tempfile
    import time

    from repro.errors import InputError
    from repro.resilience.farm import (Farm, FarmPolicy, WorkerKillPlan,
                                       bench_from_journal,
                                       write_bench_json)
    from repro.resilience.queue import Job, WorkQueue

    if jobs_file is not None:
        # validated before any queue directory is created
        try:
            with open(jobs_file) as f:
                specs = json.load(f)
        except (OSError, ValueError) as exc:
            _usage_error("campaign",
                         f"cannot read --jobs {jobs_file!r}: {exc}")
        if not isinstance(specs, list):
            _usage_error("campaign", "--jobs FILE must hold a JSON "
                         "list of job specs")
        jobs = []
        for i, spec in enumerate(specs):
            try:
                jobs.append(Job.from_dict(spec))
            except (KeyError, TypeError, ValueError, InputError) as exc:
                _usage_error("campaign", f"--jobs spec #{i} is not a job "
                             f"spec ({type(exc).__name__}: {exc})")

    serial_wall = None
    if compare_serial:
        from repro.experiments.runner import run_all
        print(f"campaign: serial reference suite "
              f"({'full' if full else 'quick'}) ...")
        t0 = time.monotonic()
        serial_res = run_all(quick=not full, stream=io.StringIO())
        serial_wall = round(time.monotonic() - t0, 3)
        print(f"campaign: serial suite took {serial_wall:.1f} s "
              f"({len(serial_res['failures'])} failure(s))")

    if queue_dir is None:
        queue_dir = tempfile.mkdtemp(prefix="repro-campaign-")
    policy = FarmPolicy(n_workers=n_workers, deadline=deadline,
                        host_id=host_id, max_skew=max_skew)
    queue = WorkQueue(queue_dir, lease_ttl=policy.lease_ttl,
                      backoff=policy.backoff, host_id=host_id,
                      max_skew=max_skew)
    if retry_dead:
        requeued = queue.retry_dead_letters()
        if not requeued:
            print(f"campaign: no dead-lettered jobs in {queue_dir}")
            return 0
        print(f"campaign: requeued {len(requeued)} dead-lettered "
              f"job(s) with a fresh attempt budget: "
              f"{', '.join(requeued)}")
    elif figures:
        from repro.experiments.runner import _MODULES
        jobs = [Job(id=name, kind="figure",
                    payload={"module": mod.__name__.rsplit(".", 1)[1],
                             "quick": not full})
                for name, mod in _MODULES]
        for job in jobs:
            queue.enqueue(job)
    else:
        for job in jobs:
            queue.enqueue(job)
    plan = None
    if kill_workers:
        plan = WorkerKillPlan(seed=seed + 1000, kills=kill_workers,
                              min_interval=1.0, max_interval=8.0)
    farm = Farm(queue, policy, label="campaign", kill_plan=plan)
    t0 = time.monotonic()
    ledger = farm.run()
    wall = time.monotonic() - t0
    if serial_wall is not None:
        ledger["serial_wall_time"] = serial_wall
        ledger["speedup_vs_serial"] = (round(serial_wall / wall, 3)
                                       if wall > 0 else None)
    if ledger_file is not None:
        with open(ledger_file, "w") as f:
            json.dump(ledger, f, indent=1, default=str)
        print(f"campaign: ledger written to {ledger_file}")
    if bench_file is not None:
        bench = bench_from_journal(queue, wall_time=wall,
                                   n_workers=n_workers)
        if serial_wall is not None:
            bench["serial_wall_s"] = serial_wall
            bench["speedup_vs_serial"] = ledger["speedup_vs_serial"]
        write_bench_json(bench_file, bench)
        print(f"campaign: bench record written to {bench_file}")
    n_dead = len(ledger["dead_letter"])
    print(f"campaign: {ledger['jobs']} in {ledger['wall_time']:.1f} s "
          f"({ledger['attempts']} attempt(s), "
          f"{ledger['requeues']} requeue(s), "
          f"{ledger['reclaims']} reclaim(s), "
          f"{len(ledger['worker_kills'])} worker kill(s))"
          + (f", speedup vs serial {ledger['speedup_vs_serial']}x"
             if serial_wall is not None else ""))
    return 0 if ledger["ok"] and not n_dead else 1


def _cmd_serve(*, queue_dir, n_workers, lease_ttl, poll, host_id, max_skew,
               clock_offset, ledger_file) -> int:
    import json

    from repro.resilience.farm import Farm, FarmPolicy
    policy = FarmPolicy(n_workers=n_workers, lease_ttl=lease_ttl,
                        poll_interval=poll, drain_when_idle=False,
                        host_id=host_id, max_skew=max_skew,
                        clock_offset=clock_offset)
    farm = Farm(queue_dir, policy, label="serve")
    print(f"serve: {n_workers} worker(s) on {queue_dir} as host "
          f"{farm.host} (SIGTERM to drain)")
    code = farm.serve()
    if ledger_file and farm.last_ledger is not None:
        with open(ledger_file, "w") as f:
            json.dump(farm.last_ledger, f, indent=1)
        print(f"serve: ledger written to {ledger_file}")
    return code


def _read_jsonl_requests(path: str | None) -> list:
    """JSON-lines requests from a file or stdin.  A line that is not
    valid JSON is kept as the raw string — the service turns it into a
    typed invalid-request envelope instead of aborting the batch."""
    import json
    if path is None or path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            with open(path) as f:
                lines = f.read().splitlines()
        except OSError as err:
            _usage_error("batch", f"cannot read {path!r}: {err}")
    requests = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            requests.append(json.loads(line))
        except json.JSONDecodeError:
            requests.append(line)
    return requests


def _cmd_batch(*, infile, out, ledger_file, bench_file, deadline,
               request_deadline, shed_above, isolate, allow_faults, dedup,
               farm, n_workers, queue_dir, chunk_size) -> int:
    import json

    if not farm and (queue_dir is not None or chunk_size is not None
                     or n_workers is not None):
        _usage_error("batch", "-j/--queue-dir/--chunk-size require "
                     "--farm")

    requests = _read_jsonl_requests(infile)
    if not requests:
        _usage_error("batch", "no requests (JSON-lines on stdin or in "
                     "FILE, one request object per line)")

    from repro.service.batch import (BatchPolicy, batch_bench_record,
                                     evaluate_batch,
                                     evaluate_batch_farm)
    kwargs = {"deadline": deadline, "shed_above": shed_above,
              "isolate": isolate, "allow_faults": allow_faults,
              "dedup": dedup}
    if request_deadline is not None:
        kwargs["request_deadline"] = request_deadline
    if chunk_size is not None:
        kwargs["chunk_size"] = chunk_size
    policy = BatchPolicy(**kwargs)

    if farm:
        import tempfile
        qdir = queue_dir or tempfile.mkdtemp(prefix="batch-queue-")
        result = evaluate_batch_farm(requests, policy, queue_dir=qdir,
                                     n_workers=n_workers or 2,
                                     chunk_size=chunk_size,
                                     stream=sys.stderr)
    else:
        result = evaluate_batch(requests, policy)

    lines = "\n".join(json.dumps(e.to_dict(), default=str)
                      for e in result.envelopes)
    if out:
        with open(out, "w") as f:
            f.write(lines + "\n")
    else:
        print(lines)
    if ledger_file:
        with open(ledger_file, "w") as f:
            json.dump(result.ledger, f, indent=1, default=str)
    if bench_file:
        from repro.resilience.farm import write_bench_json
        write_bench_json(bench_file,
                         batch_bench_record(
                             result, mode="farm" if farm else "local",
                             n_workers=n_workers if farm else 1))
    led = result.ledger
    counts = led.get("counts", {})
    n_failed = counts.get("failed", 0)
    print(f"batch: {led['n_requests']} requests -> "
          f"{counts.get('ok', 0)} ok, {counts.get('degraded', 0)} "
          f"degraded, {n_failed} failed "
          f"({led.get('requests_per_s')} req/s)", file=sys.stderr)
    return 0 if led.get("ok") and n_failed == 0 else 1


def _cmd_jobs(*, action, queue_dir, job_id=None, kind=None,
              payload_arg=None, **opts) -> int:
    """``jobs ACTION`` — the async-job client surface.  Every action
    prints one JSON object (or one per change, for ``watch``) so the
    output is scriptable; exit 0 on success, 1 when the job itself
    failed or an audit is violated, 2 on usage errors."""
    import json
    prefix = f"jobs {action}"

    from repro.service.jobs import JOB_TERMINAL, FAILED, JobManager
    manager = JobManager(queue_dir)
    if action == "submit":
        payload = {}
        if payload_arg is not None:
            raw = payload_arg
            if raw.startswith("@"):
                try:
                    with open(raw[1:]) as f:
                        raw = f.read()
                except OSError as exc:
                    _usage_error(prefix, f"cannot read payload file "
                                 f"{raw[1:]!r}: {exc}")
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError as exc:
                _usage_error(prefix, f"payload is not valid JSON: "
                             f"{exc}")
            if not isinstance(payload, dict):
                _usage_error(prefix, "payload must be a JSON object")
        out = manager.submit(kind, payload, job_id=job_id, **opts)
        print(json.dumps(out, indent=1, default=str))
        return 0
    if action == "status":
        out = manager.status(job_id)
        print(json.dumps(out, indent=1, default=str))
        return 0 if out["state"] != FAILED else 1
    if action == "watch":
        out = manager.watch(job_id, stream=sys.stdout, **opts)
        return 0 if (out["state"] in JOB_TERMINAL
                     and out["state"] != FAILED) else 1
    if action == "result":
        out = manager.result(job_id, **opts)
        print(json.dumps(out, indent=1, default=str))
        return 0 if out.get("ready") and out["state"] != FAILED else 1
    if action == "cancel":
        out = manager.cancel(job_id, **opts)
        print(json.dumps(out, indent=1, default=str))
        return 0
    if action == "gc":
        out = manager.gc(**opts)
        print(json.dumps(out, indent=1, default=str))
        return 0
    out = manager.ledger()
    print(json.dumps(out, indent=1, default=str))
    return 0 if (out["audit"]["ok"]
                 and out["transitions_audit"]["ok"]) else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        _overview()
        return 0
    cmd = argv[0]
    parser = _build_parser()
    args = None
    try:
        if cmd == "help":
            argv = ["--help"]
        elif not cmd.startswith("-") and cmd not in parser.subcommands:
            raise _UsageError(f"repro: unknown command {cmd!r}", parser)
        args = parser.parse_args(argv)
        return args.run(**{k: v for k, v in vars(args).items()
                           if k not in ("run", "command", "cmd_parser")})
    except _HelpShown:
        return 0
    except _UsageError as err:
        usage = err.parser or args.cmd_parser
        print(err, file=sys.stderr)
        print(usage.format_usage().rstrip(), file=sys.stderr)
        print(f"run '{usage.prog} --help' for the flag reference",
              file=sys.stderr)
        return 2
    except Exception as err:
        from repro.errors import CatError
        if not isinstance(err, CatError):
            raise
        # typed solver failure: summarise (with the attached report
        # when present) and exit 1 instead of tracebacking
        print(f"{cmd}: {type(err).__name__}: {err}", file=sys.stderr)
        report = getattr(err, "report", None)
        if report is not None:
            print(report.summary(), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
