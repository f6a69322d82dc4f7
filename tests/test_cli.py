"""``python -m repro`` command-line surface.

* Parity: every ``python -m repro`` invocation in the CI workflow and
  in README.md's shell examples runs through :func:`main` with its
  downstream entry point stubbed, and each stub must receive exactly
  the arguments in the table below (bound to the real signature, so
  positional and keyword spellings compare equal).
* A flag that only means something in one mode needs that mode even
  when it is given at its default value.
* ``--help`` exits 0 for every command and every ``jobs`` action.
* A malformed ``campaign --jobs`` spec list is a usage error.
"""

import inspect
import json
import pathlib
import re
import shlex
import sys
from unittest import mock

import pytest

from repro.__main__ import main

ROOT = pathlib.Path(__file__).resolve().parents[1]

_FARM_LEDGER = {"ok": True, "jobs": {"done": 1}, "wall_time": 0.1,
                "attempts": 1, "requeues": 0, "reclaims": 0,
                "worker_kills": [], "dead_letter": []}
_BATCH_LEDGER = {"ok": True, "n_requests": 1, "counts": {"ok": 1},
                 "requests_per_s": 1.0}
_ENV = {"q_conv": 1e6, "q_rad": 1e5, "standoff": 0.05, "p_stag": 1e4,
        "T_edge": 6000.0}


def _norm(value):
    if value is sys.stdout:
        return "<stdout>"
    if value is sys.stderr:
        return "<stderr>"
    if type(value).__name__ == "StringIO":
        return "<StringIO>"
    if type(value).__name__ == "FakeQueue":
        return ("WorkQueue", value.dir)
    return value


class _Calls(list):
    def record(self, name, real, args, kwargs, skip_self=False):
        sig = inspect.signature(real)
        if skip_self:
            args = (None,) + tuple(args)
        bound = sig.bind(*args, **kwargs).arguments
        bound.pop("self", None)
        for param in sig.parameters.values():
            if param.kind is param.VAR_KEYWORD:
                bound.update(bound.pop(param.name, {}))
        self.append((name, {k: _norm(v) for k, v in bound.items()}))


@pytest.fixture
def stubs(monkeypatch, tmp_path):
    """Stub every CLI entry point; returns the ordered call record."""
    import repro.__main__ as cli
    import repro.core
    import repro.experiments.runner as runner
    import repro.resilience.chaos as rchaos
    import repro.resilience.farm as farm
    import repro.resilience.queue as queue
    import repro.service.batch as batch
    import repro.service.chaos as schaos
    import repro.service.jobs as jobs

    calls = _Calls()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "requests.jsonl").write_text('{"method": "nope"}\n')
    for host in ("A", "B"):
        (tmp_path / f"ledger-host{host}.json").write_text("{}")

    def stub(module, name, returns):
        real = getattr(module, name)

        def fake(*args, **kwargs):
            calls.record(name, real, args, kwargs)
            return returns
        monkeypatch.setattr(module, name, fake)

    stub(runner, "run_all", {"failures": {}})
    stub(runner, "run_all_farm", {"failures": {}})
    for name in ("run_chaos", "run_chaos_farm", "run_chaos_hosts"):
        stub(rchaos, name, 0)
    stub(schaos, "run_chaos_batch", 0)
    stub(jobs, "run_chaos_jobs", 0)
    stub(repro.core, "stagnation_environment", _ENV)
    stub(cli, "_degrade_smoke", 0)
    result = mock.Mock(envelopes=[], ledger=_BATCH_LEDGER)
    stub(batch, "evaluate_batch", result)
    stub(batch, "evaluate_batch_farm", result)
    stub(batch, "batch_bench_record", {})
    stub(farm, "write_bench_json", None)
    stub(farm, "bench_from_journal", {})
    stub(farm, "merge_ledgers", {"ok": True})
    stub(farm, "audit_exactly_once",
         {"ok": True, "jobs_completed": 0, "double_completions": [],
          "done_without_complete": []})

    real_farm = farm.Farm

    class FakeFarm:
        host = "h0"
        last_ledger = None

        def __init__(self, *args, **kwargs):
            calls.record("Farm", real_farm.__init__, args, kwargs,
                         skip_self=True)

        def run(self):
            return dict(_FARM_LEDGER)

        def serve(self):
            return 0

    real_queue = queue.WorkQueue

    class FakeQueue:
        def __init__(self, dir, **kwargs):
            self.dir = dir
            calls.record("WorkQueue", real_queue.__init__, (dir,), kwargs,
                         skip_self=True)

        def enqueue(self, job):
            calls.append(("enqueue", job.to_dict()))

        def retry_dead_letters(self):
            calls.append(("retry_dead_letters", {}))
            return ["j1"]

    real_manager = jobs.JobManager

    class FakeManager:
        def __init__(self, *args, **kwargs):
            calls.record("JobManager", real_manager.__init__, args,
                         kwargs, skip_self=True)

        def __getattr__(self, name):
            def method(*args, **kwargs):
                calls.record(f"JobManager.{name}",
                             getattr(real_manager, name), args, kwargs,
                             skip_self=True)
                return {"state": "done", "ready": True}
            return method

    monkeypatch.setattr(farm, "Farm", FakeFarm)
    monkeypatch.setattr(jobs, "JobManager", FakeManager)
    monkeypatch.setattr(queue, "WorkQueue", FakeQueue)
    return calls


def _policy(**kwargs):
    from repro.resilience.farm import FarmPolicy
    return FarmPolicy(**kwargs)


def _campaign_queue(path, **kwargs):
    default = _policy()
    return ("WorkQueue", {"dir": path, "lease_ttl": default.lease_ttl,
                          "backoff": default.backoff,
                          "host_id": kwargs.get("host_id"),
                          "max_skew": kwargs.get("max_skew", 2.0)})


def _figure_jobs(quick=True):
    from repro.experiments.runner import _MODULES
    return [("enqueue", {"id": name, "kind": "figure",
                         "payload": {"module":
                                     mod.__name__.rsplit(".", 1)[1],
                                     "quick": quick},
                         "priority": 0, "max_attempts": None,
                         "deadline": None, "memory_mb": None,
                         "stall_timeout": None})
            for name, mod in _MODULES]


def _batch_policy(**kwargs):
    from repro.service.batch import BatchPolicy
    base = {"deadline": None, "shed_above": None, "isolate": "auto",
            "allow_faults": False, "dedup": True}
    return BatchPolicy(**{**base, **kwargs})


def _isolation(**kwargs):
    from repro.resilience import IsolationPolicy
    return IsolationPolicy(**kwargs)


def _serve(host, offset):
    return [("Farm", {"queue": "shared-queue",
                      "policy": _policy(n_workers=2, lease_ttl=3.0,
                                        poll_interval=0.1,
                                        drain_when_idle=False,
                                        host_id=host, max_skew=1.0,
                                        clock_offset=offset),
                      "label": "serve"})]


def _parity_table():
    """(argv as written in CI/README, exit code, expected calls)."""
    requests = [{"method": "nope"}]
    any_ = mock.ANY
    rows = [
        # .github/workflows/ci.yml
        ("degrade-smoke --out degradation-ledger.json", 0,
         [("_degrade_smoke", {"out": "degradation-ledger.json"})]),
        ("chaos --rounds 3 --seed 7 --deadline 120 --out chaos-reports",
         0, [("run_chaos", {"rounds": 3, "seed": 7,
                            "out": "chaos-reports", "deadline": 120.0})]),
        ("figures --checkpoint-dir ckpt", 0,
         [("run_all", {"quick": True, "checkpoint_dir": "ckpt",
                       "resume": False})]),
        ("figures --checkpoint-dir ckpt --resume", 0,
         [("run_all", {"quick": True, "checkpoint_dir": "ckpt",
                       "resume": True})]),
        ("campaign --figures -j 4 --compare-serial --queue-dir farm-queue "
         "--ledger campaign-ledger.json --bench BENCH_farm.json", 0,
         [("run_all", {"quick": True, "stream": "<StringIO>"}),
          _campaign_queue("farm-queue")] + _figure_jobs() +
         [("Farm", {"queue": ("WorkQueue", "farm-queue"),
                    "policy": _policy(n_workers=4),
                    "label": "campaign", "kill_plan": None}),
          ("bench_from_journal", {"queue": ("WorkQueue", "farm-queue"),
                                  "wall_time": any_, "n_workers": 4}),
          ("write_bench_json", {"path": "BENCH_farm.json",
                                "record": any_})]),
        ("chaos --farm --rounds 3 --seed 7 -j 2 --kill-workers 2 "
         "--deadline 120 --out chaos-farm-reports", 0,
         [("run_chaos_farm", {"rounds": 3, "seed": 7,
                              "out": "chaos-farm-reports",
                              "deadline": 120.0, "n_workers": 2,
                              "kill_workers": 2, "queue_dir": None})]),
        ("serve --queue-dir shared-queue --host-id hostA -j 2 "
         "--lease-ttl 3 --max-skew 1 --clock-offset +5 --poll 0.1 "
         "--ledger ledger-hostA.json", 0, _serve("hostA", 5.0)),
        ("serve --queue-dir shared-queue --host-id hostB -j 2 "
         "--lease-ttl 3 --max-skew 1 --clock-offset -5 --poll 0.1 "
         "--ledger ledger-hostB.json", 0, _serve("hostB", -5.0)),
        ("campaign --merge-ledgers ledger-hostA.json,ledger-hostB.json "
         "--queue-dir shared-queue --ledger merged-ledger.json", 0,
         [("merge_ledgers", {"ledgers": [{}, {}]}),
          ("WorkQueue", {"dir": "shared-queue"}),
          ("audit_exactly_once",
           {"queue": ("WorkQueue", "shared-queue")})]),
        ("chaos --farm --hosts 2 --skew --partition --rounds 2 --seed 7 "
         "--out chaos-hosts-reports", 0,
         [("run_chaos_hosts", {"hosts": 2, "rounds": 2, "seed": 7,
                               "out": "chaos-hosts-reports",
                               "n_workers": 2, "skew": 5.0,
                               "partition": True, "deadline": 240.0,
                               "queue_dir": None})]),
        ("batch requests.jsonl --out envelopes-serial.jsonl --deadline 300 "
         "--ledger batch-ledger.json --bench BENCH_batch.json", 0,
         [("evaluate_batch", {"requests": requests,
                              "policy": _batch_policy(deadline=300.0)}),
          ("batch_bench_record", {"result": any_, "mode": "local",
                                  "n_workers": 1}),
          ("write_bench_json", {"path": "BENCH_batch.json",
                                "record": {}})]),
        ("batch requests.jsonl --farm -j 2 --queue-dir batch-queue "
         "--chunk-size 8 --out envelopes-farm.jsonl "
         "--ledger batch-farm-ledger.json", 0,
         [("evaluate_batch_farm",
           {"requests": requests,
            "policy": _batch_policy(chunk_size=8),
            "queue_dir": "batch-queue", "n_workers": 2, "chunk_size": 8,
            "stream": "<stderr>"})]),
        ("chaos --batch --requests 200 --faulted 20 --seed 0 "
         "--out chaos-batch-reports", 0,
         [("run_chaos_batch", {"requests": 200, "faulted": 20, "seed": 0,
                               "out": "chaos-batch-reports",
                               "deadline": 120.0})]),
        ("chaos --jobs --out chaos-jobs-reports", 0,
         [("run_chaos_jobs", {"n_steps": 40, "out": "chaos-jobs-reports",
                              "queue_dir": None, "deadline": 240.0})]),
        ("figures --bogus", 2, []),
        # README.md shell examples
        ("figures --isolate --deadline 900 --stall-timeout 60", 0,
         [("run_all", {"quick": True, "checkpoint_dir": None,
                       "resume": False,
                       "isolate": _isolation(deadline=900.0,
                                             stall_timeout=60.0)})]),
        ("campaign --figures -j 4 --queue-dir farm-queue "
         "--ledger campaign-ledger.json --bench BENCH_farm.json", 0,
         [_campaign_queue("farm-queue")] + _figure_jobs() +
         [("Farm", {"queue": ("WorkQueue", "farm-queue"),
                    "policy": _policy(n_workers=4),
                    "label": "campaign", "kill_plan": None}),
          ("bench_from_journal", {"queue": ("WorkQueue", "farm-queue"),
                                  "wall_time": any_, "n_workers": 4}),
          ("write_bench_json", {"path": "BENCH_farm.json",
                                "record": {}})]),
        ("figures --farm -j 4 --queue-dir farm-queue", 0,
         [("run_all_farm", {"quick": True, "n_workers": 4,
                            "queue_dir": "farm-queue"})]),
        ("serve --queue-dir farm-queue -j 4", 0,
         [("Farm", {"queue": "farm-queue",
                    "policy": _policy(n_workers=4, lease_ttl=15.0,
                                      poll_interval=0.25,
                                      drain_when_idle=False, host_id=None,
                                      max_skew=2.0, clock_offset=0.0),
                    "label": "serve"})]),
        ("chaos --farm --rounds 5 -j 2 --kill-workers 2", 0,
         [("run_chaos_farm", {"rounds": 5, "seed": 0,
                              "out": "chaos-reports", "deadline": 30.0,
                              "n_workers": 2, "kill_workers": 2,
                              "queue_dir": None})]),
    ]
    for host in ("hostA", "hostB"):
        rows.append(
            (f"serve --queue-dir /nfs/farm-queue --host-id {host} -j 4 "
             f"--ledger ledger-{host}.json", 0,
             [("Farm", {"queue": "/nfs/farm-queue",
                        "policy": _policy(n_workers=4, lease_ttl=15.0,
                                          poll_interval=0.25,
                                          drain_when_idle=False,
                                          host_id=host, max_skew=2.0,
                                          clock_offset=0.0),
                        "label": "serve"})]))
    rows += [
        ("campaign --merge-ledgers ledger-hostA.json,ledger-hostB.json "
         "--queue-dir /nfs/farm-queue --ledger merged-ledger.json", 0,
         [("merge_ledgers", {"ledgers": [{}, {}]}),
          ("WorkQueue", {"dir": "/nfs/farm-queue"}),
          ("audit_exactly_once",
           {"queue": ("WorkQueue", "/nfs/farm-queue")})]),
        ("campaign --retry-dead-letters --queue-dir /nfs/farm-queue", 0,
         [_campaign_queue("/nfs/farm-queue"),
          ("retry_dead_letters", {}),
          ("Farm", {"queue": ("WorkQueue", "/nfs/farm-queue"),
                    "policy": _policy(n_workers=4),
                    "label": "campaign", "kill_plan": None})]),
        ("chaos --farm --hosts 2 --skew --partition --rounds 2", 0,
         [("run_chaos_hosts", {"hosts": 2, "rounds": 2, "seed": 0,
                               "out": "chaos-reports", "n_workers": 2,
                               "skew": 5.0, "partition": True,
                               "deadline": 240.0, "queue_dir": None})]),
        ("jobs submit --queue-dir farm-queue solver_case "
         "'{\"case\": \"euler2d\", \"every_n_steps\": 5}'", 0,
         [("JobManager", {"queue_dir": "farm-queue"}),
          ("JobManager.submit", {"kind": "solver_case",
                                 "payload": {"case": "euler2d",
                                             "every_n_steps": 5},
                                 "job_id": None})]),
        ("serve --queue-dir farm-queue -j 2", 0,
         [("Farm", {"queue": "farm-queue",
                    "policy": _policy(n_workers=2, lease_ttl=15.0,
                                      poll_interval=0.25,
                                      drain_when_idle=False, host_id=None,
                                      max_skew=2.0, clock_offset=0.0),
                    "label": "serve"})]),
        ("jobs watch --queue-dir farm-queue job-ab12cd34ef56", 0,
         [("JobManager", {"queue_dir": "farm-queue"}),
          ("JobManager.watch", {"job_id": "job-ab12cd34ef56",
                                "stream": "<stdout>"})]),
        ("jobs result --queue-dir farm-queue job-ab12cd34ef56", 0,
         [("JobManager", {"queue_dir": "farm-queue"}),
          ("JobManager.result", {"job_id": "job-ab12cd34ef56"})]),
        ("jobs cancel --queue-dir farm-queue job-... --escalate-after 30",
         0, [("JobManager", {"queue_dir": "farm-queue"}),
             ("JobManager.cancel", {"job_id": "job-...",
                                    "escalate_after": 30.0})]),
        ("jobs gc --queue-dir farm-queue --ttl 3600 --keep-last 5", 0,
         [("JobManager", {"queue_dir": "farm-queue"}),
          ("JobManager.gc", {"ttl": 3600.0, "keep_last": 5})]),
        ("chaos --jobs", 0,
         [("run_chaos_jobs", {"n_steps": 40, "out": "chaos-reports",
                              "queue_dir": None, "deadline": 240.0})]),
        ("batch requests.jsonl --out envelopes.jsonl --deadline 120 "
         "--ledger batch-ledger.json --bench BENCH_batch.json", 0,
         [("evaluate_batch", {"requests": requests,
                              "policy": _batch_policy(deadline=120.0)}),
          ("batch_bench_record", {"result": any_, "mode": "local",
                                  "n_workers": 1}),
          ("write_bench_json", {"path": "BENCH_batch.json",
                                "record": {}})]),
        ("batch requests.jsonl --farm -j 4 --chunk-size 64 "
         "--queue-dir batch-queue --out envelopes.jsonl", 0,
         [("evaluate_batch_farm",
           {"requests": requests,
            "policy": _batch_policy(chunk_size=64),
            "queue_dir": "batch-queue", "n_workers": 4, "chunk_size": 64,
            "stream": "<stderr>"})]),
        ("batch requests.jsonl --shed-above 10000", 0,
         [("evaluate_batch", {"requests": requests,
                              "policy": _batch_policy(shed_above=10000)})]),
        ("chaos --batch --requests 200 --faulted 20 --seed 0", 0,
         [("run_chaos_batch", {"requests": 200, "faulted": 20, "seed": 0,
                               "out": "chaos-reports",
                               "deadline": 120.0})]),
        # stagnation has no shell example in CI or README
        ("stagnation 7000 60000 1", 0,
         [("stagnation_environment", {"V": 7000.0, "h": 60000.0,
                                      "nose_radius": 1.0})]),
    ]
    return rows


_PARITY = _parity_table()


def _documented_invocations():
    """Every ``python -m repro`` command line in the CI workflow and in
    README.md's shell examples, with continuations joined."""
    found = set()
    sources = [(ROOT / ".github/workflows/ci.yml").read_text(),
               "\n".join(line for line in
                         (ROOT / "README.md").read_text().splitlines()
                         if re.match(r"^[A-Z]?\$ |^>", line))]
    for text in sources:
        text = re.sub(r"\\\n[>\s]*", " ", text)
        for m in re.finditer(r"python -m repro ([^\n&|`]*)", text):
            line = re.split(r" #| > ", m.group(1))[0].strip()
            if "$" not in line:       # shell loops over commands
                found.add(" ".join(shlex.split(line)))
    return found


def test_parity_table_covers_the_documented_invocations():
    table = {" ".join(shlex.split(argv)) for argv, _, _ in _PARITY}
    missing = _documented_invocations() - table
    assert not missing, sorted(missing)


@pytest.mark.parametrize("argv,code,expected", _PARITY,
                         ids=[row[0][:60] for row in _PARITY])
def test_invocation_reaches_entry_point_with_exact_arguments(
        stubs, capsys, argv, code, expected):
    assert main(shlex.split(argv)) == code
    assert list(stubs) == expected


# ----------------------------------------------------------------------
# mode-only flags, per-command help, malformed campaign specs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["figures", "-j", "4"],
    ["chaos", "--steps", "40"],
    ["chaos", "--requests", "200"],
    ["chaos", "-j", "2"],
    ["chaos", "--kill-workers", "2"],
    ["chaos", "--batch", "--steps", "40"],
])
def test_mode_flag_at_its_default_still_needs_its_mode(monkeypatch,
                                                       capsys, argv):
    import repro.experiments.runner as runner
    import repro.resilience.chaos as rchaos
    import repro.service.chaos as schaos

    def forbidden(**kwargs):
        raise AssertionError(f"{argv} ran despite a usage error")
    monkeypatch.setattr(runner, "run_all", forbidden)
    monkeypatch.setattr(rchaos, "run_chaos", forbidden)
    monkeypatch.setattr(schaos, "run_chaos_batch", forbidden)
    assert main(argv) == 2
    assert "usage:" in capsys.readouterr().err


_COMMANDS = ["figures", "stagnation", "degrade-smoke", "chaos", "batch",
             "campaign", "serve", "jobs"]
_JOB_ACTIONS = ["submit", "status", "watch", "result", "cancel", "gc",
                "ledger"]


@pytest.mark.parametrize(
    "argv", [[c, "--help"] for c in _COMMANDS]
    + [["jobs", a, "--help"] for a in _JOB_ACTIONS],
    ids=lambda argv: " ".join(argv[:-1]))
def test_every_command_has_help(capsys, argv):
    assert main(argv) == 0
    assert "usage:" in capsys.readouterr().out


def test_top_level_help_lists_every_command_and_action(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in _COMMANDS + _JOB_ACTIONS:
        assert f"python -m repro {name}" in out \
            or f"python -m repro jobs {name}" in out, name


@pytest.mark.parametrize("specs,index", [
    ([{"kind": "sleep"}], 0),
    ([42], 0),
    ([{"id": "ok", "kind": "sleep"}, {"id": "a/b", "kind": "sleep"}], 1),
])
def test_malformed_campaign_spec_is_a_usage_error(tmp_path, capsys,
                                                  specs, index):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(specs))
    assert main(["campaign", "--jobs", str(path),
                 "--queue-dir", str(tmp_path / "q")]) == 2
    err = capsys.readouterr().err
    assert f"spec #{index}" in err and "usage:" in err
    assert not (tmp_path / "q").exists()   # rejected before any queue


def test_kill_workers_zero_is_the_campaign_default(stubs, tmp_path):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps([{"id": "s", "kind": "sleep"}]))
    assert main(["campaign", "--jobs", str(path), "--kill-workers",
                 "0"]) == 0
    farm_calls = [kw for name, kw in stubs if name == "Farm"]
    assert len(farm_calls) == 1 and farm_calls[0]["kill_plan"] is None
