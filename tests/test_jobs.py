"""Asynchronous-job subsystem tests.

The contract under test (ISSUE 10 acceptance criteria and DESIGN.md
§9):

* ``submit`` returns a durable job id immediately; the state record at
  ``work/<id>/jobstate.json`` walks ``pending → claimed → running →
  checkpointing → done | failed | cancelled`` atomically and every
  transition is journaled,
* transitions are fenced by the queue's lease tokens: a writer whose
  lease was lost (or a client racing a live attempt) cannot commit,
* terminal states are exclusive (at most one per life) and ``failed``
  is resurrectable only through the dead-letter-retry edge,
* cancellation is cooperative first (flag file acknowledged by the
  marching supervisor, answered with a durable snapshot) and the job
  ends ``cancelled``, not ``failed``,
* dead attempts are detected by lease reaping and the requeued attempt
  auto-resumes from the latest snapshot generation, bitwise-identical
  to an uninterrupted reference,
* ``gc`` removes finished-job artifacts past TTL honoring keep-last
  retention and never touches live jobs,
* ``audit_job_transitions`` proves the merged journal history legal.
"""

import json
import os
import time

import pytest

from repro.errors import InputError
from repro.resilience.farm import Farm, FarmPolicy, state_fingerprint
from repro.resilience.queue import BackoffPolicy, Job, WorkQueue
from repro.service.jobs import (CANCELLED, CHECKPOINTING, CLAIMED, DONE,
                                FAILED, JOB_TERMINAL, JOB_TRANSITIONS,
                                PENDING, RUNNING, JobManager,
                                audit_job_transitions, commit_transition,
                                read_record, run_async_attempt)

FAST = BackoffPolicy(max_attempts=3, base=0.01, factor=2.0,
                     max_delay=0.05, jitter=0.5)


def drain(queue_dir, **kw):
    """Run a small farm until the queue is empty."""
    kw.setdefault("n_workers", 1)
    kw.setdefault("poll_interval", 0.05)
    kw.setdefault("lease_ttl", 5.0)
    kw.setdefault("backoff", FAST)
    with open(os.devnull, "w") as null:
        Farm(queue_dir, FarmPolicy(**kw), label="test",
             stream=null).run()


# ----------------------------------------------------------------------
# state machine mechanics
# ----------------------------------------------------------------------


class TestStateMachine:
    def test_transition_table_shape(self):
        # every state appears; terminals exit only via the resurrect
        # edge (failed -> pending, the dead-letter retry)
        assert JOB_TRANSITIONS[DONE] == frozenset()
        assert JOB_TRANSITIONS[CANCELLED] == frozenset()
        assert JOB_TRANSITIONS[FAILED] == frozenset((PENDING,))
        for frm, tos in JOB_TRANSITIONS.items():
            assert frm not in tos  # no self-loops

    def test_legal_walk_commits_and_journals(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        for to in (PENDING, CLAIMED, RUNNING, CHECKPOINTING, RUNNING,
                   DONE):
            assert commit_transition(q, "j1", to, by="t", kind="sleep")
        rec = read_record(q, "j1")
        assert rec["state"] == DONE
        assert rec["transitions"] == 6
        walked = [(r["frm"], r["to"]) for r in q.read_journal()
                  if r.get("event") == "job-transition"]
        assert walked[0] == (None, PENDING)
        assert walked[-1] == (RUNNING, DONE)
        assert audit_job_transitions(q)["ok"]

    def test_illegal_transition_refused_and_journaled(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        commit_transition(q, "j1", PENDING, by="t")
        assert not commit_transition(q, "j1", CHECKPOINTING, by="t")
        assert read_record(q, "j1")["state"] == PENDING
        assert any(r.get("event") == "job-illegal"
                   for r in q.read_journal())

    def test_unknown_state_raises(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        with pytest.raises(InputError):
            commit_transition(q, "j1", "paused", by="t")

    def test_terminal_is_exclusive(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        for to in (PENDING, CLAIMED, RUNNING, DONE):
            assert commit_transition(q, "j1", to, by="t")
        # no edge leaves done; even a would-be second terminal writer
        # bounces off the O_EXCL marker before legality is consulted
        assert not commit_transition(q, "j1", CANCELLED, by="racer")
        assert read_record(q, "j1")["state"] == DONE
        audit = audit_job_transitions(q)
        assert audit["ok"], audit

    def test_lease_token_fences_stale_writer(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        q.enqueue(Job(id="j1", kind="sleep"))
        commit_transition(q, "j1", PENDING, by="client")
        job, lease = q.claim("w0")
        # the holder's token commits; a wrong token and the no-lease
        # (client) credential are both fenced while the lease lives
        assert commit_transition(q, "j1", CLAIMED, by="w0",
                                 token=lease.token)
        assert not commit_transition(q, "j1", RUNNING, by="stale",
                                     token="deadbeef")
        assert not commit_transition(q, "j1", RUNNING, by="client")
        q.leases.release(lease)
        # lease gone: the stale holder's token is now fenced too
        assert not commit_transition(q, "j1", RUNNING, by="w0",
                                     token=lease.token)
        fenced = [r for r in q.read_journal()
                  if r.get("event") == "job-fenced"]
        assert len(fenced) == 3

    def test_torn_record_rebuilt_from_journal(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        for to in (PENDING, CLAIMED, RUNNING):
            commit_transition(q, "j1", to, by="t", kind="sleep")
        path = os.path.join(q.job_workdir("j1"), "jobstate.json")
        with open(path, "w") as f:
            f.write('{"id": "j1", "state": "runn')  # torn write
        rec = read_record(q, "j1")
        assert rec is not None and rec["state"] == RUNNING
        assert rec["transitions"] == 3
        assert any(r.get("event") == "job-state-rebuilt"
                   for r in q.read_journal())

    def test_resurrect_edge_rearms_terminal_gate(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        for to in (PENDING, CLAIMED, RUNNING, FAILED):
            commit_transition(q, "j1", to, by="t")
        marker = os.path.join(q.job_workdir("j1"), "terminal.lock")
        assert os.path.exists(marker)
        assert commit_transition(q, "j1", PENDING, by="retry")
        assert not os.path.exists(marker)  # gate re-armed
        for to in (CLAIMED, RUNNING, DONE):
            assert commit_transition(q, "j1", to, by="t")
        audit = audit_job_transitions(q)
        assert audit["ok"], audit  # failed -> pending -> ... -> done

    def test_audit_flags_illegal_history(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        # forge a journal with an illegal edge and a post-terminal write
        q.journal("job-transition", job="bad", frm=None, to=PENDING)
        q.journal("job-transition", job="bad", frm=PENDING,
                  to=CHECKPOINTING)
        q.journal("job-transition", job="worse", frm=None, to=PENDING)
        q.journal("job-transition", job="worse", frm=PENDING, to=DONE)
        q.journal("job-transition", job="worse", frm=DONE, to=RUNNING)
        audit = audit_job_transitions(q)
        assert not audit["ok"]
        kinds = {v["kind"] for v in audit["violations"]}
        assert "illegal-edge" in kinds and "after-terminal" in kinds


# ----------------------------------------------------------------------
# the client surface
# ----------------------------------------------------------------------


class TestJobManager:
    def test_submit_returns_id_immediately_and_is_idempotent(
            self, tmp_path):
        mgr = JobManager(tmp_path / "q")
        sub = mgr.submit("sleep", {"duration": 0.01})
        assert sub["fresh"] and sub["state"] == PENDING
        assert sub["job"].startswith("job-")
        again = mgr.submit("sleep", {"duration": 0.01})
        assert again["job"] == sub["job"] and not again["fresh"]
        other = mgr.submit("sleep", {"duration": 0.02})
        assert other["job"] != sub["job"]  # content-addressed ids

    def test_unknown_kind_rejected(self, tmp_path):
        mgr = JobManager(tmp_path / "q")
        with pytest.raises(InputError):
            mgr.submit("warp-drive", {})
        with pytest.raises(InputError):
            mgr.submit("async", {})  # no recursive wrapping

    def test_status_unknown_job_raises(self, tmp_path):
        mgr = JobManager(tmp_path / "q")
        with pytest.raises(InputError):
            mgr.status("nope")

    def test_submit_run_status_result(self, tmp_path):
        mgr = JobManager(tmp_path / "q")
        sub = mgr.submit("sleep", {"duration": 0.02}, job_id="s1")
        assert mgr.result("s1") == {"job": "s1", "state": PENDING,
                                    "ready": False}
        drain(tmp_path / "q")
        st = mgr.status("s1")
        assert st["state"] == DONE and st["queue_status"] == "done"
        res = mgr.result("s1")
        assert res["ready"] and res["result"] == {"slept": 0.02}
        led = mgr.ledger()
        assert led["audit"]["ok"] and led["transitions_audit"]["ok"]
        assert led["by_state"] == {DONE: 1}

    def test_failed_job_reports_error(self, tmp_path):
        mgr = JobManager(tmp_path / "q")
        mgr.submit("flaky", {"fail_first": 99}, job_id="f1",
                   max_attempts=2)
        drain(tmp_path / "q")
        st = mgr.status("f1")
        assert st["state"] == FAILED
        res = mgr.result("f1")
        assert res["ready"] and res["state"] == FAILED and res["error"]

    def test_cancel_before_start_terminalizes(self, tmp_path):
        mgr = JobManager(tmp_path / "q")
        mgr.submit("sleep", {"duration": 30.0}, job_id="c1")
        out = mgr.cancel("c1", reason="nevermind")
        assert out["state"] == CANCELLED and not out["escalated"]
        # the queue still executes the attempt, which acknowledges the
        # flag without burning compute, and the audits stay clean
        drain(tmp_path / "q")
        res = mgr.result("c1")
        assert res["state"] == CANCELLED and res["reason"] == "nevermind"
        led = mgr.ledger()
        assert led["audit"]["ok"] and led["transitions_audit"]["ok"]

    def test_watch_streams_until_terminal(self, tmp_path, capsys):
        import io
        mgr = JobManager(tmp_path / "q")
        mgr.submit("sleep", {"duration": 0.01}, job_id="w1")
        drain(tmp_path / "q")
        buf = io.StringIO()
        st = mgr.watch("w1", timeout=5.0, poll=0.05, stream=buf)
        assert st["state"] == DONE
        lines = [json.loads(x) for x in
                 buf.getvalue().strip().splitlines()]
        assert lines and lines[-1]["state"] == DONE

    def test_gc_retention(self, tmp_path):
        mgr = JobManager(tmp_path / "q")
        for i in range(3):
            mgr.submit("sleep", {"duration": 0.01}, job_id=f"g{i}")
        mgr.submit("flaky", {"fail_first": 99}, job_id="gf",
                   max_attempts=2)
        mgr.submit("sleep", {"duration": 0.01}, job_id="live")
        drain(tmp_path / "q")
        # make "live" non-terminal again: forge a fresh pending job
        mgr.submit("sleep", {"duration": 9.0}, job_id="pending-one")
        swept = mgr.gc(ttl=3600.0)
        assert swept["n_collected"] == 0  # nothing old enough
        swept = mgr.gc(ttl=0.0, keep_last=2)
        # failed kept (no --include-failed), 2 most recent kept
        assert "gf" not in swept["collected"]
        assert "pending-one" not in swept["collected"]
        assert len(swept["retained"]) == 2
        swept = mgr.gc(ttl=0.0, include_failed=True)
        assert set(mgr.queue.job_ids()) == {"pending-one"}
        workdirs = os.listdir(mgr.queue.work_dir)
        assert set(workdirs) <= {"pending-one"}

    def test_dead_attempt_requeues_via_sync(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST, lease_ttl=0.2)
        mgr = JobManager(tmp_path / "q", lease_ttl=0.2)
        mgr.submit("sleep", {"duration": 0.01}, job_id="d1")
        job, lease = q.claim("doomed")
        assert commit_transition(q, "d1", CLAIMED, by="doomed",
                                 token=lease.token)
        assert commit_transition(q, "d1", RUNNING, by="doomed",
                                 token=lease.token)
        # the holder dies silently; past the ttl sync() reaps the lease
        # and folds the orphaned attempt state back to pending
        time.sleep(0.3)
        rec = mgr.sync("d1")
        assert rec["state"] == PENDING
        assert mgr.queue.state("d1")["status"] == "pending"
        assert audit_job_transitions(mgr.queue)["ok"]


# ----------------------------------------------------------------------
# the attempt executor
# ----------------------------------------------------------------------


class TestRunAsyncAttempt:
    def _ctx(self, q, job_id, lease=None):
        workdir = q.job_workdir(job_id)
        return {"workdir": workdir,
                "ckpt_dir": os.path.join(workdir, "ckpt"),
                "queue_dir": q.dir, "job_id": job_id,
                "lease_token": lease.token if lease else None,
                "worker": "t0"}

    def test_attempt_walks_the_state_machine(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        q.enqueue(Job(id="a1", kind="async",
                      payload={"kind": "sleep",
                               "payload": {"duration": 0.01}}))
        commit_transition(q, "a1", PENDING, by="client", kind="sleep")
        job, lease = q.claim("t0")
        out = run_async_attempt(job.payload, self._ctx(q, "a1", lease))
        assert out["cancelled"] is False
        assert out["result"] == {"slept": 0.01}
        assert read_record(q, "a1")["state"] == DONE

    def test_unknown_inner_kind_raises(self, tmp_path):
        from repro.errors import SolverError
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        q.enqueue(Job(id="a1", kind="async",
                      payload={"kind": "nope", "payload": {}}))
        job, lease = q.claim("t0")
        with pytest.raises(SolverError):
            run_async_attempt(job.payload, self._ctx(q, "a1", lease))

    def test_cancel_flag_acknowledged_before_compute(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        q.enqueue(Job(id="a1", kind="async",
                      payload={"kind": "sleep",
                               "payload": {"duration": 60.0}}))
        commit_transition(q, "a1", PENDING, by="client", kind="sleep")
        with open(os.path.join(q.job_workdir("a1"),
                               "cancel.json"), "w") as f:
            json.dump({"reason": "late veto"}, f)
        job, lease = q.claim("t0")
        t0 = time.monotonic()
        out = run_async_attempt(job.payload, self._ctx(q, "a1", lease))
        assert out["cancelled"] and time.monotonic() - t0 < 5.0
        assert read_record(q, "a1")["state"] == CANCELLED

    def test_stale_attempt_state_reconciled(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        q.enqueue(Job(id="a1", kind="async",
                      payload={"kind": "sleep",
                               "payload": {"duration": 0.01}}))
        # a killed predecessor left the record mid-attempt
        for to in (PENDING, CLAIMED, RUNNING):
            commit_transition(q, "a1", to, by="ghost", kind="sleep")
        job, lease = q.claim("t0")
        out = run_async_attempt(job.payload, self._ctx(q, "a1", lease))
        assert out["cancelled"] is False
        assert read_record(q, "a1")["state"] == DONE
        assert audit_job_transitions(q)["ok"]


# ----------------------------------------------------------------------
# marching jobs: progress, checkpoint transitions, resume parity
# ----------------------------------------------------------------------


class TestMarchingJobs:
    def test_solver_march_publishes_progress_and_snapshots(
            self, tmp_path):
        from repro.resilience.chaos import CASES
        mgr = JobManager(tmp_path / "q")
        mgr.submit("solver_case",
                   {"case": "euler1d", "every_n_steps": 3},
                   job_id="m1")
        drain(tmp_path / "q", snapshot_every=3)
        st = mgr.status("m1")
        assert st["state"] == DONE
        assert st["snapshots"]["generations"] >= 1
        prog = st["progress"]
        assert prog is not None and prog["step"] >= 1
        assert prog["label"]  # supervisor label made it to the channel
        # checkpointing round-trips are journaled as real transitions
        walked = [(r["frm"], r["to"])
                  for r in mgr.queue.read_journal()
                  if r.get("event") == "job-transition"
                  and r.get("job") == "m1"]
        assert (RUNNING, CHECKPOINTING) in walked
        assert (CHECKPOINTING, RUNNING) in walked
        assert audit_job_transitions(mgr.queue)["ok"]
        # and the march result is bitwise-identical to a direct run
        factory, run_kwargs, _, _ = CASES["euler1d"]
        ref = factory()
        ref.run(**run_kwargs)
        res = mgr.result("m1")
        assert res["result"]["state_sha256"] == state_fingerprint(ref)


# ----------------------------------------------------------------------
# the CLI
# ----------------------------------------------------------------------


class TestJobsCLI:
    def _run(self, *argv):
        from repro.__main__ import main
        return main(list(argv))

    def test_submit_status_result_gc_roundtrip(self, tmp_path, capsys):
        qd = str(tmp_path / "q")
        code = self._run("jobs", "submit", "--queue-dir", qd, "sleep",
                         '{"duration": 0.01}', "--id", "cli1")
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["job"] == "cli1" and out["state"] == PENDING
        drain(qd)
        assert self._run("jobs", "status", "--queue-dir", qd,
                         "cli1") == 0
        st = json.loads(capsys.readouterr().out)
        assert st["state"] == DONE
        assert self._run("jobs", "result", "--queue-dir", qd,
                         "cli1") == 0
        res = json.loads(capsys.readouterr().out)
        assert res["result"] == {"slept": 0.01}
        assert self._run("jobs", "ledger", "--queue-dir", qd) == 0
        led = json.loads(capsys.readouterr().out)
        assert led["audit"]["ok"] and led["transitions_audit"]["ok"]
        assert self._run("jobs", "gc", "--queue-dir", qd, "--ttl",
                         "0") == 0
        swept = json.loads(capsys.readouterr().out)
        assert swept["collected"] == ["cli1"]

    def test_cancel_exits_zero(self, tmp_path, capsys):
        qd = str(tmp_path / "q")
        self._run("jobs", "submit", "--queue-dir", qd, "sleep",
                  '{"duration": 30}', "--id", "cli2")
        capsys.readouterr()
        assert self._run("jobs", "cancel", "--queue-dir", qd,
                         "cli2") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["state"] == CANCELLED

    def test_failed_job_exits_one(self, tmp_path, capsys):
        qd = str(tmp_path / "q")
        self._run("jobs", "submit", "--queue-dir", qd, "flaky",
                  '{"fail_first": 99}', "--id", "cli3",
                  "--max-attempts", "2")
        drain(qd)
        capsys.readouterr()
        assert self._run("jobs", "result", "--queue-dir", qd,
                         "cli3") == 1

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        qd = str(tmp_path / "q")
        assert self._run("jobs") == 2
        assert self._run("jobs", "teleport", "--queue-dir", qd) == 2
        assert self._run("jobs", "status", "--queue-dir", qd) == 2
        assert self._run("jobs", "submit", "--queue-dir", qd, "sleep",
                         "not json") == 2
        assert self._run("jobs", "submit", "sleep") == 2  # no queue
        # another action's flag is that action's usage error
        assert self._run("jobs", "gc", "--queue-dir", qd, "--wait",
                         "3") == 2
        assert self._run("jobs", "submit", "--queue-dir", qd, "sleep",
                         "--ttl", "5") == 2
        assert self._run("jobs", "status", "--queue-dir", qd, "x",
                         "--ttl", "5") == 2
        assert "usage: python -m repro jobs status" in \
            capsys.readouterr().err

    def test_api_submit_async_handle(self, tmp_path):
        from repro.core import submit_async
        handle = submit_async("sleep", {"duration": 0.01},
                              queue_dir=str(tmp_path / "q"))
        assert handle.status()["state"] == PENDING
        drain(str(tmp_path / "q"))
        assert handle.result()["result"] == {"slept": 0.01}
