"""The base every marching solver (``euler1d``, ``euler2d``/``ns2d``,
``reacting_euler2d``) shares.

:class:`QuarantineMixin` holds

* the **march entry** :meth:`QuarantineMixin._march` behind every
  ``run()``: the single unsupervised loop, the single ``converged`` rule
  and the only construction of
  :class:`~repro.resilience.supervisor.RunSupervisor`;
* the **state protocol**: a solver declares its restorable marching
  state as the class tuple ``state_attrs``, and the generic
  ``get_state``/``set_state`` feed both the rollback checkpoints and
  the durable snapshots;
* the numerics-ladder **quarantine**: a boolean ``quarantined_cells``
  mask that the reconstruction passes to
  :func:`repro.numerics.muscl.muscl_interface_states` as
  ``first_order_mask``.  It is deliberately *not* in ``state_attrs``: a
  rollback restores the flow field but keeps the quarantine, which is
  what makes the degraded retry differ from the ones that failed;
* the **progress hook** :meth:`QuarantineMixin.progress`, a JSON-able
  snapshot (steps, time, latest residual) the supervisor merges into
  every heartbeat, so ``python -m repro jobs status`` shows live march
  progress without touching the child process.
"""

from __future__ import annotations

import numpy as np

__all__ = ["QuarantineMixin"]


def _detached(v):
    """``v`` with no storage shared with the live solver (arrays and
    lists are copied; scalars are immutable)."""
    if isinstance(v, np.ndarray):
        return v.copy()
    return list(v) if isinstance(v, list) else v


class QuarantineMixin:
    """March entry, declared state and local first-order quarantine."""

    #: Attributes that make up the restorable marching state, in
    #: snapshot order; each solver declares its own.
    state_attrs: tuple[str, ...] = ()

    #: Boolean cell mask of the quarantine zone (None = none); masked
    #: cells reconstruct first order.
    quarantined_cells = None

    def quarantine(self, mask=None) -> int:
        """Flag cells for first-order reconstruction; ``None`` flags the
        whole domain.  Returns the number of *newly* flagged cells (0
        when the mask adds nothing — the degradation controller then
        falls through to the next rung)."""
        shape = np.asarray(self.U).shape[:-1]
        if mask is None:
            mask = np.ones(shape, dtype=bool)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != shape:
            raise ValueError(f"quarantine mask shape {mask.shape} != "
                             f"cell shape {shape}")
        if self.quarantined_cells is None:
            self.quarantined_cells = mask.copy()
            return int(mask.sum())
        new = mask & ~self.quarantined_cells
        self.quarantined_cells = self.quarantined_cells | mask
        return int(new.sum())

    def clear_quarantine(self):
        """Lift the quarantine entirely (full re-promotion)."""
        self.quarantined_cells = None

    def progress(self) -> dict:
        """Live march-progress snapshot for the heartbeat channel."""
        out = {"steps": int(getattr(self, "steps", 0) or 0),
               "t": float(getattr(self, "t", 0.0) or 0.0)}
        hist = getattr(self, "residual_history", None)
        if hist is not None and len(hist):
            out["residual"] = float(hist[-1])
        return out

    # ------------------------------------------------------------------
    # state protocol
    # ------------------------------------------------------------------

    def get_state(self) -> dict:
        """Restorable marching state (see :mod:`repro.resilience`): every
        ``state_attrs`` entry that is not None, arrays and lists copied."""
        values = {name: getattr(self, name, None)
                  for name in self.state_attrs}
        return {name: _detached(v) for name, v in values.items()
                if v is not None}

    def set_state(self, state: dict):
        """Assign every key of a :meth:`get_state` dict back."""
        for name, v in state.items():
            setattr(self, name, v)

    # ------------------------------------------------------------------
    # march entry
    # ------------------------------------------------------------------

    def _march(self, step, *, n_steps, cfl, tol=None, stop=None,
               run_kwargs, label, resilience=None, faults=None,
               persist=None, watchdog=None, degradation=None,
               heartbeat=None):
        """Call ``step(cfl) -> residual | None`` up to ``n_steps`` times
        in this call: the one march behind every solver's ``run()``.

        The march ends early once ``stop()`` is true (transient runs) or
        a residual drops below ``tol`` (steady runs), and
        ``self.converged`` is exactly that: ``stop()`` is true, or the
        last residual is below ``tol``.

        The six supervision keywords are shared by every ``run()``; any
        of them runs the march under a
        :class:`repro.resilience.RunSupervisor` labelled ``label``, whose
        durable snapshots store ``run_kwargs`` so the same ``run(...)``
        can be re-issued:

        * ``resilience`` — a :class:`~repro.resilience.RetryPolicy`
          (anything else, e.g. ``True``: the defaults): checkpoints,
          per-step state guards, rollback with CFL backoff, and a
          :class:`~repro.resilience.FailureReport` on exhaustion;
        * ``faults`` — a :class:`~repro.resilience.FaultInjector` of
          deterministic test faults;
        * ``persist`` — a :class:`~repro.resilience.PersistencePolicy`
          or a directory: durable snapshots a crashed march resumes from
          (:func:`repro.resilience.persistence.resume_run`);
        * ``watchdog`` — ``True`` or a
          :class:`~repro.resilience.WatchdogPolicy`: per-step audit of
          conservation budgets, species bounds and entropy (events on
          ``self.watchdog_events``);
        * ``degradation`` — ``True`` or a
          :class:`~repro.resilience.DegradationPolicy`: quarantined
          first-order reconstruction, then any physics ladder, before a
          failing run aborts (ledger on ``self.degradation_ledger``);
        * ``heartbeat`` — a :class:`~repro.resilience.Heartbeat` beaten
          every step, so a sandboxing parent
          (:class:`~repro.resilience.IsolatedRunner`) can tell a slow
          march from a hung one.

        Unsupervised, the march is a bare loop: no checkpoint captures
        on the hot path.
        """
        if any(x is not None for x in (resilience, faults, persist,
                                       watchdog, degradation, heartbeat)):
            from repro.resilience import RetryPolicy, RunSupervisor
            policy = (resilience if isinstance(resilience, RetryPolicy)
                      else RetryPolicy())
            sup = RunSupervisor(self, policy, faults=faults, label=label,
                                persist=persist, watchdog=watchdog,
                                degradation=degradation,
                                heartbeat=heartbeat)
            sup.march(step, n_steps=n_steps, cfl=cfl, tol=tol, stop=stop,
                      run_kwargs=run_kwargs)
            return self
        res = None
        for _ in range(n_steps):
            if stop is not None and stop():
                break
            res = step(cfl)
            if tol is not None and res is not None and res < tol:
                break
        self.converged = bool((stop is not None and stop())
                              or (tol is not None and res is not None
                                  and res < tol))
        return self
