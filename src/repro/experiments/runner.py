"""Process-pool experiment runner.

The multi-configuration experiments are embarrassingly parallel: every
(parameter combination) is an independent simulation whose randomness is
fully determined by explicit seeds.  Each such experiment declares an
:class:`ExperimentPlan` — an ordered tuple of :class:`SubRun` descriptors,
each naming a module-level function and its keyword arguments — and
:func:`run_plan` executes the sub-runs either sequentially or fanned out
over a :class:`~concurrent.futures.ProcessPoolExecutor`.

Because a sub-run re-derives everything it needs (trace, streams, policy)
from its keyword arguments and seeds, executing it in a worker process
produces exactly the rows the sequential path produces; ``run_plan``
reassembles results in plan order, so the final table is identical for any
worker count.

Usage::

    from repro.experiments import figure07_09_thresholds
    result = run_plan(figure07_09_thresholds.plan(), workers=4)

or through the CLI: ``python -m repro.cli run figure07_09 --workers 4``.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.checks import at_least
from repro.experiments.base import ExperimentResult


@dataclass(frozen=True)
class SubRun:
    """One independent unit of an experiment.

    Parameters
    ----------
    label:
        Human-readable identifier, unique within the plan (used in errors
        and progress reporting).
    func:
        A **module-level** callable (it must be picklable for the process
        pool) returning this sub-run's result — usually a list of rows.
    kwargs:
        Keyword arguments passed to ``func``; they must be picklable and
        carry every seed the sub-run needs, so the result is deterministic
        regardless of which process executes it.
    """

    label: str
    func: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentPlan:
    """An experiment decomposed into independent, deterministic sub-runs.

    ``assemble`` (optional, runs in the parent process) turns the ordered
    list of sub-run results into the final :class:`ExperimentResult`; when
    omitted, sub-run results are assumed to be row lists and are
    concatenated in plan order.
    """

    experiment_id: str
    title: str
    columns: Sequence[str]
    subruns: Tuple[SubRun, ...]
    notes: str = ""
    assemble: Optional[Callable[[List[Any]], ExperimentResult]] = None

    def __post_init__(self) -> None:
        labels = [subrun.label for subrun in self.subruns]
        if len(set(labels)) != len(labels):
            raise ValueError("sub-run labels must be unique within a plan")


def execute_subrun(subrun: SubRun) -> Any:
    """Execute one sub-run in the current process."""
    return subrun.func(**subrun.kwargs)


def _assemble(plan: ExperimentPlan, results: List[Any]) -> ExperimentResult:
    if plan.assemble is not None:
        return plan.assemble(results)
    rows: List[Tuple] = []
    for result in results:
        rows.extend(result)
    return ExperimentResult(
        experiment_id=plan.experiment_id,
        title=plan.title,
        columns=plan.columns,
        rows=rows,
        notes=plan.notes,
    )


def run_plan(
    plan: ExperimentPlan,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Execute a plan's sub-runs and assemble the experiment result.

    Parameters
    ----------
    plan:
        The experiment decomposition to execute.
    workers:
        ``None``, ``0`` or ``1`` runs sequentially in-process; larger values
        fan the sub-runs out over that many worker processes.  The assembled
        result is identical either way (sub-runs are deterministic and
        results are reassembled in plan order).
    """
    if workers is not None:
        at_least("workers", workers, 0, finite=True)
    if not plan.subruns:
        return _assemble(plan, [])
    if workers is None or workers <= 1:
        results = [execute_subrun(subrun) for subrun in plan.subruns]
        return _assemble(plan, results)
    max_workers = min(workers, len(plan.subruns))
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        futures = [pool.submit(subrun.func, **subrun.kwargs) for subrun in plan.subruns]
        results = [future.result() for future in futures]
    return _assemble(plan, results)


def _worker_entry(target, parent_end, worker_end, args):
    """Child-side entry: drop the inherited parent pipe end, run the target.

    Under the fork start method the child inherits the parent's endpoint of
    its own pipe; without closing it here, the parent's
    ``close_connection()`` could never deliver EOF to a worker blocked on
    ``recv`` — its own inherited copy would keep the pipe alive.
    """
    parent_end.close()
    target(worker_end, *args)


class WorkerHandle:
    """One supervised worker process plus its parent pipe endpoint.

    The handle owns the process lifecycle: ``start`` spawns the target as
    ``target(connection, *args)``, ``restart`` replaces a dead or wedged
    worker with a fresh process running the same target (the caller is
    responsible for resyncing its state — see
    :class:`repro.serving.procs.ProcessPartitionPool`), and ``stop``
    escalates ``join(grace)`` → ``terminate()`` → ``kill()`` so no worker
    can outlive its pool.  ``force_stopped`` records the harshest measure
    that was needed (``"terminated"`` or ``"killed"``), for reporting.
    """

    def __init__(
        self,
        index: int,
        target: Callable[..., None],
        args: Tuple[Any, ...],
    ) -> None:
        self.index = index
        self.target = target
        self.args = args
        self.process: Optional[multiprocessing.Process] = None
        self.connection: Optional[Any] = None
        self.restarts = 0
        self.force_stopped: Optional[str] = None

    def start(self) -> None:
        """Spawn the worker process and wire up the duplex pipe."""
        parent_end, worker_end = multiprocessing.Pipe(duplex=True)
        process = multiprocessing.Process(
            target=_worker_entry,
            args=(self.target, parent_end, worker_end, self.args),
            daemon=True,
        )
        process.start()
        worker_end.close()
        self.process = process
        self.connection = parent_end

    def restart(self, grace: float = 5.0) -> None:
        """Replace the worker with a fresh process (same target and args)."""
        self.close_connection()
        self.stop(grace=grace)
        self.restarts += 1
        self.start()

    def is_alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def send(self, payload: Any) -> None:
        if self.connection is None:
            raise BrokenPipeError("worker connection is closed")
        self.connection.send(payload)

    def recv(self) -> Any:
        if self.connection is None:
            raise EOFError("worker connection is closed")
        return self.connection.recv()

    def close_connection(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None

    def stop(self, grace: float = 5.0) -> Optional[str]:
        """Stop the process, escalating join → terminate → kill.

        Returns the escalation that was needed (``None`` for a clean join)
        and records it in ``force_stopped``.  Safe to call on an already
        dead or never-started worker.
        """
        process = self.process
        if process is None:
            return None
        escalation: Optional[str] = None
        process.join(timeout=grace)
        if process.is_alive():
            process.terminate()
            process.join(timeout=grace)
            escalation = "terminated"
        if process.is_alive():  # pragma: no cover - SIGTERM-immune worker
            process.kill()
            process.join(timeout=grace)
            escalation = "killed"
        if escalation is not None:
            self.force_stopped = escalation
        self.process = None
        return escalation


def plan_registry() -> Dict[str, Callable[[], ExperimentPlan]]:
    """Return the experiments that declare parallelisable plans.

    Keys match :func:`repro.experiments.base.registry` ids; values are
    zero-argument factories producing the default-scale plan.  Experiments
    absent here (single-simulation reproductions) only run sequentially.
    """
    from repro.experiments import (
        ablations,
        figure04_05_timeseries,
        figure07_09_thresholds,
        figure10_13_exact,
        section44_sensitivity,
        section45_variations,
    )

    return {
        "figure04_05": figure04_05_timeseries.plan,
        "figure07_09": figure07_09_thresholds.plan,
        "figure10_13": figure10_13_exact.plan,
        "section44": section44_sensitivity.plan,
        "section45": section45_variations.plan,
        "ablations": ablations.plan,
    }
