"""Experiment specs, registry, and the observer-driven ``ExperimentRunner``.

An :class:`ExperimentSpec` packages one paper experiment -- a runner
callable, a converter from the runner's native return value to tabular rows,
and optional metadata extraction -- under a registry key.  The
:class:`ExperimentRunner` orchestrates execution: it resolves specs, merges
parameters, notifies observers (start, per-row, completion, failure) and
returns a typed :class:`~repro.api.results.ExperimentResult`.

Every paper experiment of :mod:`repro.evaluation.experiments` is
registered as a spec in :mod:`repro.api.specs`; custom experiments
register the same way::

    spec = ExperimentSpec(name="my_sweep", title="...", runner=my_fn,
                          to_rows=lambda raw: [...])
    register_experiment(spec)
    result = ExperimentRunner().run("my_sweep", depth=3)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    runtime_checkable,
)

from repro.api._registry import Registry, RegistryNotFoundError
from repro.api.results import ExperimentResult, json_sanitize


@runtime_checkable
class ExperimentObserver(Protocol):
    """Hook points the runner notifies during one experiment execution.

    Implementations may define any subset of the hooks; missing ones are
    skipped.  Because the underlying experiment implementations return their
    whole result at once, ``experiment_row`` events fire back-to-back after
    the computation finishes (they report the produced rows, not live
    progress inside the computation).
    """

    def experiment_started(self, name: str, params: Mapping[str, Any]) -> None: ...

    def experiment_row(self, name: str, index: int, row: Mapping[str, Any]) -> None: ...

    def experiment_completed(self, name: str, result: ExperimentResult) -> None: ...

    def experiment_failed(self, name: str, error: Exception) -> None: ...


class CallbackObserver:
    """Adapter turning plain callables into an :class:`ExperimentObserver`.

    Any hook may be omitted; ``on_row`` receives ``(name, index, row)`` which
    makes per-row progress callbacks a one-liner.
    """

    def __init__(self,
                 on_started: Optional[Callable[[str, Mapping[str, Any]], None]] = None,
                 on_row: Optional[Callable[[str, int, Mapping[str, Any]], None]] = None,
                 on_completed: Optional[Callable[[str, ExperimentResult], None]] = None,
                 on_failed: Optional[Callable[[str, Exception], None]] = None) -> None:
        self._on_started = on_started
        self._on_row = on_row
        self._on_completed = on_completed
        self._on_failed = on_failed

    def experiment_started(self, name: str, params: Mapping[str, Any]) -> None:
        if self._on_started:
            self._on_started(name, params)

    def experiment_row(self, name: str, index: int, row: Mapping[str, Any]) -> None:
        if self._on_row:
            self._on_row(name, index, row)

    def experiment_completed(self, name: str, result: ExperimentResult) -> None:
        if self._on_completed:
            self._on_completed(name, result)

    def experiment_failed(self, name: str, error: Exception) -> None:
        if self._on_failed:
            self._on_failed(name, error)


class PrintProgressObserver:
    """Minimal console progress reporter used by the examples and smoke test."""

    def __init__(self, stream: Any = None) -> None:
        self._stream = stream

    def _emit(self, message: str) -> None:
        # Resolve stdout at emit time so redirect_stdout/capsys still work
        # for observers constructed before the redirection.
        import sys
        print(message, file=self._stream if self._stream is not None else sys.stdout)

    def experiment_started(self, name: str, params: Mapping[str, Any]) -> None:
        self._emit(f"[{name}] started")

    def experiment_row(self, name: str, index: int, row: Mapping[str, Any]) -> None:
        self._emit(f"[{name}] row {index}")

    def experiment_completed(self, name: str, result: ExperimentResult) -> None:
        self._emit(f"[{name}] completed with {len(result.rows)} rows")

    def experiment_failed(self, name: str, error: Exception) -> None:
        self._emit(f"[{name}] FAILED: {error}")


def _one_row_per_mapping(raw: Any) -> List[Dict[str, Any]]:
    """Default ``to_rows``: a mapping becomes one row; a list, one per item."""
    if isinstance(raw, Mapping):
        return [dict(raw)]
    if isinstance(raw, Iterable) and not isinstance(raw, (str, bytes)):
        return [item if isinstance(item, dict) else {"value": item} for item in raw]
    return [{"value": raw}]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment.

    Attributes
    ----------
    name:
        Registry key (``"fig9_cycles"``, ...).
    title:
        Human-readable description (which paper figure/table it reproduces).
    runner:
        Callable executing the experiment; receives the merged parameters
        and returns the experiment's native ("raw") result object.
    to_rows:
        Converts the raw result into a list of plain-dict rows.
    to_meta:
        Optional extraction of experiment-level scalars from the raw result.
    defaults:
        Parameter defaults merged under the caller's overrides.
    tags:
        Free-form labels (``"fast"``, ``"training"``) used for selection.
    """

    name: str
    title: str
    runner: Callable[..., Any]
    to_rows: Callable[[Any], List[Dict[str, Any]]] = _one_row_per_mapping
    to_meta: Optional[Callable[[Any], Dict[str, Any]]] = None
    defaults: Mapping[str, Any] = field(default_factory=dict)
    tags: tuple = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("ExperimentSpec.name must be a non-empty string")
        if not callable(self.runner):
            raise ValueError(f"experiment {self.name!r}: runner must be callable")


class ExperimentNotFoundError(RegistryNotFoundError):
    """Requested experiment key is not in the registry."""

    kind = "experiment"


class DuplicateExperimentError(ValueError):
    """An experiment key is already taken and ``overwrite`` was not requested."""


_REGISTRY: Registry[ExperimentSpec] = Registry(
    "experiment", ExperimentNotFoundError, DuplicateExperimentError)


def register_experiment(spec: ExperimentSpec, *, overwrite: bool = False) -> ExperimentSpec:
    """Add a spec to the registry; duplicate keys raise unless ``overwrite``."""
    return _REGISTRY.register(spec.name, spec, overwrite=overwrite)


def unregister_experiment(name: str) -> None:
    """Remove an experiment key (primarily for tests); missing keys are ignored."""
    _REGISTRY.unregister(name)


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a registered spec by key."""
    return _REGISTRY.get(name)


def list_experiments(tag: str | None = None) -> List[str]:
    """Sorted registry keys, optionally filtered to one tag."""
    return [name for name in _REGISTRY.keys()
            if tag is None or tag in _REGISTRY.get(name).tags]


class ExperimentRunner:
    """Executes registered experiments and emits typed results.

    Observers receive structured events (started / per-row / completed /
    failed); failures propagate after notification, there is no
    catch-and-continue.
    """

    def __init__(self, observers: Iterable[Any] = ()) -> None:
        self._observers: List[Any] = list(observers)

    def add_observer(self, observer: Any) -> "ExperimentRunner":
        """Attach an observer; returns self for chaining."""
        self._observers.append(observer)
        return self

    # -- notification fan-out ------------------------------------------------------

    def _notify(self, hook: str, *args: Any) -> None:
        # Observers may implement only the hooks they care about.
        for observer in self._observers:
            method = getattr(observer, hook, None)
            if callable(method):
                method(*args)

    # -- execution -----------------------------------------------------------------

    def run(self, experiment: str | ExperimentSpec, **params: Any) -> ExperimentResult:
        """Run one experiment (by key or spec) and return its typed result."""
        spec = experiment if isinstance(experiment, ExperimentSpec) else get_experiment(experiment)
        merged = dict(spec.defaults)
        merged.update(params)

        self._notify("experiment_started", spec.name, dict(merged))
        try:
            raw = spec.runner(**merged)
            rows = [dict(json_sanitize(row)) for row in spec.to_rows(raw)]
            meta: Dict[str, Any] = {"title": spec.title}
            if spec.to_meta is not None:
                meta.update(json_sanitize(spec.to_meta(raw)))
        except Exception as error:
            self._notify("experiment_failed", spec.name, error)
            raise

        for index, row in enumerate(rows):
            self._notify("experiment_row", spec.name, index, row)

        result = ExperimentResult(
            experiment=spec.name,
            params=dict(json_sanitize(merged)),
            rows=rows,
            meta=meta,
            raw=raw,
        )
        self._notify("experiment_completed", spec.name, result)
        return result

    def run_many(self, names: Iterable[str],
                 params_by_name: Mapping[str, Mapping[str, Any]] | None = None
                 ) -> Dict[str, ExperimentResult]:
        """Run several registered experiments; returns results keyed by name."""
        results: Dict[str, ExperimentResult] = {}
        for name in names:
            overrides = dict((params_by_name or {}).get(name, {}))
            results[name] = self.run(name, **overrides)
        return results
