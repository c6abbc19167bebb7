"""Workload registry: pluggable traffic/mobility scenario models.

The paper's Section 5.1 workload (exponential arrivals, uniform
destinations, one mobility pattern) is a single point in a much larger
scenario space -- and the protocol rankings of the figures are known to
be sensitive to traffic and mobility shape.  This registry makes the
workload a named, parameterized model the driver consults per decision,
mirroring the protocol registry of :mod:`repro.engine.registry`:

* :class:`WorkloadModel` -- the base class; three hooks shape a run:
  :meth:`~WorkloadModel.arrival_delay` (when the next application
  operation fires), :meth:`~WorkloadModel.choose_destination` (where a
  send goes) and :meth:`~WorkloadModel.residence_scale` (a multiplier
  on cell-residence times).  The defaults implement the paper's model
  exactly, so the registered ``"paper"`` entry is bit-identical to the
  pre-registry driver.
* :func:`register_workload` -- class decorator adding a model under a
  name; the builtins live in :mod:`repro.workload.models`.
* :func:`get_workload` / :func:`make_workload` -- resolution with the
  same did-you-mean ergonomics as unknown protocols
  (:class:`UnknownWorkloadError`).
* :func:`parse_workload_spec` / :func:`resolve_workload_spec` -- the
  CLI's ``NAME[:key=value,...]`` spec syntax.

Models declare their parameters as :class:`Param` specs (default +
caster + docstring), so CLI strings and programmatic values coerce
identically and typos fail with :class:`WorkloadParamError` before
anything runs.

Layering: this module must not import :mod:`repro.engine` (the engine
imports the workload package at module level); the errors here subclass
:class:`ValueError` directly so every consumer that catches the
engine's ``ValueError``-based errors keeps working.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.des.rng import RandomStreams
    from repro.workload.config import WorkloadConfig


class WorkloadError(ValueError):
    """Base class of workload-registry misuse errors."""


def _suggest(name: str, known) -> tuple[str, ...]:
    """Closest registered names to *name* (case-insensitive)."""
    by_fold = {k.casefold(): k for k in known}
    matches = difflib.get_close_matches(
        name.casefold(), list(by_fold), n=3, cutoff=0.5
    )
    return tuple(by_fold[m] for m in matches)


class UnknownWorkloadError(WorkloadError):
    """A requested workload name is not registered.

    Mirrors :class:`repro.engine.errors.UnknownProtocolError`: the
    message carries closest-match suggestions and every known name, so
    the CLI, ``RunSpec`` planning and ``SweepConfig.validate`` all fail
    with the same actionable text.
    """

    def __init__(self, name: str, known):
        self.name = name
        self.known = tuple(sorted(known))
        self.suggestions = _suggest(name, self.known)
        hint = (
            f"; did you mean {' or '.join(repr(s) for s in self.suggestions)}?"
            if self.suggestions
            else ""
        )
        super().__init__(
            f"unknown workload {name!r}{hint}; known: {list(self.known)}"
        )


class WorkloadParamError(WorkloadError):
    """A workload parameter is unknown, missing or uninterpretable."""


def cast_bool(value: Any) -> bool:
    """Boolean caster accepting CLI spellings (true/false/1/0/...)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        v = value.strip().casefold()
        if v in ("1", "true", "yes", "on"):
            return True
        if v in ("0", "false", "no", "off"):
            return False
    raise ValueError(f"not a boolean: {value!r}")


@dataclass(frozen=True)
class Param:
    """Declaration of one workload-model parameter."""

    default: Any = None
    cast: Callable[[Any], Any] = float
    doc: str = ""
    required: bool = False


class WorkloadModel:
    """Base workload model; the defaults are the paper's Section 5.1.

    Subclasses override any of the three hooks and declare their knobs
    in :attr:`PARAMS`; construction coerces the supplied parameters
    through the declared casters (so CLI strings and typed values are
    interchangeable) and calls :meth:`_setup`.

    Models may keep per-host state (see the bursty model) -- one
    instance drives exactly one simulation.  Determinism contract: a
    hook may only draw from *rng* using stable stream names and must
    make the same draws for the same (config, call sequence), so a
    seeded run stays reproducible.
    """

    #: Registered name (set by :func:`register_workload`).
    name: str = "?"
    #: Parameter declarations: name -> :class:`Param`.
    PARAMS: Mapping[str, Param] = {}

    def __init__(self, config: "WorkloadConfig", **params: Any):
        self.config = config
        self.params = self.coerce_params(params)
        self._setup()

    def _setup(self) -> None:
        """Post-coercion hook: range checks, tables, file handles."""

    @classmethod
    def coerce_params(cls, params: Mapping[str, Any]) -> dict[str, Any]:
        """Validate and cast *params* against :attr:`PARAMS`.

        Unknown keys raise :class:`WorkloadParamError` with did-you-mean
        suggestions; missing non-required keys take their defaults.
        Usable without instantiation (plan-time validation).
        """
        out: dict[str, Any] = {}
        for key, value in params.items():
            spec = cls.PARAMS.get(key)
            if spec is None:
                hits = _suggest(key, cls.PARAMS)
                hint = (
                    f"; did you mean {' or '.join(repr(h) for h in hits)}?"
                    if hits
                    else ""
                )
                raise WorkloadParamError(
                    f"workload {cls.name!r} has no parameter {key!r}{hint}; "
                    f"accepted: {sorted(cls.PARAMS)}"
                )
            try:
                out[key] = spec.cast(value)
            except (TypeError, ValueError) as exc:
                raise WorkloadParamError(
                    f"workload {cls.name!r} parameter {key!r}: "
                    f"cannot interpret {value!r} ({exc})"
                ) from None
        for key, spec in cls.PARAMS.items():
            if key in out:
                continue
            if spec.required:
                raise WorkloadParamError(
                    f"workload {cls.name!r} requires parameter {key!r} "
                    f"({spec.doc or 'no description'})"
                )
            out[key] = spec.default
        return out

    # -- hooks (defaults = the paper's model) ---------------------------
    def arrival_delay(
        self, host: int, rng: "RandomStreams", now: float
    ) -> float:
        """Delay until *host*'s next application operation."""
        return rng.exponential(
            f"app/internal/{host}", self.config.internal_mean
        )

    def choose_destination(
        self, host: int, candidates, rng: "RandomStreams", now: float
    ):
        """Destination of a send among *candidates* (never empty).

        *candidates* is an ascending sequence of host ids excluding
        *host* (the connected ones under ``send_to_connected_only``,
        every other host otherwise).  Return ``None`` to drop the send
        (it becomes a no-op, like an empty candidate set).
        """
        return candidates[
            rng.choice_index(f"app/dst/{host}", len(candidates))
        ]

    def residence_scale(self, host: int, now: float) -> float:
        """Multiplier applied to the mobility model's residence time."""
        return 1.0

    # -- introspection ---------------------------------------------------
    @classmethod
    def describe(cls) -> dict[str, Any]:
        """Registry-table entry: name, summary line, parameter specs."""
        doc = (cls.__doc__ or "").strip().splitlines()
        return {
            "name": cls.name,
            "doc": doc[0] if doc else "",
            "params": {
                key: {
                    "default": spec.default,
                    "required": spec.required,
                    "doc": spec.doc,
                }
                for key, spec in cls.PARAMS.items()
            },
        }


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type[WorkloadModel]] = {}


def register_workload(name: str):
    """Class decorator registering a :class:`WorkloadModel` under *name*.

    Re-registering the *same* class is a no-op (module reloads);
    claiming an existing name with a different class raises
    :class:`WorkloadError` -- shadowing is never allowed, matching the
    protocol registry's contract.
    """

    def deco(cls: type[WorkloadModel]) -> type[WorkloadModel]:
        if not (isinstance(cls, type) and issubclass(cls, WorkloadModel)):
            raise TypeError(
                f"@register_workload({name!r}) needs a WorkloadModel "
                f"subclass, got {cls!r}"
            )
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not cls:
            raise WorkloadError(
                f"workload name {name!r} is already registered "
                f"({existing.__qualname__}); names must not shadow "
                "existing models"
            )
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return deco


def workload_names() -> list[str]:
    """Sorted names of every registered workload model."""
    return sorted(_REGISTRY)


def get_workload(name: str) -> type[WorkloadModel]:
    """The model class registered under *name*.

    Raises :class:`UnknownWorkloadError` (with did-you-mean
    suggestions) when no such model exists.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownWorkloadError(name, _REGISTRY) from None


def check_workload(name: str, params: Mapping[str, Any]) -> dict[str, Any]:
    """Validate a (name, params) pair without instantiating the model.

    Returns the coerced parameter dict.  This is the cheap plan-time /
    sweep-validation entry: casters and required-parameter checks run,
    environment-dependent checks (schedule files existing, ...) wait
    for instantiation in the driver.
    """
    return get_workload(name).coerce_params(params)


def make_workload(config: "WorkloadConfig") -> WorkloadModel:
    """Instantiate the model *config* names, with its parameters."""
    cls = get_workload(config.workload)
    return cls(config, **config.workload_params)


def parse_workload_spec(spec: str) -> tuple[str, dict[str, str]]:
    """Split a ``NAME[:key=value,...]`` spec into (name, raw params).

    Values stay strings; pass them through :func:`check_workload` (or
    let the model coerce them) for typing.  Malformed syntax raises
    :class:`WorkloadParamError`.
    """
    name, _, rest = spec.partition(":")
    name = name.strip()
    if not name:
        raise WorkloadParamError(f"empty workload name in spec {spec!r}")
    params: dict[str, str] = {}
    if rest.strip():
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or not key:
                raise WorkloadParamError(
                    f"malformed workload spec {spec!r}: expected "
                    f"key=value, got {item.strip()!r}"
                )
            params[key] = value.strip()
    return name, params


def resolve_workload_spec(spec: str) -> tuple[str, dict[str, Any]]:
    """Parse *and* validate a spec: (registered name, coerced params).

    The one-call form the CLI and ``SweepConfig`` use; raises
    :class:`UnknownWorkloadError` / :class:`WorkloadParamError` exactly
    like :func:`check_workload`.
    """
    name, raw = parse_workload_spec(spec)
    return name, check_workload(name, raw)
