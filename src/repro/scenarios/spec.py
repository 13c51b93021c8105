"""Declarative campaign specs: schema, grid expansion, YAML/JSON loading.

A :class:`CampaignSpec` is a complete, serializable description of one
fault-injection scenario — model, dataset slice, fault model +
parameters, mitigation variant, rate grid, trials, seed — that the
compiler (:mod:`repro.scenarios.compile`) lowers onto the existing
:class:`~repro.core.executor.CampaignExecutor` substrate.  A *scenario
file* holds one or many specs plus shared defaults, and any entry may
carry a ``grid:`` block whose listed fields expand to the cross product
of specs (matrix expansion).  ``docs/SCENARIOS.md`` is the authoritative
schema reference; ``tests/test_docs_consistency.py`` keeps it and this
module from drifting apart in either direction.

File format (YAML or JSON — YAML requires the optional PyYAML)::

    name: stuck-at-sweep          # suite name (default: file stem)
    workers: 2                    # suite default, CLI --workers overrides
    defaults:                     # merged under every scenario entry
      model: lenet5
      trials: 5
    scenarios:
      - name: stuckat
        fault_model: {name: stuck_at, value: 0}
      - name: stuckat-matrix
        grid:                     # cross product -> 4 specs
          campaign: [weight, quantized]
          fault_model:
            - {name: stuck_at, value: 0}
            - {name: stuck_at, value: 1}

A bare list is read as the ``scenarios:`` list, and a bare mapping with
a ``name`` (and no ``scenarios`` key) as a single scenario.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.core.campaign import default_fault_rates
from repro.scenarios.faults import FAULT_MODELS, validate_fault_params
from repro.utils.validation import check_positive

__all__ = [
    "CAMPAIGN_KINDS",
    "EXECUTION_MODES",
    "MITIGATION_VARIANTS",
    "REDUNDANCY_VARIANTS",
    "FaultModelSpec",
    "CampaignSpec",
    "ScenarioSuite",
    "expand_entry",
    "parse_suite",
    "load_scenarios",
]

# The three campaign kinds a spec may target, matching the executor cell
# tasks (WeightFaultCellTask / QuantizedCellTask / ActivationFaultCellTask)
# and their checkpoint `kind` fingerprints.
CAMPAIGN_KINDS = ("weight", "quantized", "activation")

# Mitigation variants (repro.experiments.prepare_campaign_variant).  The
# CLI's `campaign --variant int8` is a storage model, not a mitigation:
# it runs `campaign: quantized` over the unprotected model.
MITIGATION_VARIANTS = ("unprotected", "ftclipact", "relu6", "ecc", "tmr", "dmr")

# Redundancy schemes are *fault-sampler filters* over the float32 bit
# space: they imply random bit flips and only apply to weight campaigns.
REDUNDANCY_VARIANTS = ("ecc", "tmr", "dmr")

_SPLITS = ("test", "val")

# Execution modes: "exact" runs the full (rates x trials) grid;
# "adaptive" wraps the campaign in sequential stopping
# (repro.core.batched.AdaptiveCampaignTask) — per-rate trial families
# terminate once their accuracy confidence interval is tight enough.
EXECUTION_MODES = ("exact", "adaptive")


def _default_rates() -> tuple[float, ...]:
    """The canonical grid (experiments.paper_fault_rates, import-light)."""
    return tuple(float(r) for r in default_fault_rates(1e-7, 1e-4, 2))


@dataclass(frozen=True)
class FaultModelSpec:
    """The ``fault_model:`` block: a registry name plus its parameters."""

    name: str = "random_bitflip"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        validate_fault_params(self.name, self.params)

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, **self.params}

    @classmethod
    def from_value(cls, value: Any) -> "FaultModelSpec":
        """Accept ``"stuck_at"`` or ``{"name": "stuck_at", "value": 0}``."""
        if isinstance(value, FaultModelSpec):
            return value
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, Mapping):
            payload = dict(value)
            try:
                name = payload.pop("name")
            except KeyError:
                raise ValueError(
                    "fault_model mapping requires a 'name' key; available "
                    f"models: {sorted(FAULT_MODELS)}"
                ) from None
            return cls(name=name, params=payload)
        raise TypeError(
            f"fault_model must be a name or a mapping, got {type(value).__name__}"
        )


@dataclass(frozen=True)
class CampaignSpec:
    """One scenario: everything that determines a campaign run.

    Field-by-field reference (defaults, units, cross-field rules) lives
    in ``docs/SCENARIOS.md``; the consistency test enforces that every
    field here has a row there and vice versa.
    """

    name: str
    model: str = "lenet5"
    campaign: str = "weight"
    variant: str = "unprotected"
    fault_model: FaultModelSpec = field(default_factory=FaultModelSpec)
    rates: tuple[float, ...] = field(default_factory=_default_rates)
    trials: int = 3
    seed: int = 0
    eval_images: int = 128
    split: str = "test"
    batch_size: int = 128
    layers: "tuple[str, ...] | None" = None
    mode: str = "exact"
    ci_halfwidth: float = 0.02
    batch_k: int = 0
    importance: "float | None" = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("scenario name must be a non-empty string")
        from repro.experiments import EXPERIMENT_CONFIGS

        if self.model not in EXPERIMENT_CONFIGS:
            raise ValueError(
                f"unknown model {self.model!r}; available: "
                f"{sorted(EXPERIMENT_CONFIGS)}"
            )
        if self.campaign not in CAMPAIGN_KINDS:
            raise ValueError(
                f"unknown campaign kind {self.campaign!r}; available: "
                f"{list(CAMPAIGN_KINDS)}"
            )
        if self.variant not in MITIGATION_VARIANTS:
            raise ValueError(
                f"unknown mitigation variant {self.variant!r}; available: "
                f"{list(MITIGATION_VARIANTS)}"
            )
        object.__setattr__(
            self, "fault_model", FaultModelSpec.from_value(self.fault_model)
        )
        rates = tuple(float(r) for r in self.rates)
        if not rates:
            raise ValueError("rates must be non-empty")
        if any(r <= 0 for r in rates):
            raise ValueError("rates must be positive (rate 0 is implicit)")
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise ValueError("rates must be strictly increasing")
        object.__setattr__(self, "rates", rates)
        check_positive("trials", self.trials)
        check_positive("eval_images", self.eval_images)
        check_positive("batch_size", self.batch_size)
        if self.split not in _SPLITS:
            raise ValueError(
                f"split must be one of {list(_SPLITS)}, got {self.split!r}"
            )
        if self.layers is not None:
            if self.campaign != "activation":
                raise ValueError(
                    "layers is only meaningful for activation campaigns"
                )
            object.__setattr__(
                self, "layers", tuple(str(layer) for layer in self.layers)
            )

        if self.mode not in EXECUTION_MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; available: "
                f"{list(EXECUTION_MODES)}"
            )
        object.__setattr__(self, "ci_halfwidth", float(self.ci_halfwidth))
        if not 0.0 < self.ci_halfwidth <= 0.5:
            raise ValueError(
                "ci_halfwidth must lie in (0, 0.5], got "
                f"{self.ci_halfwidth}"
            )
        if int(self.batch_k) < 0:
            raise ValueError(f"batch_k must be >= 0, got {self.batch_k}")
        object.__setattr__(self, "batch_k", int(self.batch_k))
        if self.importance is not None:
            value = float(self.importance)
            if value <= 0:
                raise ValueError(f"importance boost must be > 0, got {value}")
            object.__setattr__(self, "importance", value)

        # Cross-field rules (documented in docs/SCENARIOS.md).
        info = FAULT_MODELS[self.fault_model.name]
        if self.campaign not in info.campaigns:
            raise ValueError(
                f"fault model {self.fault_model.name!r} does not support "
                f"campaign {self.campaign!r} (supports {list(info.campaigns)})"
            )
        if self.fault_model.name == "targeted_bit":
            # The campaign kind fixes the word width (float32: 32-bit
            # words, int8: 8-bit codes), so an impossible bit position
            # fails here at parse time instead of mid-sweep in a worker.
            from repro.scenarios.faults import resolve_bit_position

            bits_per_word = 8 if self.campaign == "quantized" else 32
            resolve_bit_position(
                self.fault_model.params.get("bit", "sign"), bits_per_word
            )
        if self.mode == "adaptive" and self.campaign == "activation":
            raise ValueError(
                "mode 'adaptive' requires campaign 'weight' or 'quantized' "
                "(activation faults are sampled inside the forward pass, "
                "so a trial has no fault set drawn ahead of it to run or "
                "reweight)"
            )
        if self.importance is not None:
            if self.mode != "adaptive":
                raise ValueError(
                    "importance sampling requires mode 'adaptive'"
                )
            if self.campaign != "weight":
                raise ValueError(
                    "importance sampling tilts the float32 weight bit "
                    "space; it requires campaign 'weight'"
                )
            if self.fault_model.name != "random_bitflip":
                raise ValueError(
                    "importance sampling reweights the 'random_bitflip' "
                    f"model; it cannot tilt {self.fault_model.name!r}"
                )
            if self.variant in REDUNDANCY_VARIANTS:
                raise ValueError(
                    f"importance sampling bypasses the {self.variant!r} "
                    "protection filter; combine it only with unprotected "
                    "or activation-clipping variants"
                )
        if self.variant in REDUNDANCY_VARIANTS:
            if self.campaign != "weight":
                raise ValueError(
                    f"redundancy variant {self.variant!r} protects the "
                    "float32 weight memory; it requires campaign 'weight'"
                )
            if self.fault_model.name != "random_bitflip":
                raise ValueError(
                    f"redundancy variant {self.variant!r} models protection "
                    "against random bit flips; combine it only with the "
                    "'random_bitflip' fault model"
                )

    @property
    def grid_shape(self) -> "tuple[int, int]":
        """The executor cell grid, (rates, cells per rate): an adaptive
        scenario runs its whole trial family as one cell per rate."""
        return (len(self.rates), 1 if self.mode == "adaptive" else self.trials)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        """A JSON/YAML-ready mapping; ``from_dict`` round-trips it."""
        payload: dict[str, Any] = {
            "name": self.name,
            "model": self.model,
            "campaign": self.campaign,
            "variant": self.variant,
            "fault_model": self.fault_model.to_dict(),
            "rates": [float(r) for r in self.rates],
            "trials": self.trials,
            "seed": self.seed,
            "eval_images": self.eval_images,
            "split": self.split,
            "batch_size": self.batch_size,
            "mode": self.mode,
            "ci_halfwidth": float(self.ci_halfwidth),
            "batch_k": int(self.batch_k),
        }
        if self.layers is not None:
            payload["layers"] = list(self.layers)
        if self.importance is not None:
            payload["importance"] = float(self.importance)
        return payload

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "CampaignSpec":
        """Build a spec from a mapping, rejecting unknown keys."""
        valid = {f.name for f in fields(cls)}
        unknown = set(mapping) - valid
        if unknown:
            raise ValueError(
                f"unknown spec field(s) {sorted(unknown)}; valid fields: "
                f"{sorted(valid)}"
            )
        payload = dict(mapping)
        if "fault_model" in payload:
            payload["fault_model"] = FaultModelSpec.from_value(
                payload["fault_model"]
            )
        if "rates" in payload:
            payload["rates"] = tuple(payload["rates"])
        if "layers" in payload and payload["layers"] is not None:
            payload["layers"] = tuple(payload["layers"])
        return cls(**payload)


# --------------------------------------------------------------------- #
# grid expansion and suite parsing
# --------------------------------------------------------------------- #


def _grid_slug(value: Any) -> str:
    """A short deterministic token naming one grid value."""
    if isinstance(value, Mapping):
        name = str(value.get("name", "map"))
        rest = "".join(
            f"+{key}{_grid_slug(val)}"
            for key, val in sorted(value.items())
            if key != "name"
        )
        return name + rest
    if isinstance(value, (list, tuple)):
        return "x".join(_grid_slug(v) for v in value)
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


def expand_entry(
    entry: Mapping[str, Any],
    defaults: "Mapping[str, Any] | None" = None,
) -> list[CampaignSpec]:
    """Expand one scenario entry (with optional ``grid:``) into specs.

    ``defaults`` merge *under* the entry's own keys.  A ``grid:`` block
    maps spec fields to value lists and expands to their cross product;
    each expanded spec is named ``<name>/<field>=<value>/...`` in the
    grid's key order, so the matrix stays addressable in progress
    output, checkpoints and result files.
    """
    merged = {**(defaults or {}), **entry}
    grid = merged.pop("grid", None)
    if "name" not in merged:
        raise ValueError(f"scenario entry missing a 'name': {dict(entry)!r}")
    if not grid:
        return [CampaignSpec.from_dict(merged)]
    if not isinstance(grid, Mapping):
        raise ValueError(f"grid must be a mapping of field -> list, got {grid!r}")
    axes: list[tuple[str, list[Any]]] = []
    for key, values in grid.items():
        if key in ("name", "grid"):
            raise ValueError(f"grid cannot expand the {key!r} field")
        if not isinstance(values, (list, tuple)) or not values:
            raise ValueError(
                f"grid field {key!r} must map to a non-empty list, got "
                f"{values!r}"
            )
        axes.append((key, list(values)))
    specs = []
    for combo in itertools.product(*(values for _, values in axes)):
        overrides = {key: value for (key, _), value in zip(axes, combo)}
        suffix = "/".join(
            f"{key}={_grid_slug(value)}" for key, value in overrides.items()
        )
        specs.append(
            CampaignSpec.from_dict(
                {**merged, **overrides, "name": f"{merged['name']}/{suffix}"}
            )
        )
    return specs


@dataclass(frozen=True)
class ScenarioSuite:
    """A named, fully-expanded list of specs plus run-level defaults."""

    name: str
    specs: tuple[CampaignSpec, ...]
    workers: "int | None" = None

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for spec in self.specs:
            if spec.name in seen:
                raise ValueError(f"duplicate scenario name {spec.name!r}")
            seen.add(spec.name)
        if not self.specs:
            raise ValueError(f"scenario suite {self.name!r} is empty")


def parse_suite(payload: Any, name: str = "scenarios") -> ScenarioSuite:
    """Parse a loaded YAML/JSON payload into a :class:`ScenarioSuite`."""
    workers = None
    defaults: Mapping[str, Any] = {}
    if isinstance(payload, Mapping):
        if "scenarios" in payload:
            extra = set(payload) - {"name", "workers", "defaults", "scenarios"}
            if extra:
                raise ValueError(
                    f"unknown suite-level key(s) {sorted(extra)}; valid: "
                    "name, workers, defaults, scenarios"
                )
            name = payload.get("name", name)
            workers = payload.get("workers")
            defaults = payload.get("defaults") or {}
            entries: Iterable[Mapping[str, Any]] = payload["scenarios"]
        else:
            entries = [payload]
    elif isinstance(payload, list):
        entries = payload
    else:
        raise TypeError(
            f"scenario payload must be a mapping or list, got "
            f"{type(payload).__name__}"
        )
    specs: list[CampaignSpec] = []
    for entry in entries:
        if not isinstance(entry, Mapping):
            raise TypeError(f"scenario entry must be a mapping, got {entry!r}")
        specs.extend(expand_entry(entry, defaults))
    if workers is not None:
        from repro.core.executor import resolve_workers

        resolve_workers(int(workers))  # shared validation; 0 = cpu_count
        workers = int(workers)
    return ScenarioSuite(name=name, specs=tuple(specs), workers=workers)


def load_scenarios(path: "str | Path") -> ScenarioSuite:
    """Load a scenario file (``.yaml``/``.yml``/``.json``)."""
    source = Path(path)
    if not source.exists():
        raise FileNotFoundError(f"no such scenario file: {source}")
    text = source.read_text()
    if source.suffix.lower() == ".json":
        payload = json.loads(text)
    elif source.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:  # pragma: no cover - depends on environment
            raise ImportError(
                "YAML scenario files require PyYAML; install it or convert "
                f"{source.name} to JSON (the schema is identical)"
            ) from None
        payload = yaml.safe_load(text)
    else:
        raise ValueError(
            f"unsupported scenario file suffix {source.suffix!r} "
            "(use .yaml, .yml or .json)"
        )
    return parse_suite(payload, name=source.stem)
