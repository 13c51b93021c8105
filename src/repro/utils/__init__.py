"""Shared utilities: seeding, serialization, validation, caching."""

from repro.utils.cache import ArtifactCache, config_fingerprint, default_cache_dir
from repro.utils.rng import SeedTree, as_generator
from repro.utils.serialization import (
    atomic_write,
    load_state_dict,
    save_state_dict,
    trim_torn_tail,
    write_json_atomic,
)
from repro.utils.validation import (
    as_pair,
    check_in_choices,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "ArtifactCache",
    "SeedTree",
    "as_generator",
    "as_pair",
    "atomic_write",
    "check_in_choices",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "config_fingerprint",
    "default_cache_dir",
    "load_state_dict",
    "save_state_dict",
    "trim_torn_tail",
    "write_json_atomic",
]
