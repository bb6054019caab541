"""Built-in test groups (a JSON manifest shipped with the package) and the
parser for user-supplied generator files."""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from importlib import resources

from .errors import CharprodError, UnknownId
from .perm import direct_product, group_closure, parse_generators

__all__ = ["GroupSpec", "builtin", "builtin_ids", "group_specs", "load_manifest", "parse_group", "direct_product"]


@dataclass(frozen=True)
class GroupSpec:
    id: str
    description: str
    generators: str
    expected_order: int
    expected_classes: int | None = None
    prime: int | None = None

    def to_json(self):
        return {
            "id": self.id,
            "description": self.description,
            "generators": self.generators,
            "expected_order": self.expected_order,
            "expected_classes": self.expected_classes,
            "prime": self.prime,
        }


_lock = threading.Lock()
_specs = None
_groups = {}


def load_manifest(text=None):
    """Parse a manifest (the packaged one by default) into GroupSpecs."""
    if text is None:
        text = resources.files("charprod").joinpath("data/groups.json").read_text()
    raw = json.loads(text)
    return [GroupSpec(**entry) for entry in raw]


def group_specs():
    global _specs
    with _lock:
        if _specs is None:
            _specs = tuple(load_manifest())
    return _specs


def builtin_ids():
    return [spec.id for spec in group_specs()]


def spec_for(group_id):
    for spec in group_specs():
        if spec.id == group_id:
            return spec
    raise UnknownId(f"unknown catalog id {group_id!r}; try one of {', '.join(builtin_ids())}")


def builtin(group_id):
    """Construct (and cache) a catalog group from its manifest entry."""
    spec = spec_for(group_id)
    with _lock:
        cached = _groups.get(group_id)
        if cached is None:
            cached = parse_group(spec.generators)
            if cached.order != spec.expected_order:
                raise CharprodError(
                    f"catalog entry {group_id} closed to order {cached.order}, expected {spec.expected_order}"
                )
            if spec.expected_classes is not None and cached.num_classes != spec.expected_classes:
                raise CharprodError(
                    f"catalog entry {group_id} has {cached.num_classes} classes, expected {spec.expected_classes}"
                )
            _groups[group_id] = cached
    return cached


def parse_group(text):
    """Close the generators found in ``text`` (perm-core cycle format)."""
    gens, _ = parse_generators(text)
    return group_closure(gens)
