"""Lint configuration — defaults plus the ``[tool.repro-lint]`` block.

Every rule's vocabulary (which modules are store modules, which classes
are frozen, which callables serialize, ...) lives here rather than
hard-coded in the rule, so the ROADMAP's upcoming rewrites (binary block
store, store daemon) can extend coverage by editing ``pyproject.toml``
instead of the rules themselves.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any

__all__ = ["LintConfig", "load_config"]


@dataclass(frozen=True)
class LintConfig:
    """Effective configuration for one lint run.

    TOML keys are the field names with underscores replaced by dashes
    (``store-modules`` -> ``store_modules``).
    """

    #: rule ids to run (empty = all registered rules)
    select: tuple[str, ...] = ()
    #: rule ids to skip
    ignore: tuple[str, ...] = ()
    #: default lint targets when the CLI is given no paths
    targets: tuple[str, ...] = ("src/repro",)
    #: glob patterns (fnmatch, posix-style paths) excluded from linting
    exclude: tuple[str, ...] = ()

    # RL001 — lock discipline
    #: modules whose persistence mutations require the store lock: the
    #: store and its packed segment layer
    store_modules: tuple[str, ...] = (
        "*repro/cache/store.py",
        "*repro/cache/blockstore.py",
    )
    #: call names (function or method) that mutate store-owned state
    store_mutating_calls: tuple[str, ...] = (
        "save_graph",
        "unlink",
        "replace",
        "rename",
        "rmdir",
        "write_text",
        "write_bytes",
        "remove",
        "rmtree",
        # segment-mutating calls (repro.cache.blockstore.Segment)
        "append_records",
        "append_tombstones",
        "append_touches",
        "compact",
    )
    #: method names that acquire the store lock when used as a with-item
    lock_methods: tuple[str, ...] = ("held",)

    # RL002 — salted-hash hygiene
    #: process-salted Node attributes that must never be serialized
    salted_attributes: tuple[str, ...] = ("fingerprint", "skeleton")
    #: dotted call names that persist their arguments
    serialize_sinks: tuple[str, ...] = ("json.dump", "json.dumps")

    # RL003 — frozen-result immutability
    #: frozen result classes whose instances must not be mutated
    frozen_classes: tuple[str, ...] = (
        "GenerationResult",
        "PipelineRun",
        "StageReport",
    )
    #: methods allowed to use object.__setattr__ on self
    frozen_allowed_methods: tuple[str, ...] = (
        "__init__",
        "__new__",
        "__post_init__",
        "__setstate__",
    )

    # RL005 — stage purity
    #: base-class names marking a pipeline stage
    stage_bases: tuple[str, ...] = ("Stage",)

    # RL006 — compiled-artifact hygiene
    #: modules whose compiled-payload builders are checked
    compiled_modules: tuple[str, ...] = ("*repro/compiler/*.py",)
    #: functions whose return value becomes a persisted compiled payload
    #: (``*_to_state`` names are always included)
    compiled_payload_builders: tuple[str, ...] = (
        "to_state",
        "make_patch",
        "apply_patch",
    )
    #: identifier fragments marking a receiver as a parsed-AST value
    #: (whose salted attributes must never be persisted).  Entries of
    #: four characters or fewer match exactly; longer entries match as
    #: case-insensitive substrings.
    node_identifiers: tuple[str, ...] = (
        "query",
        "node",
        "tree",
        "subtree",
        "q0",
        "q1",
        "q2",
    )

    def merged(self, data: dict[str, Any]) -> "LintConfig":
        """A copy with ``data`` (kebab-case TOML keys) overriding fields.

        Raises:
            ValueError: for an unknown key — a typo in pyproject should
                fail the run, not silently lint with defaults.
        """
        known = {f.name for f in fields(self)}
        updates: dict[str, Any] = {}
        for key, value in data.items():
            field_name = key.replace("-", "_")
            if field_name not in known:
                raise ValueError(f"unknown [tool.repro-lint] key: {key}")
            if isinstance(value, list):
                value = tuple(str(item) for item in value)
            updates[field_name] = value
        return replace(self, **updates)


def load_config(pyproject: Path | None = None) -> LintConfig:
    """Defaults overridden by ``[tool.repro-lint]`` when the file exists.

    With no explicit path, ``pyproject.toml`` is looked up in the current
    directory and then each parent (the usual "run from anywhere inside
    the checkout" behaviour).
    """
    config = LintConfig()
    path = pyproject if pyproject is not None else _discover_pyproject()
    if path is None or not path.is_file():
        return config
    with path.open("rb") as handle:
        data = tomllib.load(handle)
    block = data.get("tool", {}).get("repro-lint")
    if not isinstance(block, dict):
        return config
    return config.merged(block)


def _discover_pyproject() -> Path | None:
    current = Path.cwd()
    for directory in (current, *current.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None
