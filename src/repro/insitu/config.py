"""Input deck and CosmoTools configuration parsing.

Paper §3: "The simulation 'input deck' contains all the simulation
parameters for the main run.  It also includes a trigger for CosmoTools
and a pointer to the CosmoTools configuration file.  That file has all
the details about the separate analysis tools, at which time steps to
run them, and which parameters to use for each."

Both files use a simple line-oriented format::

    # comment
    key = value                # input deck: flat
    [section]                  # cosmotools config: one section per tool
    enabled = yes
    at_steps = 30, 60, 100

Values are parsed into bool/int/float/str/lists thereof.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["parse_value", "parse_deck", "CosmoToolsConfig", "InputDeck"]

_BOOL_WORDS = {"yes": True, "true": True, "on": True, "no": False, "false": False, "off": False}


def parse_value(text: str) -> Any:
    """Parse one right-hand-side value: bool, int, float, list, or str."""
    text = text.strip()
    if "," in text:
        return [parse_value(tok) for tok in text.split(",") if tok.strip()]
    low = text.lower()
    if low in _BOOL_WORDS:
        return _BOOL_WORDS[low]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _iter_lines(text: str) -> Iterator[str]:
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def parse_deck(text: str) -> dict[str, Any]:
    """Parse a flat ``key = value`` deck into a dict."""
    out: dict[str, Any] = {}
    for line in _iter_lines(text):
        if line.startswith("["):
            raise ValueError(f"unexpected section header in flat deck: {line!r}")
        if "=" not in line:
            raise ValueError(f"malformed deck line: {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = parse_value(value)
    return out


@dataclass
class InputDeck:
    """The main simulation input deck.

    Recognized keys mirror :class:`~repro.sim.hacc.SimulationConfig`
    plus the CosmoTools trigger (``cosmotools`` / ``cosmotools_config``).
    """

    values: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_text(cls, text: str) -> "InputDeck":
        return cls(values=parse_deck(text))

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "InputDeck":
        with open(path, encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def get(self, key: str, default: Any = None) -> Any:
        return self.values.get(key, default)

    @property
    def cosmotools_enabled(self) -> bool:
        return bool(self.values.get("cosmotools", False))

    @property
    def cosmotools_config_path(self) -> str | None:
        return self.values.get("cosmotools_config")

    def simulation_config(self) -> Any:
        """Build a :class:`~repro.sim.hacc.SimulationConfig` from the deck."""
        from ..sim.hacc import SimulationConfig

        keys = ("np_per_dim", "box", "z_initial", "z_final", "n_steps", "ng", "seed")
        kwargs = {k: self.values[k] for k in keys if k in self.values}
        return SimulationConfig(**kwargs)


def _declared_parameters(cls: type) -> set[str]:
    """Parameters an algorithm class declares: its annotated attributes."""
    names = {key for klass in cls.__mro__ for key in vars(klass).get("__annotations__", {})}
    return names - {"name"}


@dataclass
class CosmoToolsConfig:
    """Sectioned CosmoTools configuration: one section per analysis tool."""

    sections: dict[str, dict[str, Any]] = field(default_factory=dict)

    @classmethod
    def from_text(cls, text: str) -> "CosmoToolsConfig":
        sections: dict[str, dict[str, Any]] = {}
        current: dict[str, Any] | None = None
        for line in _iter_lines(text):
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip()
                if not name:
                    raise ValueError("empty section name")
                if name in sections:
                    raise ValueError(f"duplicate section {name!r}")
                current = {}
                sections[name] = current
            elif "=" in line:
                if current is None:
                    raise ValueError(f"key outside any section: {line!r}")
                key, value = line.split("=", 1)
                current[key.strip()] = parse_value(value)
            else:
                raise ValueError(f"malformed config line: {line!r}")
        return cls(sections=sections)

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "CosmoToolsConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def enabled_sections(self) -> list[str]:
        """Sections whose ``enabled`` flag is truthy (default: enabled)."""
        return [
            name
            for name, sec in self.sections.items()
            if sec.get("enabled", True)
        ]

    def section(self, name: str) -> dict[str, Any]:
        if name not in self.sections:
            raise KeyError(f"no section {name!r} in CosmoTools config")
        return dict(self.sections[name])

    def build_manager(self) -> Any:
        """Instantiate an :class:`InSituAnalysisManager` from this config.

        Each enabled section name must match a registered concrete
        algorithm in :mod:`repro.insitu.algorithms`; the section's keys
        (minus ``enabled``) become the algorithm's parameters.  A key the
        algorithm does not declare raises :class:`ValueError` — a typo
        such as ``threshhold`` would otherwise leave the default in force.
        """
        from .algorithms import ALGORITHM_REGISTRY
        from .manager import InSituAnalysisManager

        manager = InSituAnalysisManager()
        for name in self.enabled_sections():
            if name not in ALGORITHM_REGISTRY:
                raise KeyError(
                    f"unknown analysis tool {name!r}; known: {sorted(ALGORITHM_REGISTRY)}"
                )
            cls = ALGORITHM_REGISTRY[name]
            params = {k: v for k, v in self.sections[name].items() if k != "enabled"}
            known = _declared_parameters(cls)
            unknown = sorted(set(params) - known)
            if unknown:
                raise ValueError(
                    f"[{name}]: unknown parameter(s) {', '.join(unknown)}; "
                    f"known: {', '.join(sorted(known))}"
                )
            manager.register(cls(**params))
        return manager
