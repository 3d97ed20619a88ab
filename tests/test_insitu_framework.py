"""CosmoTools framework: algorithm ABC, manager dispatch, config parsing."""

import pytest

from repro.insitu import (
    AnalysisContext,
    CosmoToolsConfig,
    InputDeck,
    InSituAlgorithm,
    InSituAnalysisManager,
    parse_value,
)


class _Recorder(InSituAlgorithm):
    name = "recorder"
    at_steps: list | None = None

    def __init__(self, **kw):
        self.calls = []
        super().__init__(**kw)

    def should_execute(self, step, a):
        if self.at_steps is None:
            return True
        steps = self.at_steps if isinstance(self.at_steps, list) else [self.at_steps]
        return step in steps

    def execute(self, sim, context):
        self.calls.append(context.step)
        context.store[self.name] = f"ran@{context.step}"


class _Consumer(InSituAlgorithm):
    name = "consumer"

    def should_execute(self, step, a):
        return True

    def execute(self, sim, context):
        context.store["consumed"] = context.require("recorder")


# --- InSituAlgorithm ----------------------------------------------------------


def test_set_parameters_records_and_assigns():
    alg = _Recorder(at_steps=[3], custom=42)
    assert alg.parameters == {"at_steps": [3], "custom": 42}
    assert alg.at_steps == [3]


def test_abstract_base_cannot_instantiate():
    with pytest.raises(TypeError):
        InSituAlgorithm()


# --- AnalysisContext ----------------------------------------------------------


def test_context_require_present_and_missing():
    ctx = AnalysisContext(step=1, a=0.5)
    ctx.store["x"] = 7
    assert ctx.require("x") == 7
    with pytest.raises(KeyError, match="registered before"):
        ctx.require("missing")


# --- InSituAnalysisManager ------------------------------------------------------


def test_manager_registration_and_lookup():
    mgr = InSituAnalysisManager()
    alg = mgr.register(_Recorder())
    assert len(mgr) == 1
    assert mgr.get("recorder") is alg
    with pytest.raises(KeyError):
        mgr.get("nope")


def test_manager_rejects_duplicates_and_nonalgorithms():
    mgr = InSituAnalysisManager()
    mgr.register(_Recorder())
    with pytest.raises(ValueError):
        mgr.register(_Recorder())
    with pytest.raises(TypeError):
        mgr.register(object())


def test_manager_schedule_filtering():
    mgr = InSituAnalysisManager()
    alg = mgr.register(_Recorder(at_steps=[2, 4]))
    for step in range(1, 6):
        mgr.execute(None, step, step / 5.0)
    assert alg.calls == [2, 4]
    assert sorted(mgr.history) == [2, 4]


def test_manager_execution_order_enables_pipelines():
    mgr = InSituAnalysisManager()
    mgr.register(_Recorder())
    mgr.register(_Consumer())
    ctx = mgr.execute(None, 1, 0.1)
    assert ctx.store["consumed"] == "ran@1"


def test_manager_records_wall_times():
    mgr = InSituAnalysisManager()
    mgr.register(_Recorder())
    ctx = mgr.execute(None, 1, 0.1)
    assert "recorder" in ctx.timings["wall_seconds"]


def test_manager_latest():
    mgr = InSituAnalysisManager()
    assert mgr.latest() is None
    mgr.register(_Recorder())
    mgr.execute(None, 3, 0.3)
    mgr.execute(None, 7, 0.7)
    assert mgr.latest().step == 7


def test_empty_step_not_archived():
    mgr = InSituAnalysisManager()
    mgr.register(_Recorder(at_steps=[5]))
    mgr.execute(None, 1, 0.1)
    assert mgr.history == {}


# --- config parsing -------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("yes", True),
        ("no", False),
        ("42", 42),
        ("3.5", 3.5),
        ("hello", "hello"),
        ("1, 2, 3", [1, 2, 3]),
        ("a, 2", ["a", 2]),
    ],
)
def test_parse_value(text, expected):
    assert parse_value(text) == expected


def test_input_deck_roundtrip():
    deck = InputDeck.from_text(
        """
        # the main run
        np_per_dim = 32
        box = 64.0
        n_steps = 30
        cosmotools = yes
        cosmotools_config = ./ct.cfg
        """
    )
    assert deck.get("np_per_dim") == 32
    assert deck.cosmotools_enabled
    assert deck.cosmotools_config_path == "./ct.cfg"
    cfg = deck.simulation_config()
    assert cfg.np_per_dim == 32 and cfg.box == 64.0 and cfg.n_steps == 30


def test_input_deck_rejects_sections():
    with pytest.raises(ValueError):
        InputDeck.from_text("[section]\nx = 1")


def test_cosmotools_config_sections():
    cfg = CosmoToolsConfig.from_text(
        """
        [power_spectrum]
        enabled = yes
        at_steps = 10, 20
        [halo_finder]
        enabled = no
        [so_mass]
        delta = 200.0
        """
    )
    assert set(cfg.sections) == {"power_spectrum", "halo_finder", "so_mass"}
    assert cfg.enabled_sections() == ["power_spectrum", "so_mass"]
    assert cfg.section("power_spectrum")["at_steps"] == [10, 20]
    with pytest.raises(KeyError):
        cfg.section("nope")


def test_cosmotools_config_errors():
    with pytest.raises(ValueError, match="outside"):
        CosmoToolsConfig.from_text("x = 1")
    with pytest.raises(ValueError, match="duplicate"):
        CosmoToolsConfig.from_text("[a]\n[a]")
    with pytest.raises(ValueError, match="malformed"):
        CosmoToolsConfig.from_text("[a]\nnot a kv line")


def test_build_manager_from_config():
    cfg = CosmoToolsConfig.from_text(
        """
        [halo_finder]
        at_steps = 9
        min_count = 20
        [halo_centers]
        at_steps = 9
        threshold = 100
        """
    )
    mgr = cfg.build_manager()
    assert [a.name for a in mgr] == ["halo_finder", "halo_centers"]
    assert mgr.get("halo_finder").min_count == 20
    assert mgr.get("halo_centers").threshold == 100


@pytest.mark.parametrize("key", ["threshhold", "backend"])
def test_build_manager_rejects_unknown_key(key):
    """A misspelt or retired key must not silently leave the default."""
    cfg = CosmoToolsConfig.from_text(f"[halo_centers]\nthreshold = 100\n{key} = 5")
    with pytest.raises(ValueError, match=rf"\[halo_centers\].*{key}") as err:
        cfg.build_manager()
    assert "known: at_steps, every, method, softening, threshold, workers" in str(err.value)


def test_build_manager_unknown_tool():
    cfg = CosmoToolsConfig.from_text("[frobnicator]\nx = 1")
    with pytest.raises(KeyError, match="unknown analysis tool"):
        cfg.build_manager()


def test_files_roundtrip(tmp_path):
    deck_path = tmp_path / "indat.params"
    deck_path.write_text("np_per_dim = 8\ncosmotools = yes\n")
    assert InputDeck.from_file(deck_path).get("np_per_dim") == 8
    ct_path = tmp_path / "ct.cfg"
    ct_path.write_text("[power_spectrum]\nng = 16\n")
    assert CosmoToolsConfig.from_file(ct_path).section("power_spectrum")["ng"] == 16
