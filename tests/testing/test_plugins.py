"""Plugin discovery: entry points, namespace packages, and the loader
rules (coherence, collision, atomicity, fault isolation).

Entry-point discovery is tested without installing anything: a fake
``.dist-info`` (METADATA + entry_points.txt) written into a tmp dir on
``sys.path`` is all ``importlib.metadata`` needs.  Namespace discovery
uses a tmp ``repro_protocols/`` directory (no ``__init__.py``).
"""

import sys
import textwrap

import pytest

from repro.engine import (
    PluginCollisionError,
    PluginError,
    PluginProtocolError,
    discover_plugins,
    known_names,
    plugin_errors,
    protocol_origin,
    resolve_protocols,
)
from repro.engine.plugins import reset_plugins
from repro.protocols.base import registry as class_registry


@pytest.fixture
def plugin_path(tmp_path, monkeypatch):
    """A tmp dir on sys.path, with full plugin-state cleanup after."""
    monkeypatch.syspath_prepend(str(tmp_path))
    # Both metadata and module-import caches must forget the tmp dir.
    import importlib

    importlib.invalidate_caches()
    yield tmp_path
    # Drop the tmp dir *before* resetting, so the lazy re-discovery the
    # next registry use triggers cannot resurrect the fake plugins.
    sys.path.remove(str(tmp_path))
    reset_plugins()
    for name in [m for m in sys.modules if m.startswith("repro_protocols")]:
        del sys.modules[name]
    importlib.invalidate_caches()


def _write_dist(tmp_path, dist: str, entry_points: str, module_code: dict):
    """Fake an installed distribution: dist-info + importable modules."""
    info = tmp_path / f"{dist}-1.0.dist-info"
    info.mkdir()
    (info / "METADATA").write_text(
        f"Metadata-Version: 2.1\nName: {dist}\nVersion: 1.0\n"
    )
    (info / "entry_points.txt").write_text(entry_points)
    for module, code in module_code.items():
        (tmp_path / f"{module}.py").write_text(textwrap.dedent(code))


GOOD_PLUGIN = """
    from repro.protocols.bcs import BCSProtocol

    class PluginBCS(BCSProtocol):
        vectorizable = False
"""


def test_entry_point_class_is_registered_under_entry_name(plugin_path):
    _write_dist(
        plugin_path,
        "demo-plugin",
        "[repro.protocols]\nDEMO = demo_mod:PluginBCS\n",
        {"demo_mod": GOOD_PLUGIN},
    )
    assert discover_plugins(force=True, strict=True) >= 1
    assert "DEMO" in known_names()
    origin = protocol_origin("DEMO")
    assert origin.kind == "plugin"
    assert "demo" in str(origin)
    # and it resolves like any builtin
    (entry,) = resolve_protocols(["DEMO"], require="replayable")
    assert entry.capabilities.replayable


def test_namespace_module_registers_via_decorator(plugin_path):
    ns = plugin_path / "repro_protocols"
    ns.mkdir()
    (ns / "dropin.py").write_text(
        textwrap.dedent(
            """
            from repro.protocols.base import register
            from repro.protocols.bcs import BCSProtocol

            @register("DROPIN")
            class DropinProtocol(BCSProtocol):
                vectorizable = False
            """
        )
    )
    (ns / "_helper.py").write_text("raise AssertionError('must be skipped')")
    discover_plugins(force=True, strict=True)
    assert "DROPIN" in known_names()
    origin = protocol_origin("DROPIN")
    assert origin.kind == "namespace"
    assert origin.source == "repro_protocols.dropin"


def test_shadowing_builtin_is_a_collision(plugin_path):
    _write_dist(
        plugin_path,
        "shady",
        "[repro.protocols]\nBCS = shady_mod:PluginBCS\n",
        {"shady_mod": GOOD_PLUGIN},
    )
    with pytest.raises(PluginCollisionError) as exc:
        discover_plugins(force=True, strict=True)
    assert exc.value.name == "BCS"
    assert "must not shadow" in str(exc.value)
    # atomicity: the builtin is untouched
    from repro.protocols.bcs import BCSProtocol

    assert class_registry["BCS"] is BCSProtocol


def test_non_protocol_entry_point_is_rejected(plugin_path):
    _write_dist(
        plugin_path,
        "junk",
        "[repro.protocols]\nJUNK = junk_mod:NotAProtocol\n",
        {"junk_mod": "class NotAProtocol:\n    pass\n"},
    )
    with pytest.raises(PluginProtocolError):
        discover_plugins(force=True, strict=True)
    assert "JUNK" not in known_names()


def test_broken_plugin_is_fault_isolated_by_default(plugin_path):
    _write_dist(
        plugin_path,
        "mixed",
        "[repro.protocols]\n"
        "GOOD = good_mod:PluginBCS\n"
        "BAD = does_not_exist:Nope\n",
        {"good_mod": GOOD_PLUGIN},
    )
    with pytest.warns(UserWarning, match="failed to load"):
        discover_plugins(force=True)
    # the broken one is reported, the good one still landed
    assert any(isinstance(e, PluginError) for e in plugin_errors())
    assert "GOOD" in known_names()
    assert "BAD" not in known_names()


def test_module_registering_nothing_is_an_error(plugin_path):
    ns = plugin_path / "repro_protocols"
    ns.mkdir()
    (ns / "empty.py").write_text("x = 1\n")
    with pytest.raises(PluginProtocolError, match="registered no protocols"):
        discover_plugins(force=True, strict=True)


def test_reset_plugins_unregisters_only_plugins(plugin_path):
    _write_dist(
        plugin_path,
        "demo-plugin",
        "[repro.protocols]\nDEMO = demo_mod:PluginBCS\n",
        {"demo_mod": GOOD_PLUGIN},
    )
    discover_plugins(force=True, strict=True)
    assert "DEMO" in known_names()
    reset_plugins()
    # Check the registry dict directly: known_names() would lazily
    # re-discover the fake dist (still on sys.path inside this test).
    assert "DEMO" not in class_registry
    assert "BCS" in class_registry


def test_origin_of_runtime_registration():
    from repro.engine.plugins import ensure_discovered
    from repro.protocols.base import register
    from repro.protocols.bcs import BCSProtocol

    ensure_discovered()

    @register("RUNTIME-TMP")
    class RuntimeProtocol(BCSProtocol):
        vectorizable = False

    try:
        assert protocol_origin("RUNTIME-TMP").kind == "runtime"
        assert protocol_origin("TP").kind == "builtin"
    finally:
        del class_registry["RUNTIME-TMP"]


def test_origin_of_unregistered_name_raises():
    with pytest.raises(KeyError):
        protocol_origin("NO-SUCH-PROTOCOL")
