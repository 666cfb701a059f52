"""Release gate: every public item carries a docstring.

The deliverable promises doc comments on every public item; this test
makes the promise enforceable. Public = importable from a ``repro``
module, name not starting with ``_``, defined inside this package.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGE_PREFIX = "repro"


def all_modules():
    out = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        out.append(info.name)
    return sorted(out)


MODULES = all_modules()


@pytest.mark.parametrize("name", MODULES)
def test_module_has_docstring(name):
    mod = importlib.import_module(name)
    assert inspect.getdoc(mod), f"module {name} lacks a docstring"


def public_items():
    items = []
    for name in MODULES:
        mod = importlib.import_module(name)
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != name:
                continue  # re-exports are documented at their source
            items.append((name, attr, obj))
    return items


def test_public_classes_and_functions_documented():
    missing = [
        f"{mod}.{attr}"
        for mod, attr, obj in public_items()
        if not inspect.getdoc(obj)
    ]
    assert not missing, f"undocumented public items: {missing}"


def test_engine_package_is_covered():
    """The census engine must be walked by this gate: its modules appear
    in the collected module list (a silent pkgutil skip would exempt the
    whole package from the docstring requirement)."""
    engine_modules = {m for m in MODULES if m.startswith("repro.engine")}
    assert engine_modules >= {
        "repro.engine",
        "repro.engine.cache",
        "repro.engine.keys",
        "repro.engine.pipeline",
        "repro.engine.queue",
        "repro.engine.workloads",
    }


def test_engine_public_api_documented():
    """Every name exported from ``repro.engine`` has a docstring (the
    subsystem is the library's scaling seam; its API is documentation-
    critical)."""
    import repro.engine as engine

    missing = []
    for name in engine.__all__:
        obj = getattr(engine, name)
        if (inspect.isclass(obj) or inspect.isfunction(obj)) and not inspect.getdoc(
            obj
        ):
            missing.append(name)
    assert not missing, f"undocumented repro.engine exports: {missing}"


def test_canon_package_is_covered():
    """The canonical-labeling subsystem must be walked by this gate: its
    modules appear in the collected module list (a silent pkgutil skip
    would exempt the whole package from the docstring requirement)."""
    canon_modules = {m for m in MODULES if m.startswith("repro.canon")}
    assert canon_modules >= {
        "repro.canon",
        "repro.canon.canonize",
        "repro.canon.invariants",
        "repro.canon.refine",
    }


def test_canon_public_api_documented():
    """Every name exported from ``repro.canon`` has a docstring (the
    canonizer backs the engine's cache keys and the service's request
    coalescing; its API is documentation-critical — docs/canon.md
    builds on these docstrings)."""
    import repro.canon as canon

    missing = []
    for name in canon.__all__:
        obj = getattr(canon, name)
        if (inspect.isclass(obj) or inspect.isfunction(obj)) and not inspect.getdoc(
            obj
        ):
            missing.append(name)
    assert not missing, f"undocumented repro.canon exports: {missing}"


def test_backends_package_is_covered():
    """The simulation-backend subsystem must be walked by this gate: its
    modules appear in the collected module list (a silent pkgutil skip
    would exempt the whole package from the docstring requirement)."""
    backend_modules = {m for m in MODULES if m.startswith("repro.radio.backends")}
    assert backend_modules >= {
        "repro.radio.backends",
        "repro.radio.backends.base",
        "repro.radio.backends.fast",
        "repro.radio.backends.reference",
    }


def test_backends_public_api_documented():
    """Every name exported from ``repro.radio.backends`` has a docstring
    (the backend architecture is the substrate every experiment runs on;
    its API is documentation-critical — docs/simulation.md builds on
    these docstrings)."""
    import repro.radio.backends as backends

    missing = []
    for name in backends.__all__:
        obj = getattr(backends, name)
        if (inspect.isclass(obj) or inspect.isfunction(obj)) and not inspect.getdoc(
            obj
        ):
            missing.append(name)
    assert not missing, f"undocumented repro.radio.backends exports: {missing}"


def test_compiled_core_is_covered():
    """The compiled classifier core (and the benchmark-artifact helper
    it is gated by) must be walked by this gate: a silent pkgutil skip
    would exempt the hottest module in the repo from the docstring
    requirement."""
    assert "repro.core.compiled" in MODULES
    assert "repro.reporting.bench" in MODULES


def test_compiled_core_public_api_documented():
    """Every public item of ``repro.core.compiled`` has a docstring (the
    module is the classifier's default implementation; docs/performance.md
    builds on these docstrings)."""
    import repro.core.compiled as compiled

    missing = []
    for name in (
        "IndexedConfiguration",
        "LabelInterner",
        "compile_configuration",
        "compiled_classify",
    ):
        obj = getattr(compiled, name)
        if not inspect.getdoc(obj):
            missing.append(name)
    assert not missing, f"undocumented repro.core.compiled items: {missing}"


def test_experiment_registry_is_covered():
    """The experiment registry must be walked by this gate (no package
    ``__init__`` imports it, so only the walk reaches it)."""
    assert "repro.reporting.experiments" in MODULES


def test_batch_kernel_is_covered():
    """The batch kernel must be walked by this gate: a silent pkgutil
    skip would exempt the population-scale classification path from the
    docstring requirement."""
    assert "repro.core.batch" in MODULES
    assert "repro.testing" in MODULES


def test_batch_kernel_public_api_documented():
    """Every public item of ``repro.core.batch`` has a docstring (the
    module is the default classifier for every batched caller;
    docs/performance.md builds on these docstrings)."""
    import repro.core.batch as batch

    missing = []
    for name in (
        "BatchOutcome",
        "ConfigurationBatch",
        "batch_census_records",
        "batch_classify",
        "batch_outcomes",
        "resolve_batch_algorithm",
    ):
        obj = getattr(batch, name)
        if not inspect.getdoc(obj):
            missing.append(name)
    assert not missing, f"undocumented repro.core.batch items: {missing}"


def test_service_package_is_covered():
    """The service layer must be walked by this gate: its modules appear
    in the collected module list (a silent pkgutil skip would exempt the
    whole package from the docstring requirement)."""
    service_modules = {m for m in MODULES if m.startswith("repro.service")}
    assert service_modules >= {
        "repro.service",
        "repro.service.batcher",
        "repro.service.schema",
        "repro.service.server",
    }


def test_service_public_api_documented():
    """Every name exported from ``repro.service`` has a docstring (the
    serving layer is the public face of the system; its API is
    documentation-critical — docs/api.md and docs/service.md build on
    these docstrings)."""
    import repro.service as service

    missing = []
    for name in service.__all__:
        obj = getattr(service, name)
        if (inspect.isclass(obj) or inspect.isfunction(obj)) and not inspect.getdoc(
            obj
        ):
            missing.append(name)
    assert not missing, f"undocumented repro.service exports: {missing}"


def test_obs_package_is_covered():
    """The observability layer must be walked by this gate: its modules
    appear in the collected module list (a silent pkgutil skip would
    exempt the whole package from the docstring requirement)."""
    obs_modules = {m for m in MODULES if m.startswith("repro.obs")}
    assert obs_modules >= {
        "repro.obs",
        "repro.obs.events",
        "repro.obs.registry",
        "repro.obs.runtime",
        "repro.obs.summary",
        "repro.obs.tracing",
    }


def test_obs_public_api_documented():
    """Every name exported from ``repro.obs`` has a docstring (the
    tracing/telemetry surface is instrumented into every subsystem;
    docs/observability.md builds on these docstrings)."""
    import repro.obs as obs

    missing = []
    for name in obs.__all__:
        obj = getattr(obs, name)
        if (inspect.isclass(obj) or inspect.isfunction(obj)) and not inspect.getdoc(
            obj
        ):
            missing.append(name)
    assert not missing, f"undocumented repro.obs exports: {missing}"


def test_adversary_package_is_covered():
    """The adversary zoo must be walked by this gate: its modules appear
    in the collected module list (a silent pkgutil skip would exempt the
    whole package from the docstring requirement)."""
    adversary_modules = {m for m in MODULES if m.startswith("repro.adversary")}
    assert adversary_modules >= {
        "repro.adversary",
        "repro.adversary.specs",
        "repro.adversary.strategies",
    }


def test_adversary_public_api_documented():
    """Every name exported from ``repro.adversary`` has a docstring (the
    strategy zoo is the robustness subsystem's extension point;
    docs/robustness.md builds on these docstrings)."""
    import repro.adversary as adversary

    missing = []
    for name in adversary.__all__:
        obj = getattr(adversary, name)
        if (inspect.isclass(obj) or inspect.isfunction(obj)) and not inspect.getdoc(
            obj
        ):
            missing.append(name)
    assert not missing, f"undocumented repro.adversary exports: {missing}"


def test_campaigns_package_is_covered():
    """The campaign driver must be walked by this gate: its modules
    appear in the collected module list (a silent pkgutil skip would
    exempt the whole package from the docstring requirement)."""
    campaign_modules = {m for m in MODULES if m.startswith("repro.campaigns")}
    assert campaign_modules >= {
        "repro.campaigns",
        "repro.campaigns.bundle",
        "repro.campaigns.runner",
        "repro.campaigns.spec",
    }


def test_campaigns_public_api_documented():
    """Every name exported from ``repro.campaigns`` has a docstring (the
    campaign surface is how robustness results are produced and
    replayed; docs/robustness.md builds on these docstrings)."""
    import repro.campaigns as campaigns

    missing = []
    for name in campaigns.__all__:
        obj = getattr(campaigns, name)
        if (inspect.isclass(obj) or inspect.isfunction(obj)) and not inspect.getdoc(
            obj
        ):
            missing.append(name)
    assert not missing, f"undocumented repro.campaigns exports: {missing}"


def test_public_methods_documented():
    missing = []
    for mod, attr, obj in public_items():
        if not inspect.isclass(obj):
            continue
        for mname, meth in vars(obj).items():
            if mname.startswith("_") or not callable(meth):
                continue
            if isinstance(meth, (staticmethod, classmethod)):
                meth = meth.__func__
            if not inspect.getdoc(meth):
                missing.append(f"{mod}.{attr}.{mname}")
    assert not missing, f"undocumented public methods: {missing}"
