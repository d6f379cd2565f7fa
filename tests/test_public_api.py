"""The public API surface: everything documented in README must import."""

import importlib

import pytest

import repro

SUBPACKAGES = (
    "analysis",
    "core",
    "database",
    "deploy",
    "experiments",
    "extensions",
    "federation",
    "network",
    "observability",
    "planner",
    "privacy",
    "service",
    "sharding",
)


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_from_module_docstring_runs(self):
        import random

        from repro import (
            DataGenerator,
            RunConfig,
            TopKQuery,
            database_from_values,
            run_topk_query,
        )

        gen = DataGenerator(rng=random.Random(7))
        databases = [
            database_from_values(f"node{i}", values)
            for i, values in enumerate(gen.node_datasets(10, 100))
        ]
        query = TopKQuery(table="data", attribute="value", k=5)
        result = run_topk_query(databases, query, RunConfig(seed=7))
        assert len(result.answer()) == 5
        assert result.precision() == 1.0

    def test_subpackages_importable(self):
        for package in SUBPACKAGES:
            module = importlib.import_module(f"repro.{package}")
            assert module.__doc__, f"{module.__name__} lacks a docstring"
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"
            assert set(module.__all__) <= set(dir(module))

    def test_all_is_the_lazy_map_plus_the_eager_names(self):
        """``__all__`` is derived from each package's one export map; the
        only names bound eagerly are the two listed here."""
        eager = {"repro": {"__version__"}, "repro.privacy": {"precision"}}
        packages = ["repro", "repro.experiments.figures"]
        packages += [f"repro.{package}" for package in SUBPACKAGES]
        for package in packages:
            module = importlib.import_module(package)
            mapped = [n for names in module._EXPORTS.values() for n in names]
            assert len(mapped) == len(set(mapped)), f"{package}: name mapped twice"
            bound = eager.get(package, set())
            assert not bound & set(mapped), package
            assert sorted(module.__all__) == sorted(set(mapped) | bound), package

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
            repro.core.nonesuch
        with pytest.raises(ImportError):
            from repro.core import nonesuch  # noqa: F401

    def test_lazy_lookup_never_freezes_a_patched_name(self):
        """A package answers from the defining module on every access, so a
        name first touched under ``mock.patch`` does not outlive the patch."""
        from unittest import mock

        import repro.core.driver as driver

        original = driver.run_topk_query
        with mock.patch.object(driver, "run_topk_query", object()) as stand_in:
            assert repro.core.run_topk_query is stand_in
        assert repro.core.run_topk_query is original
        assert "run_topk_query" not in vars(repro.core)

    def test_protocol_constants(self):
        assert repro.PROTOCOLS == ("probabilistic", "naive", "anonymous-naive")
