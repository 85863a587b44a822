"""Model id grammar, alias expansion, and EnsembleSpec-driven fitting."""

import re

import numpy as np
import pytest

from rfloc.ensemble import EnsembleSpec, StackingEnsemble
from rfloc.regressors import KnnRegressor
from rfloc.registry import (
    ALIASES,
    BASE_IDS,
    DEFAULT_STACK_BASES,
    builder_for,
    canonical_id,
    expand_model_ids,
    fit_model,
    parse_model_id,
)

from conftest import toy_dataset


class TestNormalizeAndExpand:
    def test_normalize_shortcuts(self):
        assert canonical_id("ABR") == "abr-dtr"
        assert canonical_id("etr") == "ert"
        assert canonical_id(" KNR ") == "knr"

    def test_alias_groups(self):
        assert expand_model_ids(["baseline-all"]) == list(BASE_IDS)
        assert expand_model_ids(["boosting-all"]) == [
            "abr-svr", "abr-knr", "abr-gpr", "abr-dtr", "gbr", "hgbr",
        ]
        assert expand_model_ids(["bagging-all"]) == [
            "bagging-svr", "bagging-knr", "bagging-gpr", "rfr", "ert",
        ]
        assert expand_model_ids(["stacking-all"]) == [
            f"stacking-{f}" for f in DEFAULT_STACK_BASES
        ]

    def test_comma_string_and_order(self):
        assert expand_model_ids("knr,dtr") == ["knr", "dtr"]
        assert expand_model_ids(["gbr", "baseline-all"]) == ["gbr"] + list(BASE_IDS)

    def test_unknown_id_lists_the_grammar(self):
        with pytest.raises(ValueError, match="valid ids"):
            expand_model_ids(["quantum"])

    def test_every_alias_expansion_resolves(self):
        for ids in ALIASES.values():
            for mid in ids:
                assert callable(builder_for(mid))


class TestBuilderFor:
    def test_base_builder_fits(self):
        ds = toy_dataset(n=30, m=3, seed=0)
        model = builder_for("knr")(ds, 0)
        assert isinstance(model, KnnRegressor)
        assert model.predict(ds.features[:2]).shape == (2, 3)

    def test_nested_ids(self):
        assert callable(builder_for("abr-knr"))
        assert callable(builder_for("bagging-dtr"))
        with pytest.raises(ValueError):
            builder_for("abr-nothing")


class TestCanonicalId:
    def test_strings(self):
        assert canonical_id("abr") == "abr-dtr"
        assert canonical_id("KNR") == "knr"
        with pytest.raises(ValueError, match="expanded"):
            canonical_id("baseline-all")

    def test_specs(self):
        assert canonical_id(EnsembleSpec(strategy="random-forest")) == "rfr"
        assert canonical_id(EnsembleSpec(strategy="bagging", base=("knr",))) == "bagging-knr"
        assert canonical_id(EnsembleSpec(strategy="boosting-abr", base=("knr",))) == "abr-knr"
        assert (
            canonical_id(EnsembleSpec(strategy="stacking", final="gbr")) == "stacking-gbr"
        )
        assert (
            canonical_id(EnsembleSpec(strategy="stacking", base=("knr", "dtr"), final="gbr"))
            == "stacking-gbr[knr+dtr]"
        )

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            canonical_id(42)


class TestEnsembleSpec:
    def test_round_trip(self):
        spec = EnsembleSpec(strategy="stacking", base=("knr", "dtr"), final="gbr", n_folds=4)
        assert EnsembleSpec.from_dict(spec.to_dict()) == spec

    def test_validation(self):
        with pytest.raises(ValueError, match="strategy"):
            EnsembleSpec(strategy="voting")
        with pytest.raises(ValueError, match="n_estimators"):
            EnsembleSpec(strategy="bagging", base=("dtr",), n_estimators=0)
        for bad in (2.5, True, "3"):
            with pytest.raises(ValueError, match=re.escape(f"n_estimators must be an integer, got {bad!r}")):
                EnsembleSpec(strategy="boosting-gbr", n_estimators=bad)
        with pytest.raises(ValueError, match="learning_rate"):
            EnsembleSpec(strategy="bagging", base=("dtr",), learning_rate=0.0)
        with pytest.raises(ValueError, match="final"):
            EnsembleSpec(strategy="stacking")

    def test_from_dict_refuses_an_unknown_key(self):
        with pytest.raises(ValueError, match="EnsembleSpec has no field 'nestimators'"):
            EnsembleSpec.from_dict({"strategy": "boosting-gbr", "nestimators": 7})
        assert EnsembleSpec.from_dict({"strategy": "boosting-gbr", "n_estimators": 7}).n_estimators == 7

    def test_counts_are_integers(self):
        cases = [
            ({"strategy": "boosting-hgbr", "max_bins": 2.5}, "max_bins must be an integer, got 2.5"),
            ({"strategy": "boosting-hgbr", "max_bins": True}, "max_bins must be an integer, got True"),
            ({"strategy": "boosting-hgbr", "max_bins": 257}, "max_bins must be in [2, 256], got 257"),
            ({"strategy": "stacking", "final": "dtr", "base": ("dtr",), "n_folds": 2.5},
             "n_folds must be an integer, got 2.5"),
            ({"strategy": "stacking", "final": "dtr", "n_folds": 1}, "n_folds must be >= 2, got 1"),
            ({"strategy": "boosting-gbr", "learning_rate": "0.1"},
             "learning_rate must be in (0, 1], got '0.1'"),
        ]
        for kwargs, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                EnsembleSpec(**kwargs)

    def test_fields_the_strategy_never_reads_are_rejected(self):
        cases = [
            ("random-forest", {"max_depth": 1}, "max_depth=1"),
            ("random-forest", {"learning_rate": 0.5}, "learning_rate=0.5"),
            ("extra-trees", {"max_bins": 4}, "max_bins=4"),
            ("boosting-gbr", {"max_bins": 4}, "max_bins=4"),
            ("boosting-abr", {"base": ("dtr",), "max_depth": None}, "max_depth=None"),
            ("bagging", {"base": ("dtr",), "n_folds": 3}, "n_folds=3"),
            ("stacking", {"final": "knr", "n_estimators": 7}, "n_estimators=7"),
        ]
        for strategy, kwargs, named in cases:
            field = named.split("=")[0]
            with pytest.raises(ValueError, match=re.escape(f"{strategy} does not use {field}, got {named}")):
                EnsembleSpec(strategy=strategy, **kwargs)
        with pytest.raises(ValueError, match="random-forest does not use"):
            EnsembleSpec("random-forest", max_depth=1, learning_rate=0.5, max_bins=4, n_folds=3)
        # the fields a strategy reads stay free
        EnsembleSpec("boosting-hgbr", n_estimators=5, learning_rate=0.5, max_depth=None, max_bins=4)
        EnsembleSpec("stacking", final="knr", n_folds=3, seed=2)
        EnsembleSpec("bagging", base=("dtr",), n_estimators=3, seed=2)


class TestFitModel:
    def test_string_id_round(self):
        ds = toy_dataset(n=40, m=3, seed=1)
        model = fit_model("dtr", ds, seed=0)
        assert model.predict(ds.features[:3]).shape == (3, 3)

    def test_seed_changes_seeded_models(self):
        ds = toy_dataset(n=40, m=3, seed=2)
        a = fit_model("mlp", ds, seed=0)
        b = fit_model("mlp", ds, seed=0)
        c = fit_model("mlp", ds, seed=1)
        assert np.array_equal(a.predict(ds.features), b.predict(ds.features))
        assert not np.array_equal(a.predict(ds.features), c.predict(ds.features))

    def test_spec_stacking_with_custom_bases(self):
        ds = toy_dataset(n=40, m=3, seed=3)
        spec = EnsembleSpec(strategy="stacking", base=("knr", "dtr"), final="dtr")
        model = fit_model(spec, ds, seed=0)
        assert isinstance(model, StackingEnsemble)
        assert model.meta_features_.shape == (40, 6)

    def test_shared_plan_across_finals(self):
        ds = toy_dataset(n=40, m=3, seed=4)
        cache = {}
        a = fit_model(
            EnsembleSpec(strategy="stacking", base=("knr", "dtr"), final="knr"),
            ds, seed=0, plan_cache=cache,
        )
        b = fit_model(
            EnsembleSpec(strategy="stacking", base=("knr", "dtr"), final="dtr"),
            ds, seed=0, plan_cache=cache,
        )
        assert len(cache) == 1  # same bases and folds reuse one out-of-fold plan
        assert np.array_equal(a.meta_features_, b.meta_features_)
        assert a.final_ is not b.final_

    def test_plan_cache_is_keyed_on_the_training_set(self):
        small, large = toy_dataset(n=30, m=3, seed=5), toy_dataset(n=40, m=3, seed=5)
        cache = {}
        fit_model("stacking-knr[knr+dtr]", small, seed=0, plan_cache=cache)
        model = fit_model("stacking-knr[knr+dtr]", large, seed=0, plan_cache=cache)
        assert model.meta_features_.shape == (40, 6)
        fresh = fit_model("stacking-knr[knr+dtr]", large, seed=0)
        assert np.array_equal(model.predict(large.features), fresh.predict(large.features))

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            fit_model(3.14, toy_dataset(n=10, m=2), seed=0)


class TestFitSpec:
    def test_bagging_needs_exactly_one_base(self):
        with pytest.raises(ValueError, match=r"exactly one base .*\('knr', 'dtr'\)"):
            EnsembleSpec(strategy="bagging", base=("knr", "dtr"))
        with pytest.raises(ValueError, match=r"exactly one base .*\(\)"):
            EnsembleSpec(strategy="boosting-abr", base=())

    @pytest.mark.parametrize(
        "spec",
        [
            EnsembleSpec(strategy="boosting-abr", base=("knr",), n_estimators=3),
            EnsembleSpec(strategy="boosting-gbr", n_estimators=7, learning_rate=0.3, max_depth=2),
            EnsembleSpec(
                strategy="boosting-hgbr", n_estimators=4, learning_rate=0.2, max_depth=1, max_bins=8
            ),
            EnsembleSpec(strategy="bagging", base=("dtr",), n_estimators=3),
            EnsembleSpec(strategy="random-forest", n_estimators=4),
            EnsembleSpec(strategy="extra-trees", n_estimators=2),
        ],
        ids=lambda spec: spec.strategy,
    )
    def test_spec_parameters_apply(self, spec):
        ds = toy_dataset(n=30, m=3, seed=6)
        model = fit_model(spec, ds)
        default = EnsembleSpec(strategy=spec.strategy, base=spec.base).to_dict()
        changed = {name: v for name, v in spec.to_dict().items() if v != default[name]}
        assert changed
        assert {name: getattr(model, name) for name in changed} == changed
        if hasattr(model, "train_rmse_path"):
            assert len(model.train_rmse_path) == spec.n_estimators
        elif model.kind == "abr":  # rounds may stop early
            assert 1 <= len(model.members_) <= spec.n_estimators
        else:
            assert len(model.members_) == spec.n_estimators

    def test_base_count_and_final_checked_at_construction(self):
        for strategy in ("boosting-gbr", "boosting-hgbr", "random-forest", "extra-trees"):
            with pytest.raises(ValueError, match=r"no base estimator ids, got base=\('dtr',\)"):
                EnsembleSpec(strategy=strategy, base=("dtr",))
        with pytest.raises(ValueError, match="final='knr'"):
            EnsembleSpec(strategy="bagging", base=("dtr",), final="knr")

    def test_empty_stacking_base_is_the_default_list(self):
        spec = EnsembleSpec(strategy="stacking", final="gbr")
        assert spec.base == DEFAULT_STACK_BASES
        assert spec == parse_model_id("stacking-gbr")


# every id the grammar documents, plus its shortcuts and nested forms
GRAMMAR_IDS = sorted(
    set(BASE_IDS).union(*ALIASES.values())
    | {"abr", "etr", "bagging-abr-knr", "stacking-gbr[knr+dtr]"}
)


class TestParseModelId:
    def test_forms(self):
        assert parse_model_id(" KNR ") == "knr"
        assert parse_model_id("abr") == EnsembleSpec(
            strategy="boosting-abr", base=("dtr",), n_estimators=50
        )
        assert parse_model_id("etr") == EnsembleSpec(strategy="extra-trees")
        assert parse_model_id("bagging-abr-knr") == EnsembleSpec(strategy="bagging", base=("abr-knr",))
        assert parse_model_id("stacking-gbr[knr+dtr]") == EnsembleSpec(
            strategy="stacking", base=("knr", "dtr"), final="gbr"
        )
        assert parse_model_id("stacking-knr[stacking-gbr[knr+dtr]+svr]") == EnsembleSpec(
            strategy="stacking", base=("stacking-gbr[knr+dtr]", "svr"), final="knr"
        )

    def test_canonical_id_is_the_inverse(self):
        for mid in GRAMMAR_IDS + ["stacking-knr[stacking-gbr[knr+dtr]+svr]"]:
            spec = parse_model_id(mid)
            assert parse_model_id(canonical_id(spec)) == spec, mid
            assert canonical_id(mid) == canonical_id(spec)

    @pytest.mark.parametrize(
        "bad, named",
        [
            ("stacking-gbr[knr", "unknown model id 'gbr[knr'"),
            ("stacking-gbr]", "unbalanced brackets in stacking id 'gbr]'"),
            ("stacking-gbr[]", "unknown model id ''"),
            ("stacking-[knr]", "unknown model id ''"),
            ("abr-nothing", "unknown model id 'nothing'"),
        ],
    )
    def test_malformed_ids_name_the_bad_part(self, bad, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            parse_model_id(bad)

    def test_id_and_parsed_spec_fit_identically(self):
        ds = toy_dataset(n=10, m=2, seed=7)
        cache = {}
        for mid in GRAMMAR_IDS:
            by_id = fit_model(mid, ds, seed=3, plan_cache=cache)
            by_spec = fit_model(parse_model_id(mid), ds, seed=3, plan_cache=cache)
            assert np.array_equal(by_id.predict(ds.features), by_spec.predict(ds.features)), mid

    def test_stacking_fit_does_not_depend_on_the_cache(self):
        ds = toy_dataset(n=30, m=3, seed=8)
        spec = EnsembleSpec(strategy="stacking", base=("knr", "dtr"), final="dtr", seed=4)
        for item in ("stacking-gbr[knr+dtr]", spec):
            cached = fit_model(item, ds, seed=2, plan_cache={})
            fresh = fit_model(item, ds, seed=2)
            assert np.array_equal(cached.meta_features_, fresh.meta_features_)
            assert np.array_equal(cached.predict(ds.features), fresh.predict(ds.features))
