"""The traced benchmark's wrappers still find the calls they time.

perfbench/tracing.py wraps rfloc functions by module-global name and methods
by class attribute, from outside the program. A rename, or a fit that stops
going through a wrapped name, would leave the traced run's spans empty
without an error; these tests catch it in the tier-1 suite, together with
the model attributes its span facts read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import rfloc
import rfloc.cli  # noqa: F401  (tracing wraps cli names; the package does not import cli)
from rfloc import registry

from conftest import toy_dataset

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# the registry fit functions the traced run wraps, and an id fit through each
WRAPPED_FITS = {
    "svr_fit": "svr",
    "knn_fit": "knr",
    "gpr_fit": "gpr",
    "cart_fit": "dtr",
    "mlp_fit": "mlp",
    "gradient_boost_fit": "gbr",
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def boundaries(tracing):
    return tracing._boundaries(rfloc)


def _spy(monkeypatch, name):
    """Replace registry.<name> with a pass-through that records its calls."""
    calls = []
    original = getattr(registry, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(registry, name, spy)
    return calls


def test_every_wrapped_name_resolves(boundaries):
    functions, methods = boundaries
    for owner, attr, _ in functions:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
    for owner, attr, _ in methods:
        # the traced run replaces the attribute in the class's own __dict__
        assert callable(owner.__dict__.get(attr)), f"{owner.__name__}.{attr}"


def test_the_wrapped_registry_fits_are_the_six_named_here(boundaries):
    functions, _ = boundaries
    wrapped = {attr for owner, attr, _ in functions if owner is registry and attr.endswith("_fit")}
    assert wrapped == set(WRAPPED_FITS)


@pytest.mark.parametrize("name", sorted(WRAPPED_FITS))
def test_fit_model_goes_through_the_wrapped_name(monkeypatch, name):
    calls = _spy(monkeypatch, name)
    registry.fit_model(WRAPPED_FITS[name], toy_dataset(n=30, m=3, seed=0), seed=1)
    assert calls == [name]


def test_stacking_fits_bases_and_final_through_the_wrapped_names(monkeypatch):
    names = ("knn_fit", "cart_fit", "gradient_boost_fit")
    calls = {name: _spy(monkeypatch, name) for name in names}
    registry.fit_model("stacking-gbr[knr+dtr]", toy_dataset(n=30, m=3, seed=0), seed=1)
    # each base on five folds plus the full refit, then the final once
    assert [len(calls[name]) for name in names] == [6, 6, 1]


def test_every_boosting_stage_goes_through_cart_fit(monkeypatch):
    # perfbench's room-stack shape reads regressors.cart.fit.s from these
    # spans: a stage grown through a private helper would go untimed.
    from rfloc.ensemble import GradientBoosting
    from rfloc.regressors import CartRegressor

    calls = []
    original = CartRegressor.fit

    def spy(self, *args, **kwargs):
        calls.append(kwargs.get("order") is not None)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CartRegressor, "fit", spy)
    ds = toy_dataset(n=30, m=3, seed=0)
    GradientBoosting(n_estimators=4).fit(ds.features, ds.labels)
    assert calls == [True] * 12  # 4 stages x 3 outputs, each given the shared order


def test_span_facts_read_a_fitted_tree_as_its_node_arrays(tracing):
    # perfbench's facts count a tree's nodes and split features through
    # node_count and split_log, a view of the node arrays
    from rfloc.bandselect import permutation_importance
    from rfloc.regressors import CartRegressor, fit_on_dataset

    train, test = toy_dataset(n=60, m=12, seed=0), toy_dataset(n=20, m=12, seed=1)
    tree = fit_on_dataset(CartRegressor(max_depth=3), train)
    used = len(tree.used_features())
    assert 0 < used < train.m
    facts = {"nodes": tree.node_count, "split_features": used}
    assert tracing._tree_facts(tree) == facts
    assert tracing._fit_facts((train,), tree) == {"kind": "dtr", **facts}
    report = permutation_importance(tree, test, n_repeats=1, seed=0)
    assert tracing._importance_facts((tree, test), report) == {
        "columns_read": used, "columns_shuffled": test.m}
    knn = registry.fit_model("knr", train, seed=0)
    assert tracing._fit_facts((train,), knn) == {"kind": "knr"}
    report = permutation_importance(knn, test, n_repeats=1, seed=0)
    assert tracing._importance_facts((knn, test), report) == {
        "columns_read": test.m, "columns_shuffled": test.m}
