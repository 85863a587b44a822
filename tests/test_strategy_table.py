"""Pins of what the strategy table reads off each ensemble class.

EnsembleSpec and the id grammar derive a strategy's tuning fields, its base
count and its id from the class in ensemble.STRATEGIES. The tables below are
written out by hand, so a constructor or kind that changes shows up here.
Labels feed fit seeds: a label that moves changes benchmark numbers.
"""

import re

import pytest

from rfloc.ensemble import STRATEGIES, EnsembleSpec
from rfloc.registry import ALIASES, BASE_IDS, builder_for, canonical_id, parse_model_id

from conftest import toy_dataset

# the tuning fields each strategy reads
TUNING_READ = {
    "boosting-abr": ("n_estimators",),
    "boosting-gbr": ("n_estimators", "learning_rate", "max_depth"),
    "boosting-hgbr": ("n_estimators", "learning_rate", "max_depth", "max_bins"),
    "bagging": ("n_estimators",),
    "random-forest": ("n_estimators",),
    "extra-trees": ("n_estimators",),
    "stacking": ("n_folds",),
}

# the base list lengths, up to three, each strategy accepts; stacking also
# takes a final id, and its empty list stands for the default bases
BASE_COUNTS = {
    "boosting-abr": {1},
    "boosting-gbr": {0},
    "boosting-hgbr": {0},
    "bagging": {1},
    "random-forest": {0},
    "extra-trees": {0},
    "stacking": {0, 1, 2, 3},
}

# the strategies whose classes take the fit seed
SEEDED = {"boosting-abr", "bagging", "random-forest", "extra-trees", "stacking"}

# every id of the grammar, and the label canonical_id gives it
GRAMMAR_LABELS = {
    **{mid: mid for mid in ("svr", "knr", "gpr", "dtr", "mlp")},
    **{mid: mid for mid in ("abr-svr", "abr-knr", "abr-gpr", "abr-dtr", "gbr", "hgbr")},
    **{mid: mid for mid in ("bagging-svr", "bagging-knr", "bagging-gpr", "rfr", "ert")},
    **{f"stacking-{f}": f"stacking-{f}"
       for f in ("svr", "knr", "gpr", "dtr", "mlp", "abr", "gbr", "hgbr", "rfr", "ert")},
    "abr": "abr-dtr",
    " ABR ": "abr-dtr",
    "etr": "ert",
    "bagging-abr-knr": "bagging-abr-knr",
    "stacking-gbr[knr+dtr]": "stacking-gbr[knr+dtr]",
    "stacking-knr[stacking-gbr[knr+dtr]+svr]": "stacking-knr[stacking-gbr[knr+dtr]+svr]",
}

# the EnsembleSpecs the test suite and perfbench build, and their labels
SPEC_LABELS = [
    (EnsembleSpec("random-forest"), "rfr"),
    (EnsembleSpec("random-forest", n_estimators=4), "rfr"),
    (EnsembleSpec("extra-trees"), "ert"),
    (EnsembleSpec("extra-trees", n_estimators=2), "ert"),
    (EnsembleSpec("bagging", base=("knr",)), "bagging-knr"),
    (EnsembleSpec("bagging", base=("dtr",), n_estimators=3), "bagging-dtr"),
    (EnsembleSpec("bagging", base=("dtr",), n_estimators=3, seed=2), "bagging-dtr"),
    (EnsembleSpec("bagging", base=("abr-knr",)), "bagging-abr-knr"),
    (EnsembleSpec("boosting-abr", base=("knr",)), "abr-knr"),
    (EnsembleSpec("boosting-abr", base=("knr",), n_estimators=3), "abr-knr"),
    (EnsembleSpec("boosting-abr", base=("dtr",), n_estimators=50), "abr-dtr"),
    # 100 rounds, yet the same label as the 50-round id abr-dtr
    (EnsembleSpec("boosting-abr", base=("dtr",)), "abr-dtr"),
    (EnsembleSpec("boosting-gbr", n_estimators=7, learning_rate=0.3, max_depth=2), "gbr"),
    (EnsembleSpec("boosting-hgbr", n_estimators=4, learning_rate=0.2, max_depth=1, max_bins=8),
     "hgbr"),
    (EnsembleSpec("boosting-hgbr", n_estimators=5, learning_rate=0.5, max_depth=None, max_bins=4),
     "hgbr"),
    (EnsembleSpec("stacking", final="gbr"), "stacking-gbr"),
    (EnsembleSpec("stacking", final="knr", n_folds=3, seed=2), "stacking-knr"),
    (EnsembleSpec("stacking", base=("knr", "dtr"), final="gbr"), "stacking-gbr[knr+dtr]"),
    (EnsembleSpec("stacking", base=("knr", "dtr"), final="gbr", n_folds=4),
     "stacking-gbr[knr+dtr]"),
    (EnsembleSpec("stacking", base=("knr", "dtr"), final="knr"), "stacking-knr[knr+dtr]"),
    (EnsembleSpec("stacking", base=("knr", "dtr"), final="dtr"), "stacking-dtr[knr+dtr]"),
    (EnsembleSpec("stacking", base=("knr", "dtr"), final="dtr", seed=4), "stacking-dtr[knr+dtr]"),
    (EnsembleSpec("stacking", base=("stacking-gbr[knr+dtr]", "svr"), final="knr"),
     "stacking-knr[stacking-gbr[knr+dtr]+svr]"),
]


def _spec(strategy, n_bases):
    final = "knr" if strategy == "stacking" else None
    return EnsembleSpec(strategy, base=("dtr",) * n_bases, final=final)


def test_the_table_holds_the_seven_strategies():
    assert list(STRATEGIES) == list(TUNING_READ) == list(BASE_COUNTS)


@pytest.mark.parametrize("strategy", sorted(TUNING_READ))
def test_tuning_fields(strategy):
    n_bases = min(BASE_COUNTS[strategy])
    assert tuple(_spec(strategy, n_bases).tuning()) == TUNING_READ[strategy]


@pytest.mark.parametrize("strategy", sorted(BASE_COUNTS))
def test_base_count(strategy):
    for n_bases in range(4):
        if n_bases in BASE_COUNTS[strategy]:
            _spec(strategy, n_bases)
        else:
            with pytest.raises(ValueError, match="base estimator id"):
                _spec(strategy, n_bases)
    base = ("dtr",) * min(BASE_COUNTS[strategy])
    if strategy == "stacking":
        with pytest.raises(ValueError, match="stacking requires a final estimator id"):
            EnsembleSpec(strategy, base=base)
    else:
        with pytest.raises(ValueError, match="only stacking takes a final estimator id"):
            EnsembleSpec(strategy, base=base, final="knr")


@pytest.mark.parametrize("strategy", sorted(BASE_COUNTS))
def test_the_fit_seed_goes_to_every_class_that_takes_one(strategy):
    spec = _spec(strategy, 1 if 1 in BASE_COUNTS[strategy] else 0)
    model = builder_for(spec)(toy_dataset(n=20, m=2), 7)
    assert getattr(model, "seed", None) == (7 if strategy in SEEDED else None)


def test_every_grammar_id_is_pinned():
    expected = set(BASE_IDS).union(*ALIASES.values())
    assert expected <= set(GRAMMAR_LABELS)


@pytest.mark.parametrize("mid", sorted(GRAMMAR_LABELS))
def test_grammar_id_labels(mid):
    assert canonical_id(mid) == GRAMMAR_LABELS[mid]


@pytest.mark.parametrize("spec, label", SPEC_LABELS, ids=[label for _, label in SPEC_LABELS])
def test_spec_labels(spec, label):
    assert canonical_id(spec) == label


def test_ids_start_with_the_class_kind():
    for mid in GRAMMAR_LABELS:
        spec = parse_model_id(mid)
        if isinstance(spec, EnsembleSpec):
            assert canonical_id(spec).startswith(STRATEGIES[spec.strategy].kind), mid


@pytest.mark.parametrize("bad", ["stacking", "bagging", "gbr-knr", "rfr-dtr", "hgbr-"])
def test_ids_in_the_wrong_form_are_unknown(bad):
    summary = (
        "svr, knr, gpr, dtr, mlp, abr[-<id>], gbr, hgbr, bagging-<id>, rfr, ert, "
        "stacking-<final>[<id>+<id>+...], plus aliases bagging-all, baseline-all, "
        "boosting-all, stacking-all"
    )
    with pytest.raises(ValueError, match=re.escape(f"unknown model id {bad!r}; valid ids: {summary}")):
        parse_model_id(bad)
