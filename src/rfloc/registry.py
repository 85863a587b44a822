"""Model id registry: one spec language for benchmark identifiers.

Grammar (every id parses to a base id or an EnsembleSpec):
  base regressors   svr | knr | gpr | dtr | mlp
  boosting          abr-<id> (50 rounds) | abr (= abr-dtr) | gbr | hgbr
  bagging           bagging-<id> | rfr | ert | etr (= ert)
  stacking          stacking-<final>   (ten-regressor default base list)
                    stacking-<final>[<id>+<id>+...]
<id> is any id of the grammar. Aliases baseline-all / boosting-all /
bagging-all / stacking-all expand to the standard comparison groups.
canonical_id is the inverse of parse_model_id, and every id or spec resolves
to a builder with signature (train: Dataset, seed: int) -> fitted Model.
"""

from __future__ import annotations

import dataclasses
import zlib

from .core import Dataset
from .ensemble import (
    DEFAULT_STACK_BASES,
    EnsembleSpec,
    _child_seed,
    adaboost_r2_fit,
    bagging_fit,
    build_stacking_plan,
    extra_trees_fit,
    gradient_boost_fit,
    hist_gradient_boost_fit,
    random_forest_fit,
    stacking_fit_from_plan,
)
from .regressors import cart_fit, gpr_fit, knn_fit, mlp_fit, svr_fit

# The lambdas look the fit functions up as module globals at call time, so a
# wrapper installed on this module (perfbench's traced run) sees every call.
_BASE_BUILDERS = {
    "svr": lambda tr, s: svr_fit(tr),
    "knr": lambda tr, s: knn_fit(tr),
    "gpr": lambda tr, s: gpr_fit(tr),
    "dtr": lambda tr, s: cart_fit(tr),
    "mlp": lambda tr, s: mlp_fit(tr, seed=s),
}
BASE_IDS = tuple(_BASE_BUILDERS)

# ids that name a strategy with no base estimator
_PLAIN_IDS = {
    "gbr": "boosting-gbr",
    "hgbr": "boosting-hgbr",
    "rfr": "random-forest",
    "ert": "extra-trees",
    "etr": "extra-trees",  # alternate abbreviation for extremely randomized trees
}
_PLAIN_LABELS = {strategy: mid for mid, strategy in _PLAIN_IDS.items() if mid != "etr"}

ALIASES = {
    "baseline-all": list(BASE_IDS),
    "boosting-all": ["abr-svr", "abr-knr", "abr-gpr", "abr-dtr", "gbr", "hgbr"],
    "bagging-all": ["bagging-svr", "bagging-knr", "bagging-gpr", "rfr", "ert"],
    "stacking-all": [f"stacking-{final}" for final in DEFAULT_STACK_BASES],
}

_VALID_SUMMARY = (
    "svr, knr, gpr, dtr, mlp, abr[-<id>], gbr, hgbr, bagging-<id>, rfr, ert, "
    "stacking-<final>[<id>+<id>+...], plus aliases " + ", ".join(sorted(ALIASES))
)


def _crc(s: str) -> int:
    return zlib.crc32(s.encode("utf-8"))


def _nested(model_id: str) -> str:
    """A base or final id inside another id: validated, kept verbatim."""
    parse_model_id(model_id)
    return model_id


def _stacking_parts(rest: str) -> tuple[str, tuple[str, ...]]:
    """Split '<final>[a+b+...]' into the final id and the base ids.

    The bracket is the one closed by the last character, and '+' separates
    bases only outside nested brackets, so bases and the final may themselves
    be bracketed stacking ids.
    """
    depth = 0
    for start in range(len(rest) - 1, -1, -1):
        depth += (rest[start] == "]") - (rest[start] == "[")
        if depth == 0:
            break
    if depth != 0:
        raise ValueError(f"unbalanced brackets in stacking id {rest!r}")
    bases, depth, begin = [], 0, start + 1
    for i in range(start + 1, len(rest) - 1):
        depth += (rest[i] == "[") - (rest[i] == "]")
        if rest[i] == "+" and depth == 0:
            bases.append(rest[begin:i])
            begin = i + 1
    bases.append(rest[begin:-1])
    return rest[:start], tuple(bases)


def parse_model_id(model_id: str):
    """Parse one id (see the module grammar) into a base id or an EnsembleSpec.

    Nested ids are validated recursively and kept verbatim in the spec's
    base/final fields. Raises ValueError naming an unknown id or an alias.
    """
    mid = model_id.strip().lower()
    if mid in ALIASES:
        raise ValueError(f"alias {model_id!r} must be expanded before use")
    if mid in _BASE_BUILDERS:
        return mid
    if mid in _PLAIN_IDS:
        return EnsembleSpec(strategy=_PLAIN_IDS[mid])
    if mid == "abr":
        mid = "abr-dtr"
    if mid.startswith("abr-"):
        return EnsembleSpec(strategy="boosting-abr", base=(_nested(mid[len("abr-") :]),), n_estimators=50)
    if mid.startswith("bagging-"):
        return EnsembleSpec(strategy="bagging", base=(_nested(mid[len("bagging-") :]),))
    if mid.startswith("stacking-"):
        final, bases = mid[len("stacking-") :], DEFAULT_STACK_BASES
        if final.endswith("]"):
            final, bases = _stacking_parts(final)
        return EnsembleSpec(
            strategy="stacking", base=tuple(_nested(b) for b in bases), final=_nested(final)
        )
    raise ValueError(f"unknown model id {model_id!r}; valid ids: {_VALID_SUMMARY}")


def _as_spec(item):
    """The base id or EnsembleSpec an id string or spec stands for."""
    if isinstance(item, str):
        return parse_model_id(item)
    if not isinstance(item, EnsembleSpec):
        raise TypeError(f"expected model id string or EnsembleSpec, got {type(item).__name__}")
    return item


def canonical_id(item) -> str:
    """Display/seeding label for a model id string or EnsembleSpec.

    The inverse of parse_model_id: parsing the label gives back the spec of
    any id. Hyperparameters the grammar does not spell (rounds, folds, ...)
    are not part of the label.
    """
    spec = _as_spec(item)
    if isinstance(spec, str):
        return spec
    if spec.strategy == "boosting-abr":
        return f"abr-{spec.base[0]}"
    if spec.strategy == "bagging":
        return f"bagging-{spec.base[0]}"
    if spec.strategy == "stacking":
        if spec.base == DEFAULT_STACK_BASES:
            return f"stacking-{spec.final}"
        return f"stacking-{spec.final}[{'+'.join(spec.base)}]"
    return _PLAIN_LABELS[spec.strategy]


def expand_model_ids(tokens) -> list[str]:
    """Flatten aliases and canonicalize ids, preserving request order."""
    if isinstance(tokens, str):
        tokens = [t for t in tokens.split(",") if t.strip()]
    out = []
    for tok in tokens:
        mid = tok.strip().lower()
        out.extend(ALIASES[mid] if mid in ALIASES else [canonical_id(mid)])
    return out


def _fit_stacking_spec(spec: EnsembleSpec, train: Dataset, eff_seed: int, plan_cache):
    # The out-of-fold plan depends only on (bases, folds, plan seed), so
    # different final estimators over the same bases share one plan.
    plan_seed = _child_seed(_crc("plan:" + ",".join(spec.base)), spec.n_folds, spec.seed)
    key = (spec.base, spec.n_folds, plan_seed)
    if key not in plan_cache:
        base_builders = [builder_for(b) for b in spec.base]
        plan_cache[key] = build_stacking_plan(train, base_builders, n_folds=spec.n_folds, seed=plan_seed)
    return stacking_fit_from_plan(
        train, plan_cache[key], builder_for(spec.final), n_folds=spec.n_folds, seed=eff_seed
    )


def builder_for(item, plan_cache=None):
    """Resolve an id or EnsembleSpec to a (train, seed) -> Model builder.

    A stacking builder takes its out-of-fold plan from plan_cache, building
    it there on a miss; with no cache each fit builds its own plan. The
    plan's seed comes from the spec's bases, n_folds and seed.
    """
    spec = _as_spec(item)
    if isinstance(spec, str):
        return _BASE_BUILDERS[spec]
    n = spec.n_estimators
    if spec.strategy == "boosting-abr":
        base = builder_for(spec.base[0])
        return lambda tr, s: adaboost_r2_fit(tr, base, n_estimators=n, seed=s)
    if spec.strategy == "boosting-gbr":
        return lambda tr, s: gradient_boost_fit(
            tr, n_estimators=n, learning_rate=spec.learning_rate, max_depth=spec.max_depth
        )
    if spec.strategy == "boosting-hgbr":
        return lambda tr, s: hist_gradient_boost_fit(
            tr,
            n_estimators=n,
            learning_rate=spec.learning_rate,
            max_depth=spec.max_depth,
            max_bins=spec.max_bins,
        )
    if spec.strategy == "bagging":
        base = builder_for(spec.base[0])
        return lambda tr, s: bagging_fit(tr, base, n_estimators=n, seed=s)
    if spec.strategy == "random-forest":
        return lambda tr, s: random_forest_fit(tr, n_estimators=n, seed=s)
    if spec.strategy == "extra-trees":
        return lambda tr, s: extra_trees_fit(tr, n_estimators=n, seed=s)
    return lambda tr, s: _fit_stacking_spec(spec, tr, s, {} if plan_cache is None else plan_cache)


def fit_model(item, train: Dataset, seed: int = 0, plan_cache=None):
    """Benchmark entry point: fit an id string or EnsembleSpec.

    The effective fit seed is derived from (seed, canonical id, spec seed) so
    results do not depend on the model's position in the benchmark list. A
    stacking plan is seeded by `seed` rather than the spec seed, so stacking
    entries of one benchmark that differ only in their final estimator share
    one plan through plan_cache.
    """
    spec = _as_spec(item)
    spec_seed = spec.seed if isinstance(spec, EnsembleSpec) else 0
    eff = _child_seed(seed, _crc(canonical_id(spec)), spec_seed)
    if isinstance(spec, EnsembleSpec):
        spec = dataclasses.replace(spec, seed=seed)
    return builder_for(spec, plan_cache)(train, eff)
