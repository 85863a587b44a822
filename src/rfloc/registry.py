"""Model id registry: one spec language for benchmark identifiers.

Grammar (every id parses to a base id or an EnsembleSpec). An ensemble id
starts with its class's kind, and the class's constructor decides what
follows: nothing, one base id, or a final id and a bracketed base list.
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

from .core import Dataset, _check_count, _child_seed
from .ensemble import (
    DEFAULT_STACK_BASES,
    STRATEGIES,
    EnsembleSpec,
    _parameters,
    build_stacking_plan,
    gradient_boost_fit,
    stacking_fit_from_plan,
)
from .regressors import cart_fit, fit_on_dataset, gpr_fit, knn_fit, mlp_fit, svr_fit

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

# the strategy of each ensemble class's kind, which starts all its ids
_KINDS = {cls.kind: strategy for strategy, cls in STRATEGIES.items()}

# the special cases of the grammar: two shorthands, and abr's rounds
_SHORTHANDS = {"abr": "abr-dtr", "etr": "ert"}
_ID_TUNING = {"boosting-abr": {"n_estimators": 50}}

ALIASES = {
    "baseline-all": list(BASE_IDS),
    "boosting-all": ["abr-svr", "abr-knr", "abr-gpr", "abr-dtr", "gbr", "hgbr"],
    "bagging-all": ["bagging-svr", "bagging-knr", "bagging-gpr", "rfr", "ert"],
    "stacking-all": [f"stacking-{final}" for final in DEFAULT_STACK_BASES],
}


def _spelling(kind: str) -> str:
    """How the grammar spells the ids of an ensemble kind."""
    takes = _parameters(STRATEGIES[_KINDS[kind]])
    if "base_builders" in takes:
        return f"{kind}-<final>[<id>+<id>+...]"
    if "base_builder" in takes:
        return f"{kind}[-<id>]" if kind in _SHORTHANDS else f"{kind}-<id>"
    return kind


_VALID_SUMMARY = (
    ", ".join([*BASE_IDS, *map(_spelling, _KINDS)]) + ", plus aliases " + ", ".join(sorted(ALIASES))
)


def _crc(s: str) -> int:
    return zlib.crc32(s.encode("utf-8"))


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

    Nested ids are kept verbatim in the spec's base/final fields, and the
    spec validates them recursively. Raises ValueError naming an unknown id
    or an alias.
    """
    mid = model_id.strip().lower()
    if mid in ALIASES:
        raise ValueError(f"alias {model_id!r} must be expanded before use")
    mid = _SHORTHANDS.get(mid, mid)
    if mid in _BASE_BUILDERS:
        return mid
    kind, dash, rest = mid.partition("-")
    if kind in _KINDS:
        strategy = _KINDS[kind]
        takes, tuning = _parameters(STRATEGIES[strategy]), _ID_TUNING.get(strategy, {})
        if "base_builders" in takes and dash:
            final, bases = rest, DEFAULT_STACK_BASES
            if final.endswith("]"):
                final, bases = _stacking_parts(final)
            return EnsembleSpec(strategy, base=bases, final=final, **tuning)
        if "base_builder" in takes and dash:
            return EnsembleSpec(strategy, base=(rest,), **tuning)
        if not dash and not takes & {"base_builder", "base_builders"}:
            return EnsembleSpec(strategy, **tuning)
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
    kind = STRATEGIES[spec.strategy].kind
    if spec.final is None:
        return "-".join((kind, *spec.base))
    label = f"{kind}-{spec.final}"
    return label if spec.base == DEFAULT_STACK_BASES else f"{label}[{'+'.join(spec.base)}]"


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
    # The out-of-fold plan depends only on (training set, bases, folds, plan
    # seed), so different final estimators over the same bases share one
    # plan. The entry keeps the training set alive, so its id is not reused.
    plan_seed = _child_seed(_crc("plan:" + ",".join(spec.base)), spec.n_folds, spec.seed)
    key = (id(train), spec.base, spec.n_folds, plan_seed)
    if key not in plan_cache:
        base_builders = [builder_for(b) for b in spec.base]
        plan = build_stacking_plan(train, base_builders, n_folds=spec.n_folds, seed=plan_seed)
        plan_cache[key] = (train, plan)
    return stacking_fit_from_plan(train, plan_cache[key][1], builder_for(spec.final), seed=eff_seed)


def builder_for(item, plan_cache=None):
    """Resolve an id or EnsembleSpec to a (train, seed) -> Model builder.

    A stacking builder takes its out-of-fold plan from plan_cache, building
    it there on a miss; with no cache each fit builds its own plan. The
    plan's seed comes from the spec's bases, n_folds and seed.
    """
    spec = _as_spec(item)
    if isinstance(spec, str):
        return _BASE_BUILDERS[spec]
    if spec.strategy == "stacking":
        return lambda tr, s: _fit_stacking_spec(spec, tr, s, {} if plan_cache is None else plan_cache)
    kwargs = spec.tuning()
    if spec.strategy == "boosting-gbr":
        # looked up as a module global at call time, as in _BASE_BUILDERS
        return lambda tr, s: gradient_boost_fit(tr, **kwargs)
    cls = STRATEGIES[spec.strategy]
    bases = [builder_for(b) for b in spec.base]
    if "seed" in _parameters(cls):
        return lambda tr, s: fit_on_dataset(cls(*bases, **kwargs, seed=s), tr)
    return lambda tr, s: fit_on_dataset(cls(*bases, **kwargs), tr)


def fit_model(item, train: Dataset, seed: int = 0, plan_cache=None):
    """Benchmark entry point: fit an id string or EnsembleSpec.

    The effective fit seed is derived from (seed, canonical id, spec seed) so
    results do not depend on the model's position in the benchmark list. A
    stacking plan is seeded by `seed` rather than the spec seed, so stacking
    entries of one benchmark that differ only in their final estimator share
    one plan through plan_cache.
    """
    _check_count("seed", seed, 0)
    spec = _as_spec(item)
    spec_seed = spec.seed if isinstance(spec, EnsembleSpec) else 0
    eff = _child_seed(seed, _crc(canonical_id(spec)), spec_seed)
    if isinstance(spec, EnsembleSpec):
        spec = dataclasses.replace(spec, seed=seed)
    return builder_for(spec, plan_cache)(train, eff)
