import ast
import re
from pathlib import Path

import numpy as np
import pytest

import gyroball
from gyroball import (BoundaryError, CheckConfig, DimensionMismatchError, DomainError,
                      UnknownNameError, cli, get_model, get_normed, gyronorm_E, gyronorm_M,
                      make_rng, run_suite)
from gyroball.registry import (
    COMPLEX_MODELS,
    CONVERSIONS,
    DEFAULT_DIM,
    DEFAULT_GYRONORM,
    GYRONORMS,
    MODEL_NAMES,
    gyronorm_names,
)
from gyroball.vectors import sample_ball_points

PACKAGE = Path(gyroball.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _modules():
    """(path, syntax tree) of every module of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("key", list(GYRONORMS), ids="-".join)
def test_public_metric_equals_engine_distance_bitwise(key):
    # `gyroball dist` prints the guarded metric, the suites verify the
    # distance the unguarded norm induces: inside the guard they are one.
    model, gyronorm = key
    for dim in (2,) if model in COMPLEX_MODELS else (1, 2, 3, 4):
        rng = make_rng(dim)
        u = sample_ball_points(dim, 500, rng, cap=0.95)
        v = sample_ball_points(dim, 500, rng, cap=0.95)
        public = np.asarray(GYRONORMS[key].metric(u, v), dtype=float)
        engine = np.asarray(get_normed(model, dim, gyronorm).distance(u, v), dtype=float)
        assert public.shape == engine.shape == (500,)
        assert public.tobytes() == engine.tobytes(), (key, dim)


@pytest.mark.parametrize("key", list(GYRONORMS), ids="-".join)
@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_public_metric_rejects_non_finite_points(key, bad):
    point, origin = np.array([bad, 0.0]), np.zeros(2)
    for u, v in ((point, origin), (origin, point)):
        with pytest.raises(DomainError, match="non-finite"):
            GYRONORMS[key].metric(u, v)


# (u, v, error): pairs that are not two points of one model, for every model;
# the disk also rejects two points of dim 3.
WRONG_SHAPES = [
    ([0.5], [0.1, 0.2, 0.3], DimensionMismatchError),
    ([0.1, 0.2, 0.3], [0.5], DimensionMismatchError),
    ([], [], DomainError),
    (0.5, 0.5, DomainError),
    (np.zeros((2, 2)), np.zeros((3, 2)), DimensionMismatchError),
]
DISK_AT_DIM_3 = ([0.1, 0.2, 0.3], [0.3, 0.2, 0.1], DimensionMismatchError)


@pytest.mark.parametrize("key, u, v, error", [
    (key, *case) for key in GYRONORMS
    for case in WRONG_SHAPES + [DISK_AT_DIM_3] * (key[0] in COMPLEX_MODELS)
])
def test_public_metric_rejects_points_of_the_wrong_shape(key, u, v, error):
    # Neither broadcast nor indexed: each pair is rejected before the sum.
    with pytest.raises(error):
        GYRONORMS[key].metric(u, v)


@pytest.mark.parametrize("gyronorm, key", [(gyronorm_E, ("einstein", "rapidity")),
                                           (gyronorm_M, ("mobius", "rapidity"))],
                         ids=["einstein", "mobius"])
def test_public_gyronorm_is_the_checked_engine_norm(gyronorm, key):
    v = sample_ball_points(3, 500, make_rng(3), cap=0.95)
    assert gyronorm(v).tobytes() == GYRONORMS[key].norm(v).tobytes()
    assert gyronorm(v[0]) == GYRONORMS[key].norm(v[0])
    # A norm that overflows is past the rim too, with no numpy warning.
    for point in ([1 - 1e-13, 0.0], [1e308, 0.0]):
        with pytest.raises(BoundaryError, match="boundary guard"):
            gyronorm(point)
    for point in (0.5, [], np.zeros((2, 0))):
        with pytest.raises(DomainError, match="dim must be >= 1"):
            gyronorm(point)


@pytest.mark.parametrize("key", [k for k in GYRONORMS if get_model(k[0], 2).validate],
                         ids="-".join)
def test_public_metric_guards_the_sum_at_the_rim(key):
    # Both points lie 1e-7 inside the rim, but neg u (+) v rounds to within
    # 1e-12 of it: one rim rule for every model with a point check.
    u, v = np.array([-0.9999999, 0.0]), np.array([0.9999999, 0.0])
    with pytest.raises(BoundaryError, match="boundary guard"):
        GYRONORMS[key].metric(u, v)


@pytest.mark.parametrize("name, key", [
    ("rapidity_metric_dE", ("einstein", "rapidity")),
    ("gyrometric_de", ("einstein", "euclidean")),
    ("rapidity_metric_dM", ("mobius", "rapidity")),
    ("poincare_metric", ("poincare-disk", "poincare")),
])
def test_public_metric_names_are_the_registry_metrics(name, key):
    assert getattr(gyroball, name) is GYRONORMS[key].metric


def test_every_model_has_a_default_dim_and_a_registered_default_gyronorm():
    assert set(DEFAULT_DIM) == set(DEFAULT_GYRONORM) == set(MODEL_NAMES)
    assert {m for m, _ in GYRONORMS} == set(MODEL_NAMES)
    for model in MODEL_NAMES:
        assert DEFAULT_GYRONORM[model] in gyronorm_names(model)
        nm = get_normed(model)
        assert nm.model.dim == DEFAULT_DIM[model]
        assert nm.norm_name == DEFAULT_GYRONORM[model]


def test_gyronorm_names_of_an_unknown_model_name_the_valid_models():
    with pytest.raises(UnknownNameError) as err:
        gyronorm_names("klein")
    assert str(err.value) == f"unknown model 'klein'; valid models: {', '.join(MODEL_NAMES)}"


def test_disk_runs_at_its_default_dim():
    assert get_model("poincare-disk").dim == 2
    assert get_normed("poincare-disk").model.dim == 2
    report = run_suite("poincare-disk", "klee", CheckConfig(samples=200))
    assert report.dim == 2
    assert report.to_json() == run_suite("poincare-disk", "klee",
                                         CheckConfig(samples=200), dim=2).to_json()


def test_ball_homomorphisms_come_from_the_conversion_table():
    for model in MODEL_NAMES:
        m = get_model(model, dim=2)
        target, f = m.hom
        if model == "group":
            assert target.name == "group"
        else:
            assert f is CONVERSIONS[model, target.name]
        assert target.hom is None


def test_cli_tables_are_the_registry_tables():
    assert cli._ROUTES is CONVERSIONS
    assert cli._METRICS == {key: g.metric for key, g in GYRONORMS.items()}
    # Plain functions of the package: a tracer can name each by its module.
    for fn in list(cli._METRICS.values()) + list(cli._ROUTES.values()):
        assert fn.__module__.startswith("gyroball.") and fn.__name__ != "<lambda>"


def test_only_the_registry_names_a_model_or_gyronorm():
    names = set(MODEL_NAMES) | {g for _, g in GYRONORMS}
    found = []
    for path, tree in _modules():
        if path.name == "registry.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in names:
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert not found, found


def test_only_the_registry_applies_the_point_checks():
    # One input guard: every other module checks points through check_points.
    found = []
    for path, tree in _modules():
        if path.name in ("registry.py", "vectors.py"):
            continue
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "name", None)
            if isinstance(node, (ast.Name, ast.alias)) and name in ("ensure_in_ball",
                                                                    "ensure_finite"):
                found.append(f"{path.name}: {name}")
    assert not found, found


def test_no_module_names_longdouble():
    # One working precision: every kernel computes in float64, so no result
    # depends on what the platform's longdouble is.
    found = [path.name for path, _ in _modules() if "longdouble" in path.read_text()]
    assert not found, found


def test_no_module_calls_blas():
    # Reports are byte-identical across CPUs: BLAS picks its kernel by CPU
    # (with or without FMA), so no kernel may go through it.  The einsum of
    # vectors.dot, from dim 8 on, runs numpy's own loop.
    blas = {"matmul", "dot", "vdot", "inner", "tensordot", "linalg"}
    found = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno}: @")
            elif isinstance(node, ast.Attribute) and node.attr in blas:
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None) or ""
                found += [f"{path.name}:{node.lineno}: import {a.name}" for a in node.names
                          if "linalg" in f"{module}.{a.name}"
                          or (module.startswith("numpy") and a.name in blas)]
    assert not found, found


def test_only_vectors_knows_the_layout():
    # One module decides how point batches are laid out (planar_empty) and
    # hands the kernels their coordinate-first views (coordinate_views); no
    # other module moves axes or reorders memory by itself.
    layout = {"TO_FRONT", "TO_BACK", "transpose", "moveaxis", "asfortranarray"}
    found = []
    for path, tree in _modules():
        if path.name == "vectors.py":
            continue
        for node in ast.walk(tree):
            name = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}.get(type(node))
            if name and getattr(node, name) in layout:
                found.append(f"{path.name}:{node.lineno} {getattr(node, name)}")
    assert not found, found


def test_all_lists_every_name_the_package_binds():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets}
    assert sorted(bound - {"__all__", "__version__"}) == sorted(gyroball.__all__)


def test_every_public_name_is_used_in_the_package_or_documented():
    # A public name that no other module reads is kept only as documented
    # API; anything else only tests would reach.
    used = set()
    for path, tree in _modules():
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    api = README.read_text().split("\n## Python API\n")[1].split("\n## ")[0]
    documented = set(re.findall(r"\w+", api))
    orphans = [name for name in gyroball.__all__ if name not in used | documented]
    assert not orphans, orphans
