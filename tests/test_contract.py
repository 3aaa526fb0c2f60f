"""The planned contraction kernel ``jets._einsum`` against numpy's own einsum.

The geometry contracts per-node tensors whose leading axis, labelled ``b``,
is the batch.  The kernel plans each signature once per non-batch shape and
runs its pairwise steps as C einsum on batch-last operands; these tests
hold it to ``np.einsum(..., optimize=True)``, check that a plan does not
depend on the batch length or on the cache, that the calls it leaves to
numpy take numpy's route, that the modules keep the batch-label convention
the kernel relies on, and that whole reports agree with the numpy route.
"""

import ast
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitneygeo import geometry, jets, spaceforms, verify
from whitneygeo.immersions import make_spec
from whitneygeo.verify import run_case

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

LABELS = "acdefghi"


@st.composite
def signatures(draw, batched_output=True):
    """A subscripts string with its operands' shapes, batch axes of length 0.

    1 to 6 operands of up to three labels each, a label repeated within a
    term now and then, dims 1 to 9; some operands carry no batch label.
    """
    count = draw(st.integers(1, 6))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=5, unique=True))
    dims = {c: draw(st.integers(1, 9)) for c in labels}
    terms = [draw(st.lists(st.sampled_from(labels), max_size=3)) for _ in range(count)]
    batched = [draw(st.booleans()) for _ in range(count)]
    batched[draw(st.integers(0, count - 1))] = True
    used = list(dict.fromkeys(c for t in terms for c in t))
    kept = draw(st.lists(st.sampled_from(used), unique=True)) if used else []
    output = "b" * batched_output + "".join(kept)
    subscripts = ",".join("b" * bt + "".join(t) for bt, t in zip(batched, terms))
    shapes = [(0,) * bt + tuple(dims[c] for c in t) for bt, t in zip(batched, terms)]
    return f"{subscripts}->{output}", shapes


def _operands(shapes, batch, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(batch,) + s[1:] if s[:1] == (0,) else s) for s in shapes]


def _key(subscripts, operands):
    terms = subscripts.partition("->")[0].split(",")
    return (subscripts, *(op.shape[1:] if t.startswith("b") else op.shape
                          for t, op in zip(terms, operands)))


@PROPERTY
@given(sig=signatures(), seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_numpy_einsum(sig, seed):
    subscripts, shapes = sig
    ops = _operands(shapes, 7, seed)
    want = np.einsum(subscripts, *ops, optimize=True)
    got = jets._einsum(subscripts, *ops)
    scale = np.einsum(subscripts, *[np.abs(op) for op in ops])
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


@PROPERTY
@given(sig=signatures(), seed=st.integers(0, 2**32 - 1))
def test_plan_does_not_depend_on_the_batch_length(sig, seed):
    subscripts, shapes = sig
    jets._PLAN_CACHE.clear()
    plans = []
    for batch in (1, 7, 1536):
        ops = _operands(shapes, batch, seed)
        jets._einsum(subscripts, *ops)
        plans.append(jets._PLAN_CACHE.get(_key(subscripts, ops)))
    if len(shapes) == 1:  # one operand goes straight to C einsum, unplanned
        assert plans == [None] * 3
    else:
        assert plans[0] is not None and plans[1] is plans[0] and plans[2] is plans[0]


@PROPERTY
@given(sig=signatures(), seed=st.integers(0, 2**32 - 1))
def test_cold_and_warm_plan_cache_agree_bitwise(sig, seed):
    subscripts, shapes = sig
    ops = _operands(shapes, 7, seed)
    jets._PLAN_CACHE.clear()
    cold = jets._einsum(subscripts, *ops)
    warm = jets._einsum(subscripts, *ops)
    assert np.array_equal(cold, warm)


@PROPERTY
@given(sig=signatures(batched_output=False), seed=st.integers(0, 2**32 - 1))
def test_unbatched_output_takes_the_numpy_route(sig, seed):
    subscripts, shapes = sig
    ops = _operands(shapes, 7, seed)
    got = jets._einsum(subscripts, *ops)
    if len(ops) > 1:
        assert jets._PLAN_CACHE[_key(subscripts, ops)].steps is None
    want = np.einsum(subscripts, *ops, optimize=True)
    scale = np.einsum(subscripts, *[np.abs(op) for op in ops])
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


def _route(subscripts, *ops):
    got = jets._einsum(subscripts, *ops)
    np.testing.assert_allclose(got, np.einsum(subscripts, *ops, optimize=True),
                               rtol=1e-13, atol=1e-13)
    return jets._PLAN_CACHE[_key(subscripts, ops)]


def test_ellipsis_and_over_gate_steps_take_the_numpy_route():
    rng = np.random.default_rng(0)
    A, x = rng.normal(size=(5, 3, 4)), rng.normal(size=(5, 4))
    assert _route("...ij,...j->...i", A, x).steps is None
    # the one step of bmr,brnl spans m^4 non-batch entries
    assert 4**4 <= jets._STEP_GATE < 9**4
    for m in (4, 9):
        plan = _route("bmr,brnl->bmnl", rng.normal(size=(6, m, m)), rng.normal(size=(6, m, m, m)))
        kernel = m**4 <= jets._STEP_GATE
        assert (plan.steps is not None) == kernel and (plan.path is None) == kernel


def test_result_is_a_batch_first_view_of_a_batch_last_buffer():
    rng = np.random.default_rng(1)
    g, x = rng.normal(size=(8, 3, 3)), rng.normal(size=(8, 3))
    out = jets._einsum("bij,bj->bi", g, x)
    assert out.shape == (8, 3) and np.moveaxis(out, 0, -1).flags.c_contiguous


def test_a_misplaced_batch_label_is_refused():
    with pytest.raises(ValueError, match="batch label"):
        jets._einsum("ib,ib->b", np.ones((2, 3)), np.ones((2, 3)))


# -- the batch-label convention at the call sites -------------------------------

SIGNATURE = re.compile(r"^[A-Za-z,.]+->[A-Za-z.]*$")
SOURCES = [Path(m.__file__) for m in (geometry, spaceforms)]


def _batch_label_misplaced(subscripts):
    inputs, _, output = subscripts.partition("->")
    return [t for t in inputs.split(",") + [output] if "b" in t[1:] or t.count("b") > 1]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_call_sites_put_the_batch_label_first(path):
    """Every einsum signature literal in the module leads each term that has
    ``b`` with it, and every kernel call takes a literal or a name bound to one."""
    tree = ast.parse(path.read_text())
    literals = [node for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and SIGNATURE.match(node.value)]
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id in ("_einsum", "tj_einsum")]
    assert literals and calls
    for node in literals:
        assert not _batch_label_misplaced(node.value), (path.name, node.lineno, node.value)
    for call in calls:
        assert isinstance(call.args[0], (ast.Constant, ast.Name, ast.JoinedStr)), (
            path.name, call.lineno)


# -- whole reports against the numpy route ---------------------------------------

def _numpy_einsum(subscripts, *operands):
    return np.einsum(subscripts, *operands, optimize=True)


def _floats_agree(a, b, atol, where="report"):
    if isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for k in a:
            _floats_agree(a[k], b[k], atol, f"{where}.{k}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _floats_agree(x, y, atol, f"{where}[{i}]")
    elif isinstance(a, float):
        assert abs(a - b) <= max(1e-12 * abs(b), atol) or a == b, (where, a, b)
    else:
        assert a == b, (where, a, b)


@pytest.mark.parametrize("spec, resolution", [
    (make_spec("whitney_cp", 2), None),
    (make_spec("contact_whitney_b", 2), None),
    (make_spec("lifted", 2, base="whitney_c0"), None),
    (make_spec("contact_whitney_s", 3), 12),
], ids=["whitney_cp", "contact_whitney_b", "lifted", "contact_whitney_s_n3"])
def test_reports_agree_with_the_numpy_route(monkeypatch, spec, resolution):
    kernel = asdict(run_case(spec, resolution=resolution, seed=5))
    with monkeypatch.context() as patch:
        for module in (geometry, spaceforms):
            patch.setattr(module, "_einsum", _numpy_einsum)
        # the kernel run's workers were forked before the patch: without
        # fresh ones, the reference would run the kernel again
        verify._close_pool()
        reference = asdict(run_case(spec, resolution=resolution, seed=5))
    assert kernel["classification"] == reference["classification"]
    assert kernel["hard_failures"] == reference["hard_failures"]
    integrals = reference["integrals"]
    atol = 1e-12 * max(1.0, integrals["nabla_h_sq"] / integrals["volume"])
    _floats_agree(kernel, reference, atol)
