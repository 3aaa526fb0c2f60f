"""The chunk pool: reports independent of the worker count, workers that
outlive a case and keep only shape tables from one map to the next, a
case's checks as jobs of its map, clean processes."""

import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import whitneygeo
from whitneygeo import geometry, jets, verify
from whitneygeo.immersions import make_spec
from whitneygeo.quadrature import build_grid
from whitneygeo.spaceforms import BaseModel, ModelValidationError
from whitneygeo.verify import conformal_block, report_to_json, run_case

CASES = [
    (make_spec("whitney_cp", 2, theta=0.5), dict(resolution=24, conformal=True)),
    (make_spec("contact_whitney_b", 2, theta=0.8), dict(resolution=24)),
    (make_spec("lifted", 2, base="whitney_c0"), dict(resolution=24)),
    (make_spec("perturbed", 2, epsilon=0.05), dict(resolution=16)),
    (make_spec("product_torus", 2), dict(resolution=16)),
    (make_spec("whitney_cp", 3, theta=0.5), dict(resolution=12, conformal=True)),
]


def _workers(monkeypatch, count):
    monkeypatch.setattr(verify, "_worker_count", lambda jobs: count)


def _job_and_pid(k, idx):
    return k, len(idx), os.getpid()


@pytest.mark.parametrize("workers", [1, 2])
def test_results_come_back_in_job_order(monkeypatch, workers):
    # jobs end with their nodes; the most nodes go out first, jobs without last
    jobs = [(_job_and_pid, k, np.arange(size)) for k, size in enumerate([3, 9, 1, 5, 9, 2])]
    jobs.insert(2, (_job_and_pid, 6, range(4)))
    _workers(monkeypatch, workers)
    got = verify._map_chunks(jobs)
    assert [r[:2] for r in got] == [(k, len(idx)) for _, k, idx in jobs]
    pids = {r[2] for r in got}
    assert (pids == {os.getpid()}) == (workers == 1)


@pytest.mark.parametrize(
    "spec, kw", CASES, ids=[f"{spec.kind}-n{spec.n}" for spec, _ in CASES]
)
def test_pool_and_serial_reports_agree(monkeypatch, spec, kw):
    _workers(monkeypatch, 2)
    pooled = report_to_json(run_case(spec, seed=5, **kw))
    _workers(monkeypatch, 1)
    assert report_to_json(run_case(spec, seed=5, **kw)) == pooled


def test_pool_and_serial_n4_blocks_agree(monkeypatch):
    spec = make_spec("contact_whitney_r", 4, r=1.0)
    _workers(monkeypatch, 2)
    pooled = conformal_block(spec, seed=5)
    _workers(monkeypatch, 1)
    assert conformal_block(spec, seed=5) == pooled
    assert pooled["weyl_sup"] is not None


def test_a_block_draws_each_chunks_planes_once(monkeypatch):
    # one draw per chunk, inside its job: none in the parent before the map
    calls = []
    draw = verify._draw_planes
    monkeypatch.setattr(verify, "_draw_planes", lambda *a: calls.append(a[1]) or draw(*a))
    _workers(monkeypatch, 1)
    conformal_block(make_spec("contact_whitney_r", 4, r=1.0), seed=5)
    assert calls == [1000] * 20


@pytest.mark.parametrize("run", [
    lambda: conformal_block(make_spec("contact_whitney_r", 4, r=1.0), seed=5),
    lambda: run_case(make_spec("whitney_cp", 2, theta=0.5), resolution=16, conformal=True),
], ids=["n4-block", "n2-run_case"])
def test_chunks_return_their_sectional_range_not_their_curvature(monkeypatch, run):
    # each chunk draws its random planes from its own seed, so a worker
    # folds its own chunk and sends back floats, not the Riemann tensor
    seen = []
    serial = verify._map_chunks

    def record(jobs):
        results = serial(jobs)
        seen.extend(results)
        return results

    _workers(monkeypatch, 1)
    monkeypatch.setattr(verify, "_map_chunks", record)
    run()

    def arrays(x):
        if isinstance(x, (tuple, list)):
            return sum(map(arrays, x))
        if isinstance(x, dict):
            return sum(map(arrays, x.values()))
        return isinstance(x, np.ndarray)

    assert seen and arrays(seen) == 0


def _children():
    return {p.pid for p in multiprocessing.active_children()}


def test_the_same_workers_serve_consecutive_cases(monkeypatch):
    _workers(monkeypatch, 2)
    run_case(make_spec("whitney_c0", 2, r=1.0), resolution=16)
    first = _children()
    run_case(make_spec("whitney_cp", 2, theta=0.5), resolution=16)
    assert len(first) == 2 and _children() == first
    jobs = [(_job_and_pid, k, np.arange(5)) for k in range(4)]
    assert {pid for _, _, pid in verify._map_chunks(jobs)} <= first


def _blas_threads(k, idx):
    return [get() for get in verify._openblas("openblas_get_num_threads")]


def test_workers_run_one_blas_thread(monkeypatch):
    # as many workers as cores: a threaded matrix product would oversubscribe them
    if not verify._openblas("openblas_get_num_threads"):
        pytest.skip("no loaded OpenBLAS exports openblas_get_num_threads")
    _workers(monkeypatch, 2)
    got = verify._map_chunks([(_blas_threads, k, np.arange(3)) for k in range(4)])
    assert all(threads and set(threads) == {1} for threads in got)


def test_a_map_that_wants_more_workers_gets_them(monkeypatch):
    jobs = [(_job_and_pid, k, np.arange(5)) for k in range(6)]
    _workers(monkeypatch, 2)
    verify._map_chunks(jobs)
    _workers(monkeypatch, 3)
    verify._map_chunks(jobs)
    assert len(_children()) == 3


def test_close_pool_stops_every_worker(monkeypatch):
    _workers(monkeypatch, 2)
    run_case(make_spec("whitney_c0", 2, r=1.0), resolution=16)
    assert _children()
    verify._close_pool()
    assert not multiprocessing.active_children()
    assert verify._POOL is None


#: a fresh process that runs one case on two workers, prints its report
#: and the pids of its children, and exits
_FRESH_RUN = """
import json, multiprocessing
from whitneygeo import verify
from whitneygeo.immersions import make_spec
verify._worker_count = lambda jobs: 2
report = verify.run_case(make_spec("whitney_c0", 2, r=1.0), resolution=16)
print(json.dumps([verify.report_to_json(report),
                  [p.pid for p in multiprocessing.active_children()]]))
"""


@pytest.fixture(scope="module")
def fresh_run():
    src = os.path.dirname(os.path.dirname(whitneygeo.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _FRESH_RUN], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_an_exiting_process_leaves_no_worker_alive(fresh_run):
    _, pids = fresh_run
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def _broken(k, idx):
    if k == 1:
        raise ValueError("chunk 1 is broken")
    return k


def test_a_raising_map_leaves_nothing_behind(monkeypatch, fresh_run):
    _workers(monkeypatch, 2)
    run_case(make_spec("whitney_cp", 2, theta=0.5), resolution=16)
    with pytest.raises(ValueError, match="chunk 1 is broken"):
        verify._map_chunks([(_broken, k, np.arange(3)) for k in range(4)])
    assert verify._POOL is None and not multiprocessing.active_children()
    report = report_to_json(run_case(make_spec("whitney_c0", 2, r=1.0), resolution=16))
    assert report == fresh_run[0]


def _module_state():
    """Every module-level dict, list and set of whitneygeo, by its qualified name,
    with what it holds: keys and the identities of their values.  Python's own
    (``__builtins__``, ``__warningregistry__``) are left out."""
    state = {}
    for name, module in sys.modules.items():
        if name.partition(".")[0] != "whitneygeo":
            continue
        for key, value in vars(module).items():
            if key.startswith("__"):
                continue
            if isinstance(value, dict):
                state[f"{name}.{key}"] = [(k, id(v)) for k, v in value.items()]
            elif isinstance(value, (list, set)):
                state[f"{name}.{key}"] = sorted(map(id, value))
    return state


def test_the_only_tables_a_case_fills_are_the_shape_tables(monkeypatch):
    # a worker keeps these three across maps, which is safe only because they
    # are keyed by signature and shape (the pair tables by n); a new per-case
    # table must face that
    _workers(monkeypatch, 1)
    jets._PLAN_CACHE.clear()
    jets._LEIBNIZ_CACHE.clear()
    geometry._PAIR_CACHE.clear()
    before = _module_state()
    for spec, kw in CASES[:4]:
        run_case(spec, seed=5, **kw)
    conformal_block(make_spec("contact_whitney_r", 2, r=1.0), resolution=12)
    after = _module_state()
    changed = {name for name in after if after[name] != before.get(name)}
    assert changed == {"whitneygeo.jets._PLAN_CACHE", "whitneygeo.jets._LEIBNIZ_CACHE",
                       "whitneygeo.geometry._PAIR_CACHE"}
    caches = {
        f"{name}.{key}"
        for name, module in sys.modules.items()
        if name.partition(".")[0] == "whitneygeo"
        for key, value in vars(module).items()
        if key.endswith("_CACHE") and isinstance(value, dict)
    }
    assert caches == changed


def test_warm_tables_leave_a_report_unchanged(monkeypatch):
    spec, kw = CASES[1]
    _workers(monkeypatch, 2)
    verify._close_pool()
    jets._PLAN_CACHE.clear()  # the workers fork with the parent's tables
    jets._LEIBNIZ_CACHE.clear()
    geometry._PAIR_CACHE.clear()
    cold = report_to_json(run_case(spec, seed=5, **kw))
    workers = _children()
    for other, other_kw in (CASES[0], CASES[3]):
        run_case(other, seed=5, **other_kw)
    warm = report_to_json(run_case(spec, seed=5, **kw))
    assert len(workers) == 2 and _children() == workers
    _workers(monkeypatch, 1)
    assert cold == warm == report_to_json(run_case(spec, seed=5, **kw))


def _failing_self_test(monkeypatch):
    """Every model's self-test fails, in the workers too: they fork after this."""
    for cls in BaseModel.__subclasses__():  # the complex and the Sasakian models
        tols = cls._self_test_tols()
        monkeypatch.setattr(cls, "_self_test_tols",
                            staticmethod(lambda tols=tols: dict.fromkeys(tols, -1.0)))
    verify._close_pool()


@pytest.mark.parametrize("run", [
    lambda: run_case(make_spec("whitney_c0", 2, r=1.0), resolution=16),
    lambda: conformal_block(make_spec("contact_whitney_r", 2, r=1.0), resolution=12),
], ids=["run_case", "conformal_block"])
@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_self_test_job_reaches_the_caller(monkeypatch, run, workers):
    _workers(monkeypatch, workers)
    _failing_self_test(monkeypatch)
    with pytest.raises(ModelValidationError, match="failed self-test"):
        run()
    assert verify._POOL is None and not multiprocessing.active_children()


def test_the_self_test_runs_in_a_worker(monkeypatch):
    _workers(monkeypatch, 2)
    verify._map_chunks([(_job_and_pid, k, np.arange(3)) for k in range(2)])  # fork the pool

    # a bound method pickles by name, so the worker finds its own, unpatched one
    def self_test(self, strict=True):
        raise AssertionError("self-test run in the parent")

    monkeypatch.setattr(BaseModel, "self_test", self_test)
    report = run_case(make_spec("whitney_cp", 2, theta=0.5), resolution=16)
    assert report.model_self_test["ok"]


def test_the_mapped_rk4_check_is_the_in_process_one(monkeypatch):
    spec = make_spec("perturbed", 2, epsilon=0.05)
    _workers(monkeypatch, 2)
    drift = run_case(spec, resolution=16).residual_sup["rk4_step_drift"]
    nodes = verify._rk4_sample(build_grid(2, 16))
    assert len(nodes) == 64
    assert drift == verify._rk4_step_check(spec, nodes)


def test_worker_exception_reaches_the_caller(monkeypatch):
    # workers forked after the patch carry it
    def broken(*args, **kwargs):
        raise ValueError("chunk 17 is broken")

    _workers(monkeypatch, 2)
    monkeypatch.setattr(verify, "pointwise_geometry", broken)
    verify._close_pool()  # workers forked before the patch would not see it
    with pytest.raises(ValueError, match="chunk 17 is broken"):
        run_case(make_spec("whitney_c0", 2, r=1.0), resolution=16)
    assert not multiprocessing.active_children()
    assert verify._POOL is None


#: a fresh process whose model self-test, a job of the case's map, is a
#: function of another name: the job pickles as that name, which the
#: workers' class lacks
_UNPICKLABLE_JOB = """
from whitneygeo import verify
from whitneygeo.immersions import make_spec
from whitneygeo.spaceforms import BaseModel

def other_name(self, strict=True):
    return {"ok": True}

BaseModel.self_test = other_name
verify._worker_count = lambda jobs: 2
try:
    verify.run_case(make_spec("whitney_c0", 2), resolution=12)
except AttributeError as exc:
    print("raised", verify._POOL is None, exc)
"""


def test_a_job_a_worker_cannot_unpickle_reaches_the_caller():
    # such a job used to kill the worker that read it, and the map waited
    # for ever; in a subprocess, a hang fails at the timeout
    src = os.path.dirname(os.path.dirname(whitneygeo.__file__))
    done = subprocess.run([sys.executable, "-c", _UNPICKLABLE_JOB],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised True"), done.stdout
    assert "other_name" in done.stdout


#: a fresh process that runs maps on two workers whose first job raises
#: while the other jobs send 4 MB results
_RAISING_MAPS = """
import multiprocessing
import numpy as np
from whitneygeo import verify

def job(k, idx):
    if k == 0:
        raise ValueError("job 0 is broken")
    return np.ones(1 << 19)

verify._worker_count = lambda jobs: 2
for _ in range(10):
    try:
        verify._map_chunks([(job, k, np.arange(9 if k == 0 else 3)) for k in range(16)])
    except ValueError:
        pass
    assert verify._POOL is None and not multiprocessing.active_children()
print("done")
"""


def test_a_raising_map_returns_while_workers_send_results():
    # terminate() after a job's error could kill a worker that held the
    # result queue's lock, and the pool's shutdown then waited for it for
    # ever; in a subprocess, a hang fails at the timeout
    src = os.path.dirname(os.path.dirname(whitneygeo.__file__))
    done = subprocess.run([sys.executable, "-c", _RAISING_MAPS],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "done\n"


def _run_in_daemon(conn):
    try:
        report = run_case(make_spec("whitney_c0", 2, r=1.0), resolution=16)
        conn.send((verify._worker_count(10), report_to_json(report)))
    except BaseException as exc:  # sent to the test, which shows it
        conn.send(("raised", repr(exc)))
    finally:
        conn.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_daemonic_caller_runs_serially(monkeypatch):
    # two cores even on a one-core machine, so only the daemon check
    # keeps the daemon from starting a pool
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    daemon = ctx.Process(target=_run_in_daemon, args=(send,), daemon=True)
    daemon.start()
    send.close()
    outcome = receive.recv()
    daemon.join()
    assert daemon.exitcode == 0
    report = report_to_json(run_case(make_spec("whitney_c0", 2, r=1.0), resolution=16))
    assert outcome == (1, report)
