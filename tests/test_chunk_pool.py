"""The chunk pool: reports independent of the worker count, workers that
outlive a case but carry nothing from one map to the next, clean processes."""

import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import whitneygeo
from whitneygeo import jets, verify
from whitneygeo.immersions import make_spec
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
    # jobs end with their node indices; the longest go out first
    jobs = [(k, range(size)) for k, size in enumerate([3, 9, 1, 5, 9, 2])]
    _workers(monkeypatch, workers)
    got = verify._map_chunks(_job_and_pid, jobs)
    assert [r[:2] for r in got] == [(k, len(idx)) for k, idx in jobs]
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


@pytest.mark.parametrize("run", [
    lambda: conformal_block(make_spec("contact_whitney_r", 4, r=1.0), seed=5),
    lambda: run_case(make_spec("whitney_cp", 2, theta=0.5), resolution=16, conformal=True),
], ids=["n4-block", "n2-run_case"])
def test_chunks_return_their_sectional_range_not_their_curvature(monkeypatch, run):
    # the random planes' place in the stream is fixed before the map, so a
    # worker folds its own chunk and sends back floats, not the Riemann tensor
    seen = []
    serial = verify._map_chunks

    def record(evaluate, jobs):
        results = serial(evaluate, jobs)
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
    jobs = [(k, range(5)) for k in range(4)]
    assert {pid for _, _, pid in verify._map_chunks(_job_and_pid, jobs)} <= first


def _blas_threads(k, idx):
    return [get() for get in verify._openblas("openblas_get_num_threads")]


def test_workers_run_one_blas_thread(monkeypatch):
    # as many workers as cores: a threaded matrix product would oversubscribe them
    if not verify._openblas("openblas_get_num_threads"):
        pytest.skip("no loaded OpenBLAS exports openblas_get_num_threads")
    _workers(monkeypatch, 2)
    got = verify._map_chunks(_blas_threads, [(k, range(3)) for k in range(4)])
    assert all(threads and set(threads) == {1} for threads in got)


def test_a_map_that_wants_more_workers_gets_them(monkeypatch):
    jobs = [(k, range(5)) for k in range(6)]
    _workers(monkeypatch, 2)
    verify._map_chunks(_job_and_pid, jobs)
    _workers(monkeypatch, 3)
    verify._map_chunks(_job_and_pid, jobs)
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
        verify._map_chunks(_broken, [(k, range(3)) for k in range(4)])
    assert verify._POOL is None and not multiprocessing.active_children()
    report = report_to_json(run_case(make_spec("whitney_c0", 2, r=1.0), resolution=16))
    assert report == fresh_run[0]


def _cache_sizes():
    return {
        f"{name}.{key}": len(value)
        for name, module in sys.modules.items()
        if name.partition(".")[0] == "whitneygeo"
        for key, value in vars(module).items()
        if key.endswith("_CACHE") and isinstance(value, dict)
    }


def _fill_caches(k, idx):
    jets._einsum("bi,bij->bj", np.ones((len(idx), 2)), np.ones((len(idx), 2, k + 2)))
    jets._Ops(2, 2)
    return _cache_sizes()


def _probe_caches(k, idx):
    return _cache_sizes()


def test_a_new_map_starts_with_empty_caches(monkeypatch):
    _workers(monkeypatch, 2)
    filled = verify._map_chunks(_fill_caches, [(k, range(3)) for k in range(4)])
    assert all(sum(sizes.values()) > 0 for sizes in filled)
    probed = verify._map_chunks(_probe_caches, [(k, range(3)) for k in range(4)])
    assert probed and all(not any(sizes.values()) for sizes in probed)


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
