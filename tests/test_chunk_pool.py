"""The forked chunk map: reports independent of the worker count, clean processes."""

import multiprocessing
import os

import numpy as np
import pytest

from whitneygeo import verify
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


@pytest.mark.parametrize("workers", [1, 2])
def test_results_come_back_in_job_order(monkeypatch, workers):
    # jobs end with their node indices; the longest go out first
    jobs = [(k, range(size)) for k, size in enumerate([3, 9, 1, 5, 9, 2])]
    _workers(monkeypatch, workers)
    got = verify._map_chunks(lambda k, idx: (k, len(idx), os.getpid()), jobs)
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


def test_no_worker_outlives_a_run(monkeypatch):
    _workers(monkeypatch, 2)
    run_case(make_spec("whitney_c0", 2, r=1.0), resolution=16)
    assert not multiprocessing.active_children()
    assert verify._TASK is None


def test_worker_exception_reaches_the_caller(monkeypatch):
    # the fork carries the patched function into the workers
    def broken(*args, **kwargs):
        raise ValueError("chunk 17 is broken")

    _workers(monkeypatch, 2)
    monkeypatch.setattr(verify, "pointwise_geometry", broken)
    with pytest.raises(ValueError, match="chunk 17 is broken"):
        run_case(make_spec("whitney_c0", 2, r=1.0), resolution=16)
    assert not multiprocessing.active_children()
    assert verify._TASK is None


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
