"""Helpers shared by the test modules."""

import gc
import tracemalloc

import pytest

from netrecon import train


def peak_while(fn, *args, catch=False):
    """`fn(*args)` and its tracemalloc peak in bytes above the memory in use
    when it starts. An exception `fn` raises propagates, unless `catch` is
    set: then it is returned as the result, for the caller to assert on."""
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        try:
            result = fn(*args)
        except Exception as exc:
            if not catch:
                raise
            result = exc
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before


@pytest.fixture(params=["one", "default"])
def blas_threads(request):
    """Run the test at one BLAS thread, or at the thread count the process has."""
    calls = train._blas_thread_calls()
    if request.param == "default":
        yield
    elif calls is None:
        pytest.skip("numpy does not bundle a scipy-openblas with thread-count calls")
    else:
        with train._one_blas_thread():
            yield
