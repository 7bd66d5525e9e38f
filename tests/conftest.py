import contextlib
import os
import sys

import numpy as np
import pytest
from hypothesis import settings

# CI runs the properties derandomized and prints the reproduction blob of any
# counterexample, so a failure found there replays locally with
# @reproduce_failure (.hypothesis/ is not committed).  GitHub Actions sets CI.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def transforms(monkeypatch):
    """Live counts of dft/idft calls, in every latticewave namespace that holds them."""
    import latticewave.spectral as spectral

    calls = {"dft": 0, "idft": 0}
    modules = [m for name, m in sys.modules.items() if m is not None and name.startswith("latticewave")]
    for name in calls:
        orig = getattr(spectral, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, key, counted)
    return calls


@pytest.fixture
def open_fds():
    """A lister of the descriptors this process holds, to compare before and after a load or a run."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to list descriptors")
    return lambda: sorted(os.listdir("/proc/self/fd"))


@pytest.fixture
def criterion(request):
    """Context manager factory: records and prints one PASS/FAIL line per
    acceptance criterion, then re-raises on failure."""
    config = request.config
    results = getattr(config, "_criterion_results", None)
    if results is None:
        results = []
        config._criterion_results = results

    @contextlib.contextmanager
    def run(num: int, name: str):
        try:
            yield
        except BaseException:
            results.append((num, name, False))
            print(f"[criterion {num:02d}] {name}: FAIL")
            raise
        else:
            results.append((num, name, True))
            print(f"[criterion {num:02d}] {name}: PASS")

    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = getattr(config, "_criterion_results", None)
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num, name, ok in sorted(results):
        terminalreporter.write_line(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
