import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_acceptance_results = []


@pytest.fixture(scope="session")
def corec(tmp_path_factory):
    """The compiled lane built from src/opfold/_corec.c into a temporary
    directory and loaded from there, whether or not a built copy sits in
    src/; the requesting test skips when the build fails."""
    tmp = tmp_path_factory.mktemp("corec")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(tmp / "lib"), "--build-temp", str(tmp / "temp")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    built = sorted((tmp / "lib" / "opfold").glob("_corec.*"))
    if proc.returncode or not built:
        lines = proc.stderr.strip().splitlines() or ["no extension built"]
        pytest.skip(f"compiled lane did not build: {lines[-1]}")
    spec = importlib.util.spec_from_file_location("opfold._corec", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    if item.module.__name__ != "test_acceptance":
        return
    doc = (item.function.__doc__ or item.name).strip().splitlines()[0]
    _acceptance_results.append((doc, report.passed))


def pytest_terminal_summary(terminalreporter):
    from opfold import _kernel
    terminalreporter.section("acceptance criteria")
    terminalreporter.write_line(
        f"kernel lane: {_kernel.KERNEL_NAME} ({_kernel.KERNEL_REASON})")
    for doc, passed in _acceptance_results:
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{verdict}] {doc}")
