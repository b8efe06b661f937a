import pytest

_acceptance_results = []


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
