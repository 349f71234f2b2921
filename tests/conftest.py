import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

ACCEPTANCE_RESULTS: list[tuple[int, str, bool]] = []


def record_criterion(number: int, description: str, passed: bool) -> None:
    ACCEPTANCE_RESULTS.append((number, description, passed))
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'}  {description}")


def count_val_forwards(monkeypatch, val) -> list:
    """Patch the model forward under every eval: one entry, the checkpoint's
    digest, per forward of the val set's rows, from any thread."""
    import flipxfer.models as models

    predict, calls = models._predict, []

    def counted(ck, batch):
        if batch is val.inputs:
            calls.append(ck.digest())
        return predict(ck, batch)

    monkeypatch.setattr(models, "_predict", counted)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(
            f"criterion {number:02d}: {'PASS' if passed else 'FAIL'}  {description}"
        )
