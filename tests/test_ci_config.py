"""The CI workflow bounds the run time of its test job, so that a hung test
fails the job instead of holding a runner for the platform's default limit."""

import pathlib
import re

WORKFLOW = pathlib.Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def job_block(text: str, job: str) -> str:
    """The lines of ``job`` under ``jobs:``, up to the next job at its indent."""
    match = re.search(rf"^jobs:\n(?:.*\n)*?  {job}:\n((?:    .*\n|\s*\n)*)", text, re.MULTILINE)
    assert match, f"no job {job!r} in {WORKFLOW.name}"
    return match.group(1)


def test_tests_job_has_a_time_limit():
    block = job_block(WORKFLOW.read_text(), "tests")
    minutes = re.findall(r"^    timeout-minutes: (\d+)$", block, re.MULTILINE)
    assert len(minutes) == 1, block
    assert 1 <= int(minutes[0]) <= 60
