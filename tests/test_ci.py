"""The CI workflow tests what the package declares: its ``floors`` job, which
needs the network, installs exactly the lower bounds of ``pyproject.toml``."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _floors_job() -> str:
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    job = re.search(r"^  floors:\n(.*?)(?=^  \S|\Z)", workflow, re.M | re.S)
    assert job, "tests.yml has no floors job"
    return job.group(1)


def test_floors_job_pins_the_declared_lower_bounds():
    project = (ROOT / "pyproject.toml").read_text()
    python = re.search(r'^requires-python = ">=([\d.]+)"$', project, re.M).group(1)
    declared = dict(re.findall(r'^\s+"([\w-]+)>=([\d.]+)",?$', project, re.M))
    job = _floors_job()
    assert re.findall(r'python-version: "([\d.]+)"', job) == [python]
    assert dict(re.findall(r'"([\w-]+)==([\d.]+)\.\*"', job)) == declared
    assert (python, declared) == ("3.10", {"numpy": "2.0", "scipy": "1.13"})
