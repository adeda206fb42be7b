"""The CI workflow tests what the package declares: its ``floors`` job, which
needs the network, installs exactly the lower bounds of ``pyproject.toml``;
every job runs the installed ``entroflow`` command; and a failing randomized
test leaves a reproducer behind in every job."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _job(name: str) -> str:
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    job = re.search(rf"^  {name}:\n(.*?)(?=^  \S|\Z)", workflow, re.M | re.S)
    assert job, f"tests.yml has no {name} job"
    return job.group(1)


def test_floors_job_pins_the_declared_lower_bounds():
    project = (ROOT / "pyproject.toml").read_text()
    python = re.search(r'^requires-python = ">=([\d.]+)"$', project, re.M).group(1)
    declared = dict(re.findall(r'^\s+"([\w-]+)>=([\d.]+)",?$', project, re.M))
    job = _job("floors")
    assert re.findall(r'python-version: "([\d.]+)"', job) == [python]
    assert dict(re.findall(r'"([\w-]+)==([\d.]+)\.\*"', job)) == declared
    assert (python, declared) == ("3.10", {"numpy": "2.0", "scipy": "1.13"})


def test_every_job_uploads_the_hypothesis_patches_on_failure():
    # a failing hypothesis draw is written to .hypothesis/patches/ as a patch
    # adding it as an @example (the pytest plugin needs libcst for that, which
    # hypothesis[codemods] installs); each job uploads them after its tests
    project = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^test = \[.*"hypothesis\[codemods\]".*\]$', project, re.M)
    for name in ("tier1", "floors"):
        steps = re.split(r"^      - ", _job(name), flags=re.M)
        uploads = [s for s in steps if "uses: actions/upload-artifact@" in s]
        assert len(uploads) == 1, name
        assert steps[-1] == uploads[0], f"{name} uploads before its tests"
        assert "Tier-1 tests" in steps[-2], name
        assert re.search(r"^        if: failure\(\)$", uploads[0], re.M), name
        assert re.search(r"^          path: \.hypothesis/patches/$", uploads[0], re.M), name


def test_every_job_runs_the_installed_command():
    # tier-1 imports the source tree, so only this step runs the
    # [project.scripts] entry point that pip installed
    project = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^entroflow = "entroflow\.cli:main"$', project, re.M)
    for name in ("tier1", "floors"):
        steps = re.split(r"^      - ", _job(name), flags=re.M)[1:]
        k = [s.startswith("name: Installed command\n") for s in steps].index(True)
        assert steps[k - 1].startswith("name: Install\n"), name
        assert steps[k + 1].startswith("name: Tier-1 tests\n"), name
        assert re.search(r"^          entroflow list --json$", steps[k], re.M), name
        assert re.search(r'^          entroflow control-run --scenario ou-relax --t1 0\.01 '
                         r'--out "\$RUNNER_TEMP/smoke"$', steps[k], re.M), name
        # a key flag that only the flags derived from KIND_KEYS give decompose
        assert re.search(r'^          entroflow decompose --grid-cells 64 --t1 0\.01 '
                         r'--out "\$RUNNER_TEMP/smoke-decompose"$', steps[k], re.M), name
        # an ensemble kind: the march and the model's drift, under the floors
        # job's numpy too
        assert re.search(r'^          entroflow paths-run --n 2000 --t1 0\.1 --t-index 10 '
                         r'--out "\$RUNNER_TEMP/smoke-paths"$', steps[k], re.M), name
