"""The CI workflow tests what the package declares: its one job runs a
matrix whose ``floors`` entry, which needs the network, installs exactly the
lower bounds of ``pyproject.toml``; every entry runs the installed
``entroflow`` command; and a failing randomized test leaves a reproducer
behind in every entry."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _job() -> str:
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    jobs = re.findall(r"^  (\S+):\n(.*?)(?=^  \S|\Z)", workflow.split("\njobs:\n")[1],
                      re.M | re.S)
    assert [name for name, _ in jobs] == ["tier1"], "tests.yml runs one job"
    return jobs[0][1]


def _entries(job: str) -> dict:
    """The job's matrix entries by name, each its ``key: value`` lines."""
    include = re.search(r"^        include:\n(.*?)(?=^    \S)", job, re.M | re.S).group(1)
    entries = [dict(re.findall(r"^ *(\w+): (.*)$", entry, re.M))
               for entry in re.split(r"^          - ", include, flags=re.M)[1:]]
    return {entry["name"]: entry for entry in entries}


def _steps(job: str) -> list:
    """The job's steps, which every matrix entry runs: none is conditional on
    the entry, and the entry's values reach only its Python and its pins."""
    steps = re.split(r"^      - ", job.split("\n    steps:\n")[1], flags=re.M)[1:]
    assert set(re.findall(r"matrix\.\w+", "".join(steps))) == \
        {"matrix.python", "matrix.pins", "matrix.name"}
    assert re.search(r"^          python-version: \$\{\{ matrix\.python \}\}$", steps[1], re.M)
    assert steps[2].startswith('name: Install\n'
                               '        run: python -m pip install ${{ matrix.pins }} ".[test]"\n')
    return steps


def test_floors_job_pins_the_declared_lower_bounds():
    project = (ROOT / "pyproject.toml").read_text()
    python = re.search(r'^requires-python = ">=([\d.]+)"$', project, re.M).group(1)
    declared = dict(re.findall(r'^\s+"([\w-]+)>=([\d.]+)",?$', project, re.M))
    job = _job()
    _steps(job)
    entries = _entries(job)
    assert sorted(entries) == ["floors", "latest"]
    floors = entries["floors"]
    assert floors["python"] == f'"{python}"'
    assert dict(re.findall(r'"([\w-]+)==([\d.]+)\.\*"', floors["pins"])) == declared
    assert (python, declared) == ("3.10", {"numpy": "2.0", "scipy": "1.13"})
    assert entries["latest"]["pins"] == '""'


def test_every_job_uploads_the_hypothesis_patches_on_failure():
    # a failing hypothesis draw is written to .hypothesis/patches/ as a patch
    # adding it as an @example (the pytest plugin needs libcst for that, which
    # hypothesis[codemods] installs); each entry uploads them after its tests,
    # under a name of its own
    project = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^test = \[.*"hypothesis\[codemods\]".*\]$', project, re.M)
    steps = _steps(_job())
    uploads = [s for s in steps if "uses: actions/upload-artifact@" in s]
    assert len(uploads) == 1
    assert steps[-1] == uploads[0], "the job uploads before its tests"
    assert "Tier-1 tests" in steps[-2]
    assert re.search(r"^        if: failure\(\)$", uploads[0], re.M)
    assert re.search(r"^          name: hypothesis-patches-\$\{\{ matrix\.name \}\}$",
                     uploads[0], re.M)
    assert re.search(r"^          path: \.hypothesis/patches/$", uploads[0], re.M)


def test_every_job_runs_the_installed_command():
    # tier-1 imports the source tree, so only this step runs the
    # [project.scripts] entry point that pip installed
    project = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^entroflow = "entroflow\.cli:main"$', project, re.M)
    steps = _steps(_job())
    k = [s.startswith("name: Installed command\n") for s in steps].index(True)
    assert steps[k - 1].startswith("name: Install\n")
    assert steps[k + 1].startswith("name: Tier-1 tests\n")
    assert re.search(r"^          entroflow list --json$", steps[k], re.M)
    assert re.search(r'^          entroflow control-run --scenario ou-relax --t1 0\.01 '
                     r'--out "\$RUNNER_TEMP/smoke"$', steps[k], re.M)
    # a key flag that only the flags derived from KIND_KEYS give decompose
    assert re.search(r'^          entroflow decompose --grid-cells 64 --t1 0\.01 '
                     r'--out "\$RUNNER_TEMP/smoke-decompose"$', steps[k], re.M)
    # an ensemble kind: the march and the model's drift, under the floors
    # entry's numpy too
    assert re.search(r'^          entroflow paths-run --n 2000 --t1 0\.1 --t-index 10 '
                     r'--out "\$RUNNER_TEMP/smoke-paths"$', steps[k], re.M)
    # the underdamped march and the Lindblad semigroup, which no other
    # line runs
    assert re.search(r'^          entroflow sde-run --scenario polymer-cooling --n 200 --t1 1 '
                     r'--out "\$RUNNER_TEMP/smoke-polymer"$', steps[k], re.M)
    assert re.search(r'^          entroflow quantum-run --scenario qubit-lindblad '
                     r'--out "\$RUNNER_TEMP/smoke-lindblad"$', steps[k], re.M)
    # the uncontrolled grid run, the overdamped ensemble (stored and
    # summarised in one march) and the closed qubit, which no other line runs
    assert re.search(r'^          entroflow fp-run --t1 0\.01 '
                     r'--out "\$RUNNER_TEMP/smoke-fp"$', steps[k], re.M)
    assert re.search(r'^          entroflow sde-run --n 200 --t1 0\.1 '
                     r'--out "\$RUNNER_TEMP/smoke-sde"$', steps[k], re.M)
    assert re.search(r'^          entroflow quantum-run --scenario qubit-qrec --t1 0\.05 '
                     r'--out "\$RUNNER_TEMP/smoke-qrec"$', steps[k], re.M)
