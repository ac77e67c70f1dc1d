"""The same bytes on every supported Python: the output digest corpus
(test_output_digests.py) is checked under each interpreter of VERSIONS that
pyenv installs beside the one running the tests. Those interpreters need no
pytest, since the corpus script needs only the standard library and the
package. An interpreter that is not found is named, and the test is then
skipped, never passed."""

import os
import pathlib
import subprocess
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
CORPUS = TESTS / "test_output_digests.py"
SRC = TESTS.parent / "src"
# every supported minor version but the one Tier-1 runs on
VERSIONS = ("3.10", "3.12", "3.13")


def interpreters():
    """-> ({version: the newest pyenv python of that minor version}, [the
    versions not found]), looked up in the pyenv versions directory that
    holds sys.executable."""
    root = pathlib.Path(sys.executable).parent.parent.parent  # <root>/3.11.7/bin/python
    found = {}
    for version in VERSIONS if root.name == "versions" else ():
        patches = [p for p in root.glob(version + ".*")
                   if p.name[len(version) + 1:].isdigit() and (p / "bin" / "python").exists()]
        if patches:
            newest = max(patches, key=lambda p: int(p.name[len(version) + 1:]))
            found[version] = newest / "bin" / "python"
    return found, [v for v in VERSIONS if v not in found]


def test_corpus_is_the_same_on_other_pythons():
    found, missing = interpreters()
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    # the interpreters run side by side, each about 3 s
    runs = {version: subprocess.Popen([str(python), str(CORPUS), "--check"], env=env,
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for version, python in found.items()}
    try:
        outputs = {version: run.communicate(timeout=300) for version, run in runs.items()}
    finally:
        for run in runs.values():
            run.kill()  # a no-op on a run that has ended
            run.wait()
    failed = {version: (runs[version].returncode, out + err)
              for version, (out, err) in outputs.items() if runs[version].returncode != 0}
    assert not failed, f"the corpus differs on {sorted(failed)}: {failed}"
    ran = ", ".join(f"{v} ({found[v]})" for v in found) or "none"
    if missing:
        pytest.skip(f"ran on {ran}; not found: {', '.join(missing)}")
    print(f"corpus the same on {ran}")


def test_the_newest_patch_is_found_and_the_rest_named_missing(tmp_path, monkeypatch):
    for name in ("3.10.2", "3.10.13", "3.11.7", "3.12.x", "3.13.0"):
        (tmp_path / "versions" / name / "bin").mkdir(parents=True)
        if name != "3.13.0":  # installed without a python
            (tmp_path / "versions" / name / "bin" / "python").touch()
    monkeypatch.setattr(sys, "executable", str(tmp_path / "versions" / "3.11.7" / "bin" / "python"))
    found, missing = interpreters()
    assert found == {"3.10": tmp_path / "versions" / "3.10.13" / "bin" / "python"}
    assert missing == ["3.12", "3.13"]
    monkeypatch.setattr(sys, "executable", str(tmp_path / "venv" / "bin" / "python"))
    assert interpreters() == ({}, list(VERSIONS))
