"""Output contract: the sha256 of each README command's outputs.

The pins, FIT_PINS and README_PINS, live in conftest.py, which the README
commands' other tests share.  The fit inputs (conftest.fit_inputs) come
from one fixed seed and are written with repr floats, as the bench writes
its own; the other commands run on the README's scenario config and flags,
plus one sweep longer than a CSV write batch.  The README's commands also
run as fresh `python -m memcav.cli` processes, which end with os._exit.
The version string in the metadata is blanked before hashing, so a version
bump alone moves no pin.  A change that alters any of these bytes updates
its row and says why in CHANGES.md.
"""

import pytest

from memcav.cli import run

from conftest import FIT_PINS, README_PINS, blanked_digest, fit_argv, readme_argv, run_python


@pytest.mark.parametrize("argv, digest", FIT_PINS,
                         ids=[" ".join(a for a in argv if a != "-i") for argv, _ in FIT_PINS])
def test_fit_json_pinned(fit_inputs, tmp_path, argv, digest):
    out = tmp_path / "fit.json"
    assert run([*fit_argv(argv, fit_inputs), "-o", str(out)]) == 0
    assert blanked_digest(out) == digest


@pytest.mark.parametrize("argv, digests", [pin[1:] for pin in README_PINS],
                         ids=[pin[0] for pin in README_PINS])
def test_readme_outputs_pinned(tmp_path, argv, digests):
    assert run(readme_argv(argv, tmp_path)) == 0
    assert {name: blanked_digest(tmp_path / name) for name in digests} == digests


@pytest.mark.parametrize("argv, digests", [pin[1:] for pin in README_PINS],
                         ids=[pin[0] for pin in README_PINS])
def test_readme_outputs_pinned_in_fresh_process(tmp_path, argv, digests):
    """`python -m memcav.cli`, which ends with os._exit, writes the pinned bytes."""
    proc = run_python("-m", "memcav.cli", *readme_argv(argv, tmp_path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert {name: blanked_digest(tmp_path / name) for name in digests} == digests
