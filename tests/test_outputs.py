"""Output contract: the sha256 of each README command's outputs.

The pins, FIT_PINS and README_PINS, live in conftest.py, which the README
commands' other tests share.  The fit inputs (conftest.fit_inputs) come
from one fixed seed and are written with repr floats, as the bench writes
its own; the other commands run on the README's scenario config and flags,
plus one sweep longer than a CSV write batch.
The version string in the metadata is blanked before hashing, so a version
bump alone moves no pin.  A change that alters any of these bytes updates
its row and says why in CHANGES.md.
"""

import hashlib

import pytest

import memcav
from memcav.cli import run

from conftest import FIT_PINS, README_PINS, fit_argv, readme_argv


@pytest.mark.parametrize("argv, digest", FIT_PINS,
                         ids=[" ".join(a for a in argv if a != "-i") for argv, _ in FIT_PINS])
def test_fit_json_pinned(fit_inputs, tmp_path, argv, digest):
    out = tmp_path / "fit.json"
    assert run([*fit_argv(argv, fit_inputs), "-o", str(out)]) == 0
    assert _blanked_digest(out) == digest


def _blanked_digest(path) -> str:
    """sha256 of a JSON or CSV output whose version string, found once, is blanked."""
    text = path.read_text(encoding="utf-8")
    for version, blank in ((f'"version": "{memcav.__version__}"', '"version": ""'),
                           (f"# version = {memcav.__version__}\n", "# version = \n")):
        if version in text:
            assert text.count(version) == 1
            return hashlib.sha256(text.replace(version, blank).encode("utf-8")).hexdigest()
    raise AssertionError(f"{path.name} holds no version string")


@pytest.mark.parametrize("argv, digests", [pin[1:] for pin in README_PINS],
                         ids=[pin[0] for pin in README_PINS])
def test_readme_outputs_pinned(tmp_path, argv, digests):
    assert run(readme_argv(argv, tmp_path)) == 0
    assert {name: _blanked_digest(tmp_path / name) for name in digests} == digests
