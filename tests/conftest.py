"""Test-session set-up shared by every test module."""

import os


def pytest_configure(config):
    # `pythonpath = ["src"]` in pyproject.toml covers this process; the CLI
    # runs that tests start as subprocesses find the package through the
    # environment.
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    # ... and turn warnings into errors, as filterwarnings = ["error"] in
    # pyproject.toml does here, so a numpy or scipy RuntimeWarning in a CLI
    # run fails the test that started it.
    os.environ["PYTHONWARNINGS"] = "error"
