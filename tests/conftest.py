"""Session set-up for the executor matrix: right after collection, every
selected ``test_executors_agree`` configuration compiles its operator,
and gcc starts on its C. gcc's thread builds them one by one while the
tests before run."""

import shutil

from helpers import CONFIGS, close_builds


def pytest_collection_finish(session):
    if session.config.option.collectonly or shutil.which("gcc") is None:
        return
    for item in session.items:
        if getattr(item, "originalname", None) == "test_executors_agree":
            try:
                CONFIGS[item.callspec.params["name"]].prebuild()
            except Exception:
                continue  # the test compiles it again and reports why


def pytest_sessionfinish(session):
    close_builds()  # a session cut short leaves builds no test needs
