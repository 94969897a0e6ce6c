"""The doc checker's module-map parse: scripts/check_doc_links.py."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "check_doc_links",
    Path(__file__).parent.parent / "scripts" / "check_doc_links.py",
)
check_doc_links = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_doc_links)

MAP = """\
# Design

## 3. System inventory (module map)

```
src/repro/
  cli.py           the CLI, whose description
                   runs on: clustering.py here is prose
  crypto/          primitives
    modes.py         CTR mode
    gone.py          a module that was deleted
  analysis/        reports
    lint/            the linter
      rules.py         its rules
    lockwatch.py     lock-order checks
```

```
later/fenced.py  not part of the map
```
"""


def test_module_map_entries_follow_the_nesting():
    entries = check_doc_links.module_map_entries(MAP)
    assert [path for _, path in entries] == [
        "src/repro/",
        "src/repro/cli.py",
        "src/repro/crypto/",
        "src/repro/crypto/modes.py",
        "src/repro/crypto/gone.py",
        "src/repro/analysis/",
        "src/repro/analysis/lint/",
        "src/repro/analysis/lint/rules.py",
        "src/repro/analysis/lockwatch.py",
    ]
    assert entries[4] == (11, "src/repro/crypto/gone.py")
