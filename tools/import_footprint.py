"""Check what importing the package and its CLI adds to ``sys.modules``.

    python3 tools/import_footprint.py

Imports ``cuspcensus`` and ``cuspcensus.cli`` in this fresh interpreter
and exits 1, naming them, if that import added any of ``dataclasses``,
``inspect`` (each pulls in ``ast``, ``dis`` and ``tokenize``) or
``tempfile`` (``shutil``, ``random``, ``bz2`` and ``lzma``), which the
package does not need at start.  A module that ``site`` had already
imported is not counted; run it under ``python -S`` to count those too.
Prints the number of modules the import added and exits 0 otherwise.
"""

import sys

UNWANTED = ("dataclasses", "inspect", "tempfile")


def main() -> int:
    before = set(sys.modules)
    import cuspcensus  # noqa: F401
    import cuspcensus.cli  # noqa: F401

    added = set(sys.modules) - before
    found = [name for name in UNWANTED if name in added]
    if found:
        print(f"import_footprint: importing cuspcensus added {', '.join(found)}",
              file=sys.stderr)
        return 1
    print(f"import_footprint: importing cuspcensus added {len(added)} modules, "
          f"none of {', '.join(UNWANTED)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
