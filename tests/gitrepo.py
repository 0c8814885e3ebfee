"""Test repositories for ``--repo``, each written by one ``git fast-import``.

Standard library only. ``build_repo`` gives a repository exactly the commits it is
told, author bytes and timestamps included, with empty trees and empty messages;
``git`` runs any other git command with the suite's fixed committer.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

COMMITTER = b"Test Dev <test@example.org>"


def git(repo: Path, *args: str, input: bytes | None = None) -> str:
    """git's stdout for ``args`` run in ``repo`` by the committer Test Dev <test@example.org>."""
    return subprocess.run(
        ["git", "-c", "user.name=Test Dev", "-c", "user.email=test@example.org",
         "-C", str(repo), *args],
        input=input, check=True, capture_output=True,
    ).stdout.decode("utf-8")


def linear(authored) -> list[tuple[bytes, int, tuple[int, ...]]]:
    """(author ident, timestamp) pairs as commits that each follow the one before."""
    return [(ident, stamp, (i - 1,) if i else ()) for i, (ident, stamp) in enumerate(authored)]


def build_repo(repo: Path, commits: list[tuple[bytes, int, tuple[int, ...]]]) -> list[str]:
    """``git init`` a new directory ``repo`` on branch main and import ``commits`` in
    order; their hashes, in the same order. main ends at the last commit.

    A commit is (author ident such as ``b"Ann <ann@example.org>"``, UTC timestamp,
    positions of its parents in ``commits``, the first parent first). The ident's bytes
    are kept as given, where ``git commit`` would rewrite invalid UTF-8 and trim a name.
    The committer is ``COMMITTER`` at the author's time.
    """
    repo.mkdir()
    git(repo, "init", "-q", "-b", "main")
    stream = []
    for mark, (ident, stamp, parents) in enumerate(commits, start=1):
        if not parents:  # a root, even where main already has commits
            stream.append(b"reset refs/heads/main\n")
        stream.append(b"commit refs/heads/main\nmark :%d\nauthor %s %d +0000\n"
                      b"committer %s %d +0000\ndata 0\n" % (mark, ident, stamp, COMMITTER, stamp))
        stream += [b"%s :%d\n" % (b"merge" if i else b"from", parent + 1)
                   for i, parent in enumerate(parents)]
    marks = repo.absolute() / ".git" / "marks"
    git(repo, "fast-import", "--quiet", f"--export-marks={marks}", input=b"".join(stream))
    hashes = dict(line.split() for line in marks.read_text(encoding="ascii").splitlines())
    return [hashes[f":{mark}"] for mark in range(1, len(commits) + 1)]
