"""Author identity resolution: merging (name, email) aliases into canonical developers."""

from __future__ import annotations

import csv
import unicodedata
from typing import Iterable, NamedTuple

from .errors import ConfigError
from .ingest import open_input


class AliasMap(NamedTuple):
    """Explicit merge directives: (alias email-or-name, canonical email) pairs.

    Directives add merges to the heuristic ones: every observed pair whose
    email or raw name equals an alias, compared case-insensitively, joins the
    canonical email's group.
    """

    directives: tuple[tuple[str, str], ...] = ()


class CanonicalDeveloper(NamedTuple):
    developer_id: str
    primary_email: str
    aliases: frozenset[tuple[str, str]]  # observed (name, email) pairs
    # Every lowercased email of the group: observed, or a directive's canonical email.
    emails: frozenset[str] = frozenset()


ALIAS_HEADER = ("alias_email_or_name", "canonical_email")


def load_alias_map(path: str) -> AliasMap:
    """Read alias directives from a two-column CSV; an optional header row is skipped."""
    directives: list[tuple[str, str]] = []
    with open_input(path, "alias file", newline="") as handle:
        for row_no, row in enumerate(csv.reader(handle), start=1):
            cells = [cell.strip() for cell in row]
            if not any(cells) or cells[0].startswith("#"):
                continue
            if row_no == 1 and tuple(cells[:2]) == ALIAS_HEADER:
                continue
            if len(cells) < 2 or not cells[0] or not cells[1]:
                raise ConfigError(
                    f"alias file {path} row {row_no}: expected alias,canonical_email"
                )
            directives.append((cells[0], cells[1]))
    return AliasMap(tuple(directives))


def normalize_name(name: str) -> str:
    """Lowercase, collapse internal whitespace, and strip diacritics."""
    if name.isascii():
        # NFKD leaves ASCII as it is, and no ASCII character is combining.
        return " ".join(name.lower().split())
    decomposed = unicodedata.normalize("NFKD", name)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return " ".join(stripped.lower().split())


def _checked_directives(aliases: AliasMap) -> dict[str, str]:
    """Map each lowercased alias to its lowercased canonical email."""
    canonical_for: dict[str, str] = {}
    for alias, canonical in aliases.directives:
        token = alias.lower()
        target = canonical.lower()
        if not token or not target:
            raise ConfigError(f"alias {alias!r} maps to {canonical!r}: neither may be empty")
        previous = canonical_for.get(token)
        if previous is not None and previous != target:
            raise ConfigError(
                f"alias {alias!r} maps to both {previous!r} and {target!r}"
            )
        canonical_for[token] = target
    return canonical_for


def resolve_identities(
    pairs: Iterable[tuple[str, str]],
    aliases: AliasMap | None = None,
    name_merging: bool = False,
) -> tuple[dict[tuple[str, str], str], list[CanonicalDeveloper]]:
    """Group observed (name, email) pairs into canonical developers.

    ``pairs`` yields (author_name, author_email) pairs and may repeat one; a
    timelines dict from ``apply_filters`` yields its keys.

    Each pair joins the group of every merge key it has: its non-empty
    lowercased email, its normalized name when ``name_merging`` is on, and the
    canonical email of any alias directive naming its lowercased email or raw
    name. The developer id is the lexicographically smallest email in the
    group (directive canonical emails included), or ``name:<smallest raw
    name>`` for groups with no email at all; should that equal another
    group's email, the first free ``#2``, ``#3``, ... suffix is appended.

    Returns ((name, email) -> developer id for every observed pair, roster
    sorted by developer id), each developer with every email of its group.
    """
    canonical_for = _checked_directives(aliases or AliasMap())
    pairs = list(dict.fromkeys(pairs))
    # A union-find over pair indices. Each merge key maps to the first pair
    # that has it, and every later pair with that key joins that pair's group.
    parent = list(range(len(pairs)))

    def find(index: int) -> int:
        while parent[index] != index:
            parent[index] = parent[parent[index]]
            index = parent[index]
        return index

    by_email: dict[str, int] = {}
    by_name: dict[str, int] = {}
    for index, (name, email) in enumerate(pairs):
        lowered = email.lower()
        keys = [(by_email, canonical_for[t]) for t in (lowered, name.lower()) if t in canonical_for]
        if email:
            keys.append((by_email, lowered))
        if name_merging and (normalized := normalize_name(name)):
            keys.append((by_name, normalized))
        for holders, key in keys:
            first = holders.setdefault(key, index)
            if first != index:
                parent[find(index)] = find(first)

    groups: dict[int, list[tuple[str, str]]] = {}
    for index, pair in enumerate(pairs):
        groups.setdefault(find(index), []).append(pair)
    # Every email a group holds, observed or a directive's canonical email, is
    # a key of by_email; visited in order, the first one per group is its id.
    emails: dict[int, list[str]] = {}
    for email in sorted(by_email):
        emails.setdefault(find(by_email[email]), []).append(email)

    ids = {
        root: emails[root][0] if root in emails else "name:" + min(name for name, _ in members)
        for root, members in groups.items()
    }
    # An email such as "name:bob" can equal an email-less group's id. Such a
    # group takes the first "#2", "#3", ... suffix that is no group's id. Two
    # groups' suffixed ids differ because their unsuffixed ids do, so neither
    # the order of the groups nor the suffixes already given matter.
    email_ids = {ids[root] for root in emails}
    taken = set(ids.values())
    for root, developer_id in ids.items():
        if root not in emails and developer_id in email_ids:
            suffix = 2
            while f"{developer_id}#{suffix}" in taken:
                suffix += 1
            ids[root] = f"{developer_id}#{suffix}"

    group_of_pair: dict[tuple[str, str], str] = {}
    roster: list[CanonicalDeveloper] = []
    for root, members in groups.items():
        developer_id = ids[root]
        primary_email = developer_id if root in emails else ""
        roster.append(CanonicalDeveloper(
            developer_id, primary_email, frozenset(members), frozenset(emails.get(root, ()))
        ))
        for pair in members:
            group_of_pair[pair] = developer_id

    roster.sort(key=lambda dev: dev.developer_id)
    return group_of_pair, roster


def email_index(roster: Iterable[CanonicalDeveloper]) -> dict[str, str]:
    """Map each developer's emails, its primary email and every observed (lowercased)
    email to its developer id."""
    index: dict[str, str] = {}
    for developer in roster:
        for email in developer.emails | {developer.primary_email} | {
            email.lower() for _, email in developer.aliases
        }:
            if email:
                index[email] = developer.developer_id
    return index
