"""Identity resolution: heuristic merging, alias directives, and id assignment."""

from __future__ import annotations

import random

import pytest

import reference_model
from conftest import line_events, timelines
from vcseffort import identity
from vcseffort.errors import ConfigError
from vcseffort.identity import (
    AliasMap,
    load_alias_map,
    normalize_name,
    resolve_identities,
)
from vcseffort.ingest import CommitRecord


def commit(i: int, name: str, email: str) -> CommitRecord:
    return CommitRecord(f"h{i}", name, email, 1000 + i, False)


def ids_of(roster):
    return [dev.developer_id for dev in roster]


def _random_commits(rng: random.Random, names, emails, most: int) -> list[CommitRecord]:
    """Fewer than ``most`` commits by pairs drawn from the pools, never both fields empty."""
    commits = []
    for i in range(rng.randrange(1, most)):
        name, email = rng.choice(names), rng.choice(emails)
        commits.append(commit(i, name if name or email else "fallback", email))
    return commits


def _check_against_model(pairs, directives=(), name_merging=False):
    """The roster and assignments of ``pairs`` are the reference model's developers."""
    assignments, roster = resolve_identities(pairs, AliasMap(directives), name_merging)
    assert roster == reference_model.identities(pairs, directives, name_merging)
    assert assignments == {pair: dev.developer_id for dev in roster for pair in dev.aliases}
    return assignments, roster


def test_same_email_merges_regardless_of_name_and_case():
    commits = [
        commit(1, "Ada L", "Ada@Example.org"),
        commit(2, "A. Lovelace", "ada@example.org"),
    ]
    assignments, roster = resolve_identities(timelines(commits))
    assert len(roster) == 1
    assert roster[0].developer_id == "ada@example.org"
    assert assignments == {
        ("Ada L", "Ada@Example.org"): "ada@example.org",
        ("A. Lovelace", "ada@example.org"): "ada@example.org",
    }
    assert roster[0].aliases == frozenset(
        {("Ada L", "Ada@Example.org"), ("A. Lovelace", "ada@example.org")}
    )


def test_different_emails_stay_separate_by_default():
    commits = [commit(1, "Ada", "ada@work.org"), commit(2, "Ada", "ada@home.org")]
    _, roster = resolve_identities(timelines(commits))
    assert ids_of(roster) == ["ada@home.org", "ada@work.org"]


def test_empty_emails_never_merge_by_email():
    commits = [commit(1, "Alpha", ""), commit(2, "Beta", "")]
    _, roster = resolve_identities(timelines(commits))
    assert ids_of(roster) == ["name:Alpha", "name:Beta"]
    assert all(dev.primary_email == "" for dev in roster)


def test_normalize_name():
    assert normalize_name("  José   GARCÍA ") == "jose garcia"
    assert normalize_name("Björn") == "bjorn"
    assert normalize_name("") == ""


def test_ascii_names_normalize_as_through_nfkd():
    """ASCII names skip the NFKD decomposition; the result is the same."""
    for code in range(0x80):
        for name in (chr(code), f" A{chr(code)}b  C{chr(code)}"):
            assert normalize_name(name) == reference_model.normalize_name(name), name
    rng = random.Random(128)
    for _ in range(2000):
        name = "".join(chr(rng.randrange(0x80)) for _ in range(rng.randrange(12)))
        assert normalize_name(name) == reference_model.normalize_name(name), name


def test_name_merging_is_opt_in():
    commits = [
        commit(1, "José García", "jg@a.org"),
        commit(2, "jose  garcia", "jg@b.org"),
    ]
    _, roster_default = resolve_identities(timelines(commits))
    assert len(roster_default) == 2
    _, roster_merged = resolve_identities(timelines(commits), name_merging=True)
    assert len(roster_merged) == 1
    assert roster_merged[0].developer_id == "jg@a.org"


def test_developer_id_is_smallest_email():
    commits = [
        commit(1, "Ada", "zz@example.org"),
        commit(2, "Ada", "aa@example.org"),
    ]
    _, roster = resolve_identities(timelines(commits), name_merging=True)
    assert ids_of(roster) == ["aa@example.org"]


def test_alias_directive_forces_merge_by_email_and_name():
    commits = [
        commit(1, "Ada", "ada@old.org"),
        commit(2, "Countess", "ada@new.org"),
        commit(3, "Ada Byron", ""),
    ]
    aliases = AliasMap((("ada@old.org", "ada@new.org"), ("ada byron", "ada@new.org")))
    assignments, roster = resolve_identities(timelines(commits), aliases)
    assert len(roster) == 1
    assert roster[0].developer_id == "ada@new.org"
    assert assignments[("Ada Byron", "")] == "ada@new.org"


def test_alias_match_is_case_insensitive_on_raw_name():
    commits = [commit(1, "ADA BYRON", ""), commit(2, "Ada", "ada@x.org")]
    aliases = AliasMap((("ada byron", "ada@x.org"),))
    _, roster = resolve_identities(timelines(commits), aliases)
    assert len(roster) == 1


def test_alias_to_unobserved_canonical_email_names_the_group():
    commits = [commit(1, "Ghost", "old@x.org")]
    aliases = AliasMap((("old@x.org", "canonical@x.org"),))
    _, roster = resolve_identities(timelines(commits), aliases)
    assert roster[0].developer_id == "canonical@x.org"


def test_conflicting_alias_directives_rejected_before_merging():
    aliases = AliasMap((("a@x.org", "b@x.org"), ("a@x.org", "c@x.org")))
    with pytest.raises(ConfigError, match="maps to both"):
        resolve_identities(timelines([commit(1, "A", "a@x.org")]), aliases)


@pytest.mark.parametrize("directive", [("", "z@x.org"), ("a@x.org", "")])
def test_empty_alias_or_canonical_email_rejected(directive):
    pairs = [("A", ""), ("", "b@x.org"), ("C", "a@x.org")]
    with pytest.raises(ConfigError, match="neither may be empty"):
        resolve_identities(pairs, AliasMap((directive,)))


def test_repeated_identical_directives_allowed():
    aliases = AliasMap((("a@x.org", "b@x.org"), ("A@X.ORG", "B@x.org")))
    _, roster = resolve_identities(timelines([commit(1, "A", "a@x.org")]), aliases)
    assert len(roster) == 1
    # The group holds both emails; the smallest one names the developer.
    assert roster[0].developer_id == "a@x.org"


def test_assignments_cover_every_pair():
    commits = [commit(i, f"N{i % 3}", f"e{i % 4}@x.org") for i in range(24)]
    assignments, roster = resolve_identities(timelines(commits))
    assert set(assignments) == {(c.author_name, c.author_email) for c in commits}
    assert len(assignments) == 12
    assert set(assignments.values()) == set(ids_of(roster))


def test_load_alias_map(tmp_path):
    path = tmp_path / "aliases.csv"
    path.write_text(
        "alias_email_or_name,canonical_email\n"
        "# old address\n"
        "# old@x.org,new@x.org\n"
        "old@x.org,new@x.org\n"
        "\n"
        "Ada Byron,new@x.org\n",
        encoding="utf-8",
    )
    assert load_alias_map(str(path)).directives == (
        ("old@x.org", "new@x.org"),
        ("Ada Byron", "new@x.org"),
    )


def test_load_alias_map_without_header(tmp_path):
    path = tmp_path / "aliases.csv"
    path.write_text("old@x.org,new@x.org\n", encoding="utf-8")
    assert load_alias_map(str(path)).directives == (("old@x.org", "new@x.org"),)


def test_load_alias_map_rejects_short_rows(tmp_path):
    path = tmp_path / "aliases.csv"
    path.write_text("only-one-cell\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="row 1"):
        load_alias_map(str(path))


def test_load_alias_map_rejects_an_empty_alias(tmp_path):
    path = tmp_path / "aliases.csv"
    path.write_text("old@x.org,new@x.org\n,canonical@x.org\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="row 2: expected alias,canonical_email"):
        load_alias_map(str(path))


def test_grouping_matches_graph_oracle():
    """Union-find grouping equals the model's merging until nothing changes."""
    rng = random.Random(4242)
    names = ["Ada", "ada ", "Björn", "bjorn", "Cleo", "Dee", ""]
    emails = ["a@x.org", "A@X.ORG", "b@x.org", "c@x.org", ""]
    for _ in range(60):
        commits = _random_commits(rng, names, emails, 25)
        name_merging = rng.random() < 0.5
        directive_pool = [("ada", "z@x.org"), ("b@x.org", "c@x.org")]
        directives = tuple(d for d in directive_pool if rng.random() < 0.4)
        _check_against_model(timelines(commits), directives, name_merging)


def test_resolution_is_deterministic():
    commits = [commit(i, f"N{i % 5}", f"e{i % 4}@x.org") for i in range(30)]
    first = resolve_identities(timelines(commits), name_merging=True)
    second = resolve_identities(timelines(commits), name_merging=True)
    assert first == second
    # The order pairs arrive in decides which groups are joined under which,
    # but never the groups, their ids, or the roster.
    rng = random.Random(7373)
    names = ["Ada", "ada ", "Björn", "bjorn", "Cleo", "Dee", ""]
    emails = ["a@x.org", "A@X.ORG", "b@x.org", "d@x.org", ""]
    directive_pool = [("ada", "z@x.org"), ("b@x.org", "c@x.org"), ("D@x.org", "y@x.org"),
                      ("dee", "w@x.org"), ("cleo", "0@x.org"), ("nobody", "n@x.org")]
    for _ in range(60):
        pairs = [(rng.choice(names), rng.choice(emails)) for _ in range(rng.randrange(1, 25))]
        aliases = AliasMap(tuple(d for d in directive_pool if rng.random() < 0.5))
        expected = resolve_identities(pairs, aliases, name_merging=True)
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        for order in (shuffled, pairs[::-1]):
            assert resolve_identities(order, aliases, name_merging=True) == expected


def test_long_merge_chain_is_one_developer():
    # Neighbours share an email and a normalized name in turn: (N0, e0), (N0, e1),
    # (N1, e1), (N1, e2), ...
    pairs = [(f"N{i // 2}", f"e{(i + 1) // 2}@x.org") for i in range(20_000)]
    assignments, roster = resolve_identities(pairs, name_merging=True)
    assert len(roster) == 1
    assert roster[0].developer_id == roster[0].primary_email == "e0@x.org"
    assert roster[0].aliases == frozenset(pairs)
    assert assignments == dict.fromkeys(pairs, "e0@x.org")


def test_naming_matches_oracle():
    """Each group's id and primary email follow the naming rule, directives included."""
    rng = random.Random(5151)
    names = ["Ada", "ADA", "Björn", "bjorn", "Cleo", "Dee", ""]
    emails = ["a@x.org", "A@X.ORG", "b@x.org", "d@x.org", ""]
    directive_pool = [
        ("ada", "z@x.org"),
        ("b@x.org", "c@x.org"),
        ("D@x.org", "y@x.org"),
        ("dee", "w@x.org"),
        ("cleo", "0@x.org"),
        ("nobody", "n@x.org"),
    ]
    for _ in range(80):
        commits = _random_commits(rng, names, emails, 25)
        directives = tuple(d for d in directive_pool if rng.random() < 0.5)
        _check_against_model(timelines(commits), directives, rng.random() < 0.5)


def test_pair_matched_by_email_and_name_directives_takes_both_canonicals():
    commits = [commit(1, "Dee", "d@x.org"), commit(2, "Eve", "e@x.org")]
    by_email = ("D@X.org", "c@x.org")
    by_name = ("dee", "b@x.org")
    _, roster = _check_against_model(timelines(commits), (by_email, by_name))
    assert [(dev.developer_id, dev.aliases) for dev in roster] == [
        ("b@x.org", frozenset({("Dee", "d@x.org")})),
        ("e@x.org", frozenset({("Eve", "e@x.org")})),
    ]
    _, roster = _check_against_model(timelines(commits), (by_email,))
    assert [dev.developer_id for dev in roster] == ["c@x.org", "e@x.org"]


def test_directive_matching_no_pair_adds_no_developer():
    commits = [commit(1, "Dee", "d@x.org"), commit(2, "Nameless", "")]
    directives = (("nobody", "a@x.org"), ("ghost@x.org", "b@x.org"))
    _, roster = _check_against_model(timelines(commits), directives, True)
    assert [dev.developer_id for dev in roster] == ["d@x.org", "name:Nameless"]


def test_email_spelled_like_a_name_id_does_not_merge_two_developers():
    commits = [commit(1, "X", "name:bob"), commit(2, "bob", "")]
    assignments, roster = _check_against_model(timelines(commits))
    assert assignments == {("X", "name:bob"): "name:bob", ("bob", ""): "name:bob#2"}
    assert [(dev.developer_id, dev.primary_email) for dev in roster] == [
        ("name:bob", "name:bob"),
        ("name:bob#2", ""),
    ]
    # The suffix skips every id in use, whichever order the commits come in.
    commits.append(commit(3, "bob#2", ""))
    for order in (commits, commits[::-1], commits[1:] + commits[:1]):
        assignments, _ = _check_against_model(timelines(order))
        assert assignments == {
            ("X", "name:bob"): "name:bob", ("bob", ""): "name:bob#3", ("bob#2", ""): "name:bob#2",
        }
    commits += [commit(4, "Y", "name:bob#2"), commit(5, "Z", "name:bob#4")]
    for order in (commits, commits[::-1], commits[1::2] + commits[::2]):
        assignments, _ = _check_against_model(timelines(order))
        assert assignments == {
            ("X", "name:bob"): "name:bob", ("bob", ""): "name:bob#3", ("bob#2", ""): "name:bob#2#2",
            ("Y", "name:bob#2"): "name:bob#2", ("Z", "name:bob#4"): "name:bob#4",
        }


def test_ids_stay_distinct_and_match_oracle():
    """Ids are unique and follow the naming rule, with suffixes only on clashes."""
    rng = random.Random(6262)
    names = ["bob", "Bob", "bob#2", "ada", "ADA", "Cleo", ""]
    emails = ["name:bob", "NAME:BOB", "name:bob#2", "name:ada", "name:cleo", "a@x.org", ""]
    directive_pool = [("cleo", "name:Cleo"), ("a@x.org", "name:bob#3"), ("ada", "z@x.org")]
    for _ in range(150):
        commits = _random_commits(rng, names, emails, 20)
        directives = tuple(d for d in directive_pool if rng.random() < 0.4)
        name_merging = rng.random() < 0.5
        assignments, roster = _check_against_model(timelines(commits), directives, name_merging)
        assert len({dev.developer_id for dev in roster}) == len(roster)
        shuffled = commits[:]
        rng.shuffle(shuffled)
        assert resolve_identities(timelines(shuffled), AliasMap(directives), name_merging) == (
            assignments, roster
        )


@pytest.mark.parametrize("name_merging", [False, True])
def test_resolution_cost_grows_linearly_with_pairs_and_directives(name_merging):
    # Pairs share emails and names, and one directive per 100 pairs merges by
    # email or by name. Measured ratios of the counts at 8,000 and 2,000 pairs:
    # 4.02 without name merging and 4.12 with it, under hash seeds 0 to 2.
    # Scanning every directive for every pair reads 8.9 and 7.6.
    def resolve(n: int) -> None:
        rng = random.Random(n)
        pairs = [
            (f"Dev {rng.randrange(n // 2)}", f"d{rng.randrange(n // 2)}@x.org" if i % 9 else "")
            for i in range(n)
        ]
        directives = tuple(
            (f"d{k}@x.org" if k % 2 else f"Dev {k}", f"canon{k % 7}@x.org") for k in range(n // 100)
        )
        resolve_identities(pairs, AliasMap(directives), name_merging)

    resolve(2000)  # warm-up, untraced
    small = line_events(identity, lambda: resolve(2000))
    large = line_events(identity, lambda: resolve(8000))
    assert large / small < 6, (small, large)
