"""Prefix-trie storage behind partial application."""

from repro.model import RelationTrie


class TestRelationTrie:
    def test_contains(self):
        trie = RelationTrie([(1, 2), (1, 3)])
        assert (1, 2) in trie
        assert (1, 4) not in trie
        assert (1,) not in trie  # proper prefix, not a stored tuple

    def test_mixed_arity_prefix_tuples(self):
        trie = RelationTrie([(1,), (1, 2)])
        assert (1,) in trie
        assert (1, 2) in trie
        assert len(trie) == 2

    def test_suffixes(self):
        trie = RelationTrie([("O1", "P1", 2), ("O1", "P2", 1), ("O2", "P1", 1)])
        assert sorted(trie.suffixes(("O1",))) == [("P1", 2), ("P2", 1)]
        assert sorted(trie.suffixes(("O1", "P1"))) == [(2,)]
        assert list(trie.suffixes(("O9",))) == []

    def test_empty_prefix_yields_all(self):
        tuples = [(1, 2), (3,)]
        trie = RelationTrie(tuples)
        assert sorted(trie.suffixes(()), key=repr) == sorted(tuples, key=repr)

    def test_duplicates_not_double_counted(self):
        trie = RelationTrie([(1, 2), (1, 2)])
        assert len(trie) == 1

    def test_tuples_roundtrip(self):
        tuples = {(1, 2), (1,), (), ("a", "b", "c")}
        trie = RelationTrie(tuples)
        assert set(trie.tuples()) == tuples
