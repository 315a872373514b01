import random

import pytest

from twigstore.errors import PatternSyntaxError
from twigstore.pattern import CHILD, DESCENDANT, canonical, parse_pattern

from helpers import random_pattern_text


def test_descendant_with_word_predicate():
    p = parse_pattern('//sec[/title="dht"]!')
    assert len(p.nodes) == 2
    assert p.root_axis == DESCENDANT
    assert p.nodes[0].name == "sec" and p.nodes[0].ret
    assert p.nodes[1].word == "dht"
    assert p.edges == [(0, 1, CHILD)]


def test_descendant_chain():
    p = parse_pattern("//a//b!")
    assert [n.name for n in p.nodes] == ["a", "b"]
    assert p.root_axis == DESCENDANT
    assert p.edges == [(0, 1, DESCENDANT)]
    assert p.return_nodes == [1]


def test_range_predicate():
    p = parse_pattern("//paper[/year in 2000..2005]!")
    year = p.nodes[1]
    assert (year.lo, year.hi) == (2000, 2005)
    assert p.nodes[0].ret


def test_root_returned_if_unmarked():
    p = parse_pattern("//a/b")
    assert p.return_nodes == [0]


def test_child_root_axis():
    p = parse_pattern("/doc//par!")
    assert p.root_axis == CHILD
    assert p.edges == [(0, 1, DESCENDANT)]


def test_wildcard_and_attribute_names():
    p = parse_pattern("//*[/@id]!")
    assert p.nodes[0].is_wildcard
    assert p.nodes[1].name == "@id"
    assert not p.all_wildcard
    assert parse_pattern("//*//*").all_wildcard
    assert not parse_pattern('//*="xml"').all_wildcard


def test_a_name_runs_to_the_next_space_or_syntax_character():
    for name in ["_x", "x\u00b7y", "cafe\u0301", "\u0915\u093f", "a.b-c", "x1"]:
        p = parse_pattern(f"//{name}[/@{name}] !")
        assert [n.name for n in p.nodes] == [name, "@" + name]
    for text in ["//a*", "//@", "//@@a", '//a"b"']:
        with pytest.raises(PatternSyntaxError):
            parse_pattern(text)


def test_syntax_errors_carry_position():
    for text, pos in [("", 0), ("sec", 0), ("//a[", 4), ("//a[/b", 6),
                      ("//a in 9..2", 11), ('//a="', 4), ("//a//", 5)]:
        with pytest.raises(PatternSyntaxError) as err:
            parse_pattern(text)
        assert err.value.pos == pos, text


def test_integer_too_long_for_int_is_a_syntax_error():
    with pytest.raises(PatternSyntaxError):
        parse_pattern("//c in 0.." + "9" * 5000 + "!")
    with pytest.raises(PatternSyntaxError):
        parse_pattern("//c in -" + "9" * 5000 + "..0!")


def test_one_value_predicate_per_node():
    with pytest.raises(PatternSyntaxError):
        parse_pattern('//a="x" in 1..2')
    with pytest.raises(PatternSyntaxError):
        parse_pattern('//a="x"="y"')


def test_word_is_lowercased():
    p = parse_pattern('//a="XML"')
    assert p.nodes[0].word == "xml"


def test_predicate_word_is_one_indexed_word():
    # the word must be what split_words makes of it: anything else has no
    # postings, so it would match nothing on either backend
    for word in ["x y", "x-y", "a_b", "xml.", "\u0130stanbul", "", " xml"]:
        with pytest.raises(PatternSyntaxError) as err:
            parse_pattern(f'//a="{word}"')
        assert err.value.pos == 4, word
    for word in ["xml", "XML", "2003", "caf\u00e9", "\u65e5\u672c"]:
        assert parse_pattern(f'//a="{word}"').nodes[0].word == word.lower()


def test_canonical_minimal_whitespace():
    p = parse_pattern('  //paper [ /year in 2000 .. 2005 ] ! ')
    assert canonical(p) == "//paper[/year in 2000..2005]!"


def test_canonical_round_trip_examples():
    for text in [
        '//sec[/title="dht"]!',
        "//a//b!",
        "//paper[/year in 2000..2005][/title=\"xml\"]!",
        "/doc[/a][//b!]//c",
    ]:
        p = parse_pattern(text)
        c = canonical(p)
        again = parse_pattern(c)
        assert canonical(again) == c


def test_canonical_round_trip_randomized():
    rng = random.Random(2)
    for _ in range(300):
        text = random_pattern_text(rng)
        p = parse_pattern(text)
        c = canonical(p)
        q = parse_pattern(c)
        assert canonical(q) == c
        assert [n.name for n in q.nodes] == [n.name for n in p.nodes]
        assert q.edges == p.edges
        assert q.return_nodes == p.return_nodes
