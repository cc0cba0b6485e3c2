"""Word utilities: length-lex ordering and rendering."""

from hypothesis import given, strategies as st

from ratskew.words import render_word, word_key

words = st.lists(st.integers(0, 3), max_size=6).map(tuple)


@given(words, words)
def test_word_key_is_length_lex(u, v):
    if len(u) != len(v):
        assert (word_key(u) < word_key(v)) == (len(u) < len(v))
    else:
        assert (word_key(u) < word_key(v)) == (u < v)


def test_render_word():
    assert render_word((), "x") == "1"
    assert render_word((0, 2), "x") == "x0*x2"
    assert render_word((1,), "y") == "y1"
