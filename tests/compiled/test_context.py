"""Tests for the posting-indexed document context."""

from repro.compiled.context import IndexedContext
from repro.compiled.vocabulary import Vocabulary
from repro.similarity.context import DocumentContext
from repro.types import Document, Mention


def _doc(tokens, mentions=()):
    return Document(
        doc_id="d", tokens=tuple(tokens), mentions=tuple(mentions)
    )


class TestIndexedContext:
    def test_postings_match_reference_positions(self):
        vocab = Vocabulary(["rock", "guitar"])
        context = DocumentContext(_doc(["rock", "guitar", "rock"]))
        indexed = IndexedContext(context, vocab)
        assert list(indexed.positions(vocab.id_of("rock"))) == [0, 2]
        assert list(indexed.positions(vocab.id_of("guitar"))) == [1]

    def test_out_of_vocabulary_words_dropped(self):
        vocab = Vocabulary(["rock"])
        context = DocumentContext(_doc(["rock", "meteorite"]))
        indexed = IndexedContext(context, vocab)
        # "meteorite" is not a KB keyword: no posting list, and probing
        # any unknown id finds nothing.
        assert len(indexed.postings) == 1
        assert vocab.id_of("meteorite") not in indexed.postings

    def test_mention_and_length_passthrough(self):
        mention = Mention(surface="Page", start=0, end=1)
        context = DocumentContext(
            _doc(["Page", "played", "guitar"], [mention]),
            exclude_mention=mention,
        )
        indexed = IndexedContext(context, Vocabulary(["guitar"]))
        assert indexed.mention_center == context.mention_center
        assert indexed.document_length == 3

    def test_masked_view_drops_only_the_mention_span(self):
        vocab = Vocabulary(["guitar", "rock", "page"])
        mention = Mention(surface="guitar rock", start=1, end=3)
        document = _doc(
            ["page", "guitar", "rock", "guitar", "page"], [mention]
        )
        indexed = IndexedContext(DocumentContext(document), vocab)
        view = indexed.masked(mention)
        # "guitar" keeps its position right after the span, "rock" had
        # no other and is dropped, "page" is untouched.
        assert view.postings == {
            vocab.id_of("guitar"): [3],
            vocab.id_of("page"): [0, 4],
        }
        assert view.postings == IndexedContext(
            DocumentContext(document, exclude_mention=mention), vocab
        ).postings
        assert view.mention_center == 1.5
        assert indexed.postings[vocab.id_of("guitar")] == [1, 3]

    def test_document_length_floor(self):
        context = DocumentContext(_doc([]))
        indexed = IndexedContext(context, Vocabulary())
        assert indexed.document_length == 1

    def test_positions_array_cached_and_equal(self):
        vocab = Vocabulary(["rock"])
        context = DocumentContext(_doc(["rock", "x", "rock"]))
        indexed = IndexedContext(context, vocab)
        wid = vocab.id_of("rock")
        first = indexed.positions_array(wid)
        assert list(first) == [0, 2]
        assert indexed.positions_array(wid) is first  # cached
