"""Property-based tests (hypothesis): the vectorized validate stage is
semantics-equal to the scalar kernel on arbitrary inputs; filter_spans
and the cleaner obey their invariants on generated data."""

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from ocr_ray.kernels.cleaner import CleanStats, clean_lines
from ocr_ray.kernels.extract import validate_spans
from ocr_ray.kernels.keywords import filter_spans
from ocr_ray.schema import DOCUMENTS_SCHEMA
from ocr_ray.stages.validate import validate_batch

# arrow-safe text (no surrogates)
_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), max_codepoint=0x2FFF),
    max_size=60,
)

_span = st.fixed_dictionaries({
    "kind": st.sampled_from(["text", "media", "video", ""]) | st.none(),
    "text": _text | st.none(),
    "media_ref": st.sampled_from(["", "m-x-1", "m-y-2"]) | st.none(),
    "offset": st.integers(min_value=-5, max_value=8) | st.none(),
})

_doc = st.lists(_span, max_size=8) | st.none()


class TestValidateEquivalence:
    @given(st.lists(_doc, min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_vector_equals_scalar(self, docs):
        rows = [{"doc_id": f"d{i}", "spans": spans}
                for i, spans in enumerate(docs)]
        tbl = pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA)
        out = validate_batch(tbl)
        vec = out.column("reject_reason").to_pylist()
        # arrow round-trip normalizes the python input the same way the
        # scalar kernel will see it in the golden path
        normalized = tbl.column("spans").to_pylist()
        for i, spans in enumerate(normalized):
            assert vec[i] == (validate_spans(spans) or ""), (i, spans)


class TestFilterSpans:
    @given(st.lists(
        st.tuples(st.integers(-5, 30), st.integers(1, 8), st.sampled_from("abc")),
        max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_invariants(self, raw):
        spans = [(s, s + l, lab) for s, l, lab in raw]
        out = filter_spans(spans)
        # sorted by start, pairwise non-overlapping
        for (s1, e1, _), (s2, e2, _) in zip(out, out[1:]):
            assert s1 <= s2 and e1 <= s2
        # every output span was an input span
        assert all(s in spans for s in out)
        # maximality: no rejected span fits in the remaining gaps
        occupied = set()
        for s, e, _ in out:
            occupied.update(range(s, e))
        for s, e, lab in spans:
            if (s, e, lab) not in out:
                assert any(i in occupied for i in range(s, e))


_TAGS = ["p", "div", "li", "h1", "td", "nav", "footer", "script", "style",
         "a", "span", "br", "table", "ul", "blockquote"]
_frag = st.deferred(lambda: st.one_of(
    # free text excludes quote/angle chars: stdlib's recovery from
    # malformed tags ("<a'<br/>", "<a<p>") silently swallows content in
    # parser-specific ways, where the scanner treats the malformed tag
    # as literal text — a documented, deliberate divergence.  Literal
    # angle brackets in text ARE parity-covered by the static battery
    # ("a < b and c > d", "<3 items>").
    st.text(alphabet="abc 123 &amp; \n", max_size=20),
    st.tuples(st.sampled_from(_TAGS), _frag).map(
        lambda t: f"<{t[0]}>{t[1]}</{t[0]}>"),
    st.sampled_from(["<br/>", "<!-- x -->", "<!DOCTYPE html>",
                     "&lt;ent&gt;", "<P>case</P>"]),
))
_html_doc = st.lists(_frag, max_size=8).map("".join)


class TestHtmlFuzz:
    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                          max_codepoint=0x2FFF), max_size=400))
    @settings(max_examples=200, deadline=None)
    def test_parser_never_raises_and_is_deterministic(self, html):
        from ocr_ray.kernels.htmlx import html_to_blocks

        assert html_to_blocks(html) == html_to_blocks(html)

    @given(_html_doc)
    @settings(max_examples=200, deadline=None)
    def test_fast_scanner_matches_stdlib_parser(self, html):
        """The regex scanner must reproduce the HTMLParser reference on
        structured HTML (nesting, case, charrefs, comments, voids,
        script/style CDATA).  Known, documented divergence: after an
        EOF-unterminated comment the scanner swallows everything to EOF
        (the HTML5 reading) while stdlib re-parses trailing end tags —
        excluded by construction here (generated docs terminate their
        comments)."""
        from ocr_ray.kernels.htmlx import html_to_blocks
        from tests._reference_html import stdlib_blocks

        assert html_to_blocks(html) == stdlib_blocks(html)

    @given(_html_doc)
    @settings(max_examples=200, deadline=None)
    def test_fused_scanner_matches_on_adversarial_tails(self, html):
        """Unterminated markup / CDATA at EOF exercise the fused
        scanner's break paths — append hostile tails to generated docs
        and require agreement with the un-inlined ``_scan`` walk (stdlib
        diverges on such tails by design)."""
        from ocr_ray.kernels.htmlx import html_to_blocks
        from tests._reference_html import scan_blocks

        for tail in ("<div", "<!-- open", "<script>var x = 1;",
                     "<![CDATA[ oops", "<a href='x'>link", "&amp"):
            doc = html + tail
            assert html_to_blocks(doc) == scan_blocks(doc)


class TestCleanerProperties:
    @given(_text)
    @settings(max_examples=200, deadline=None)
    def test_deterministic_and_counters_consistent(self, text):
        out1, st1 = clean_lines(text)
        out2, st2 = clean_lines(text)
        assert out1 == out2 and st1.as_dict() == st2.as_dict()
        n_lines = len(text.split("\n"))
        assert st1.kept_lines + st1.dropped_lines == n_lines
        if out1:
            assert out1.endswith("\n")
            for line in out1.rstrip("\n").split("\n"):
                assert len(line) >= 10

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                          max_codepoint=0xFFFF),
                   max_size=160))
    @settings(max_examples=300, deadline=None)
    def test_fast_paths_equal_reference_char_loop(self, text):
        """The ASCII / mixed byte-translate fast paths must agree with
        the round-1 per-char predicate loop (vendored frozen in
        tests/_reference_cleaner.py) on arbitrary unicode — forbidden
        chars, circled digits, fractions, combining marks.  Counts
        drive the reject rules, so any divergence is a correctness
        bug, not just a perf one."""
        from tests._reference_cleaner import clean_lines as ref_clean

        out_ref, st_ref = ref_clean(text)
        out_new, st_new = clean_lines(text)
        assert out_new == out_ref
        assert st_new.as_dict() == st_ref.as_dict()

    @given(_text, _text)
    @settings(max_examples=100, deadline=None)
    def test_merge_matches_concatenation(self, a, b):
        _, sa = clean_lines(a)
        _, sb = clean_lines(b)
        merged = CleanStats().merge(sa).merge(sb)
        _, s_all = clean_lines(a + "\n" + b)
        assert merged.as_dict() == s_all.as_dict()


class TestHistQuantileProperty:
    """quantiles_from_hist must equal the direct sorted-vector
    quantile_disc rule (ceil(q*n)-th order statistic, 1-based) for ANY
    multiset — the rule silently diverges from floor((n-1)*q) on
    adversarial (n, q) pairs, so exercise it broadly."""

    @given(st.lists(st.integers(min_value=0, max_value=40),
                    min_size=1, max_size=200),
           st.floats(min_value=0.01, max_value=1.0,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_matches_expanded_vector(self, values, q):
        import math

        import numpy as np

        from ocr_ray.functions.corpus_prep import quantiles_from_hist

        vals, counts = np.unique(np.asarray(values), return_counts=True)
        got = quantiles_from_hist(vals, counts, [q])[0]
        v = np.sort(np.asarray(values))
        want = int(v[math.ceil(q * len(v)) - 1])
        assert got == want
