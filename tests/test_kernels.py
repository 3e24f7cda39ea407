"""Unit tests for the pure kernels — golden-count style assertions
(reference test style: /root/reference/tests/test_ocr_worker.py:48-65)."""

import pytest

from ocr_ray.kernels.cleaner import CleanStats, clean_lines
from ocr_ray.kernels.htmlx import extract_main_text, html_to_blocks
from ocr_ray.kernels.keywords import KeywordMatcher, filter_spans
from ocr_ray.kernels.ocr_sim import is_rotated_scan, run_ocr
from ocr_ray.kernels.quality import cer, estimate_quality, wer
from ocr_ray.kernels.textnorm import fold_diacritics, normalize_word
from ocr_ray.kernels.wordpool import keyword_list, keywords_hash, vocabulary


class TestCleaner:
    def test_min_length_reject(self):
        out, st = clean_lines("short\nok")
        assert out == ""
        assert st.min_length_lines == 2
        assert st.min_length_chars == len("short") + len("ok")

    def test_keeps_normal_line(self):
        line = "Aceasta este o propoziție normală cu suficiente litere."
        out, st = clean_lines(line)
        assert out == line + "\n"
        assert st.kept_lines == 1
        assert st.total_clean_chars == len(line)

    def test_digit_heavy_reject(self):
        # >6 digits and digits/alpha >= 0.7 (needs alpha >= len/2 first...
        # use a line with enough letters to pass alpha, then many digits)
        # alpha=14, digits=10: alpha/len=0.56 passes, digits/alpha=0.71 rejects
        line = "abcdefghijklmn 1234567890"
        out, st = clean_lines(line)
        assert out == ""
        assert st.high_digit_lines == 1

    def test_low_alpha_reject(self):
        out, st = clean_lines("12345 678901 234567 890123")
        assert st.low_alpha_lines == 1  # alpha == 0 fires before digit rule

    def test_table_line_counted_as_forbidden(self):
        out, st = clean_lines("| unu doi trei | patru cinci | sase sapte |")
        assert out == ""
        assert st.forbidden_lines == 1

    def test_forbidden_char(self):
        out, st = clean_lines("Aceasta este o linie cu caracterul º interzis aici")
        assert out == ""
        assert st.forbidden_lines == 1

    def test_substitutions(self):
        # r1 joins "să- l" -> "să-l", then the table-separator rule strips
        # remaining hyphens entirely (reference r9, text_processing.py:64,180)
        out, _ = clean_lines("S-ar putea să fie necesar să- l recitiți acum")
        assert "săl recitiți" in out
        out, _ = clean_lines("Creșterea a fost de 1, 4% față de anul trecut")
        assert "1,4%" in out
        out, _ = clean_lines("Vezi www.exemplu.ro/abc pentru detalii multe aici")
        assert "www" not in out
        out, _ = clean_lines("Scrieți la birou@exemplu.ro și reveniți ulterior cu multe detalii")
        assert "@" not in out
        out, _ = clean_lines("Cuvinte vechi: naţional şi internaţional împreună aici")
        assert "ț" in out and "ţ" not in out
        # a soft hyphen folds to '-' with the unicode dashes, and the
        # table-separator rule then drops it
        out, _ = clean_lines("Documentul a fost inter\u00adpretat corect aici")
        assert out == "Documentul a fost interpretat corect aici\n"

    def test_post_substitution_min_length(self):
        # URL strip leaves a too-short remainder -> counted under min_length
        # with the ORIGINAL length
        line = "ab www.exemplu.ro/foarte/lunga/cale/aici/acum cd"
        out, st = clean_lines(line)
        assert out == ""
        assert st.min_length_lines == 1
        assert st.min_length_chars == len(line)

    def test_merge_associative(self):
        a1, s1 = clean_lines("Aceasta este o propoziție normală cu litere.")
        a2, s2 = clean_lines("short")
        merged = CleanStats().merge(s1).merge(s2)
        both, s_both = clean_lines(
            "Aceasta este o propoziție normală cu litere.\nshort")
        assert merged.as_dict() == s_both.as_dict()


class TestHtml:
    def test_nav_footer_dropped(self):
        html = ("<html><body><nav><ul><li><a href='/'>Acasă</a></li></ul></nav>"
                "<article><p>Conținut principal aici.</p></article>"
                "<footer>contact@x.ro</footer></body></html>")
        blocks = html_to_blocks(html)
        assert blocks == ["Conținut principal aici."]

    def test_link_farm_dropped(self):
        html = ("<div><a href='/a'>unu doi</a> <a href='/b'>trei patru</a></div>"
                "<p>Text real cu multe cuvinte normale.</p>")
        blocks = html_to_blocks(html)
        assert blocks == ["Text real cu multe cuvinte normale."]

    def test_whitespace_flattened(self):
        html = "<p>linie unu\nlinie   doi</p>"
        assert html_to_blocks(html) == ["linie unu linie doi"]

    def test_deep_nesting(self):
        html = "<div>" * 200 + "<p>adânc text aici</p>" + "</div>" * 200
        assert "adânc text aici" in extract_main_text(html)

    def test_plain_text_passthrough(self):
        assert html_to_blocks("doar text simplu") == ["doar text simplu"]

    def test_malformed_html_no_raise(self):
        html_to_blocks("<div><p>unclosed <a href=  broken")


class TestOcrSim:
    def test_deterministic(self):
        assert run_ocr("m-a-0") == run_ocr("m-a-0")
        assert run_ocr("m-a-0", force_rotate=True) == run_ocr("m-a-0", force_rotate=True)

    def test_rotated_scan_retry_profile(self):
        ref = 0
        while not is_rotated_scan(f"m-q-{ref}"):
            ref += 1
        bad, confs_bad = run_ocr(f"m-q-{ref}")
        good, confs_good = run_ocr(f"m-q-{ref}", force_rotate=True)
        assert estimate_quality(bad) < 77.0 < estimate_quality(good)
        assert max(confs_bad) < 0.35 and min(confs_good) > 0.9

    def test_clean_scan_high_quality(self):
        ref = 0
        while is_rotated_scan(f"m-q-{ref}"):
            ref += 1
        text, _ = run_ocr(f"m-q-{ref}")
        assert estimate_quality(text) > 85.0


def test_conf_histogram_equals_loop_reference():
    """The numpy histogram bins exactly like the per-value loop, at bin
    edges too (0.3 * 10 rounds to 3.0000000000000004), for lists and
    arrays, empty included."""
    import numpy as np

    from ocr_ray.kernels.extract import conf_histogram

    def loop(confs, bins=10):
        hist = [0] * bins
        for c in confs:
            hist[min(int(c * bins), bins - 1)] += 1
        return hist

    rng = np.random.default_rng(7)
    edges = [0.0, 0.1, 0.3, 0.7, 0.9, 0.9999, 1.0]
    for confs in ([], edges, rng.random(500).round(4).tolist()):
        assert conf_histogram(confs) == loop(confs)
        assert conf_histogram(np.asarray(confs, dtype=np.float64)) == \
            loop(confs)


class TestOcrDigest:
    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 448, 1000])
    def test_block_equals_stream_prefix(self, n):
        """The OCR simulator's batched digest is the first n bytes of
        the per-byte reference stream, across sha256 block edges."""
        from itertools import islice

        from ocr_ray.kernels.ocr_sim import _digest_block, _digest_stream

        for seed in ("gt:m-a-0", "noise:7", ""):
            assert _digest_block(seed, n) == \
                bytes(islice(_digest_stream(seed), n))


class TestQuality:
    def test_empty_text_vacuous_100(self):
        assert estimate_quality("") == 100.0
        assert estimate_quality("[OCR skipped on page(s) 1]") == 100.0

    def test_cer_range(self):
        assert cer("abc def") == 1.0
        assert cer("¤¥¦§") == 0.0

    def test_wer_vocab(self):
        assert wer("lege contract document") > 0.7
        assert wer("zzzqqq xxxyyy wwwvvv") < 0.1

    def test_denominator_quirk(self):
        # one known word -> 1/(1+1) = 0.5, reference ocr_evaluation.py:67
        assert wer("lege") == 0.5


class TestTextNorm:
    def test_fold(self):
        assert fold_diacritics("achiziție") == "achizitie"
        assert fold_diacritics("ţşŢŞăâî") == "tsTSaai"

    def test_stem_stable(self):
        assert normalize_word("contractul") == normalize_word("contractul")
        assert normalize_word("achiziției").isascii()


class TestKeywords:
    def test_list_deterministic(self):
        assert keyword_list() == keyword_list()
        assert len(keyword_list()) == 365
        assert keywords_hash(keyword_list()) == keywords_hash(list(keyword_list()))

    def test_exact_match(self):
        m = KeywordMatcher(["acord cadru", "licitație"])
        hits = m.find("Se încheie un acord cadru după licitație publică.")
        assert {h["keyword"] for h in hits} == {"acord cadru", "licitație"}

    def test_diacritic_fold_match(self):
        m = KeywordMatcher(["licitație"])
        assert m.find("o licitatie deschisă")[0]["keyword"] == "licitație"

    def test_longest_match_wins(self):
        m = KeywordMatcher(["acord", "acord cadru"])
        hits = m.find("semnează un acord cadru astăzi")
        assert [h["keyword"] for h in hits] == ["acord cadru"]

    def test_filter_spans_semantics(self):
        # (start, end, label): longest first, then earliest
        spans = [(0, 2, "a"), (1, 4, "b"), (4, 5, "c")]
        assert filter_spans(spans) == [(1, 4, "b"), (4, 5, "c")]

    def test_group_hits(self):
        m = KeywordMatcher(["lege"])
        hits = m.find("lege nouă și lege veche")
        g = m.group_hits(hits)
        assert g[0]["total_occs"] == 2


class TestSpanSoftTimeout:
    """Straggler bound: a blown first-pass budget suppresses the
    force-rotate retry (tesseract-timeout analog, ocr_service.py:40-41)."""

    def test_tiny_budget_suppresses_retry(self):
        from ocr_ray.config import PipelineConfig
        from ocr_ray.kernels.extract import extract_span

        mref = None
        for i in range(200):
            _, meta = extract_span("media", "", f"m-t-{i}", PipelineConfig())
            if meta["retried"]:
                mref = f"m-t-{i}"
                break
        assert mref is not None
        _, meta = extract_span("media", "", mref,
                               PipelineConfig(span_soft_timeout_ms=0.0))
        assert not meta["retried"]


class TestHtmlScannerParity:
    """The fused regex scanner vs the stdlib-HTMLParser reference on the
    hand-picked malformed/edge battery (fixture-corpus parity and
    structured fuzz live in test_property.py)."""

    BATTERY = [
        "", "plain", "a < b and c > d", "<3 items>",
        "<p>one</p><div>two</div>", "<p>broken", "text</p>more",
        "<nav><p>menu</p></nav><p>body</p>",
        "<script>var x = '<p>no</p>';</script><p>real</p>",
        "<script>unterm...", "<style>p{color:red}</style><p>ok</p>",
        "<!-- c <p>h</p> --><p>s</p>", "<!-- unterm",
        "<br/><hr/><p>after</p>", "<a href='x>y'>link</a> tail",
        "<P>UP</P>", "&amp; &lt;e&gt; &#65;", "<div attr='unterm",
        "</div", "</div attr", "<div unterm", "y</p",
        "<![CDATA[ <p>x</p> ]]><p>y</p>", "<![CDATA[ unterm",
        "<!doctype x", "<?php unterm", "<!DOCTYPE html><p>doc</p>",
        "<?pi ?><p>w</p>", "<ul><li>a<li>b</ul>", "<td>c<a>l</a></td>",
        "tail &am", "<p>&amp unterm entity</p>",
        "<p a='1' b=\"2\">q</p>", "<sCrIpT>x</ScRiPt><p>m</p>",
        "<script >y</script ><p>n</p>",
    ]

    def test_battery_parity(self):
        from ocr_ray.kernels.htmlx import html_to_blocks
        from tests._reference_html import stdlib_blocks

        for t in self.BATTERY:
            assert html_to_blocks(t) == stdlib_blocks(t), t

    def test_documented_divergence_unterminated_comment(self):
        # after an EOF-unterminated comment the scanner takes the HTML5
        # reading (comment to EOF); stdlib re-parses trailing end tags
        from ocr_ray.kernels.htmlx import html_to_blocks

        t = "x<!-- a <p>b</p>"
        assert html_to_blocks(t) == [t]
