"""End-to-end crawl curation: WARC -> noindex filter -> URL dedup ->
main-content extraction -> mojibake repair -> gate -> parquet."""

import json

import pyarrow.dataset as pads
import pytest


@pytest.fixture()
def crawl_dir(tmp_path):
    from ocr_ray.sources.warc import write_warc

    body = ("<p>" + " ".join(f"cuvant{i} interesant text"
                             for i in range(30)) + "</p>")
    art = f"<html><body><nav><a href='/'>Home</a></nav>{body}</body></html>"
    moji_body = ("paragraf cu diacritice ș ț ă repetate des " * 8)
    moji_html = (f"<html><body><p>{moji_body}</p></body></html>"
                 .encode("utf-8").decode("cp1252"))
    recs = [
        {"url": "http://site.test/a?utm_source=x", "text": art},
        {"url": "HTTP://Site.TEST:80/a", "text": art},        # URL dup
        {"url": "http://site.test/b", "text": moji_html},     # mojibake
        {"url": "http://site.test/hidden",
         "text": '<html><head><meta name="robots" content="noindex">'
                 f"</head><body>{body}</body></html>"},
        {"url": "http://site.test/tiny",
         "text": "<html><body><p>short</p></body></html>"},
        {"url": "http://other.example.org/c", "text": art},
    ]
    d = tmp_path / "crawl"
    d.mkdir()
    write_warc(recs, str(d / "part0.warc.gz"), compress="member")
    return str(d)


class TestCurateCrawl:
    def test_end_to_end(self, ray_session, crawl_dir, tmp_path):
        from ocr_ray.pipelines.web_pipeline import curate_crawl

        out = str(tmp_path / "out")
        m = curate_crawl(crawl_dir, out, min_chars=100)
        assert m["pages_in"] == 5            # noindex page dropped first
        assert m["url_dups_removed"] == 1    # the utm/case/port variant
        assert m["encoding_repaired"] == 1
        assert m["kept_pages"] == 3          # a, b, c (tiny gated)

        t = pads.dataset(f"{out}/pages").to_table().to_pylist()
        by_url = {r["url"]: r for r in t}
        assert set(by_url) == {"http://site.test/a", "http://site.test/b",
                               "http://other.example.org/c"}
        # mojibake page repaired to clean diacritics
        assert "ș" in by_url["http://site.test/b"]["text"]
        assert "Ã" not in by_url["http://site.test/b"]["text"]
        # nav boilerplate stripped by the block extractor
        assert "Home" not in by_url["http://site.test/a"]["text"]
        assert by_url["http://site.test/a"]["domain"] == "site.test"
        disk = json.load(open(f"{out}/manifest.json"))
        assert disk == m

    def test_flags_off(self, ray_session, crawl_dir, tmp_path):
        from ocr_ray.pipelines.web_pipeline import curate_crawl

        out = str(tmp_path / "out2")
        m = curate_crawl(crawl_dir, out, min_chars=100,
                         fix_encoding=False, honor_noindex=False)
        assert m["pages_in"] == 6            # noindex page stays
        assert "encoding_repaired" not in m
        t = pads.dataset(f"{out}/pages").to_table().to_pylist()
        urls = {r["url"] for r in t}
        assert "http://site.test/hidden" in urls
        moji = next(r for r in t if r["url"] == "http://site.test/b")
        assert "Ã" in moji["text"] or "È" in moji["text"]

    def test_empty_crawl(self, ray_session, tmp_path):
        from ocr_ray.pipelines.web_pipeline import curate_crawl
        from ocr_ray.sources.warc import write_warc

        d = tmp_path / "empty"
        d.mkdir()
        write_warc([], str(d / "e.warc"))
        m = curate_crawl(str(d), str(tmp_path / "out3"))
        assert m["pages_in"] == 0 and m["kept_pages"] == 0

    def test_empty_rerun_clears_previous_pages(self, ray_session,
                                               crawl_dir, tmp_path):
        """A zero-page run into a used out_dir must not leave the last
        run's pages/ parquet behind its kept_pages=0 manifest."""
        from ocr_ray.pipelines.web_pipeline import curate_crawl
        from ocr_ray.sources.warc import write_warc

        out = str(tmp_path / "out")
        assert curate_crawl(crawl_dir, out, min_chars=100)["kept_pages"] > 0
        d = tmp_path / "empty"
        d.mkdir()
        write_warc([], str(d / "e.warc"))
        m = curate_crawl(str(d), out)
        assert m["kept_pages"] == 0
        assert json.load(open(f"{out}/manifest.json"))["kept_pages"] == 0
        assert not list((tmp_path / "out").rglob("*.parquet"))


class TestUriLessPages:
    def test_uri_less_pages_are_not_dedup_collapsed(self, ray_session,
                                                    tmp_path):
        """Review finding: pages missing WARC-Target-URI all landed on
        the single dedup key "" and only one survived."""
        from ocr_ray.pipelines.web_pipeline import curate_crawl
        from ocr_ray.sources.warc import write_warc

        body = "<p>" + " ".join(f"w{i} cont{i}" for i in range(40)) \
            + "</p>"
        recs = [{"url": "", "text": f"<html><body>{body} uniq{k}"
                                    "</body></html>"}
                for k in range(3)]
        d = tmp_path / "crawl"
        d.mkdir()
        write_warc(recs, str(d / "a.warc"))
        m = curate_crawl(str(d), str(tmp_path / "out"), min_chars=50)
        assert m["pages_in"] == 3
        assert m["url_dups_removed"] == 0
        assert m["kept_pages"] == 3
