"""Reference block scanners for the HTML parity tests.

``stdlib_blocks`` runs the stdlib-HTMLParser collector; ``scan_blocks``
drives the same collector with the un-inlined ``_scan`` regex walk.  Both
apply the kernel's link-density filter, so their output compares directly
with ``html_to_blocks`` (the fused scanner).  Raw ``link_chars`` are not
compared: stdlib splits text into different chunks, so whitespace-stripped
anchor counts can differ while the kept blocks agree.
"""

from ocr_ray.kernels.htmlx import _BlockCollector, _drop_link_farms, _scan


def stdlib_blocks(html: str) -> list[str]:
    c = _BlockCollector()
    c.feed(html)
    c.close()
    return _drop_link_farms(c.blocks)


def scan_blocks(html: str) -> list[str]:
    c = _BlockCollector()
    _scan(html, c)
    c._flush()
    return _drop_link_farms(c.blocks)
